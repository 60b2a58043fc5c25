package frontend

import (
	"strings"
	"testing"

	"givetake/internal/ir"
)

// FuzzParse asserts the frontend never panics and that accepted programs
// survive a print/reparse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"x = 1",
		"do i = 1, n\n x(i) = i\nenddo",
		"if c then\n a = 1\nelse\n b = 2\nendif",
		"do i = 1, n, 2\n if (e) goto 9\nenddo\n9 continue",
		"distributed u(10, 20)\nu(1, 2) = 3",
		"... = x(a(k)) + y(1:n:2)",
		"77 continue\n",
		"if (1 != 2 .and. .not. c) then\nendif",
		"do i = 1, n\ndo i = 1, n\nenddo\nenddo",
		"goto 1\n1 x = 1",
		"x = = 1\ny = $", // a parse error before a lex error
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		text := ir.ProgramString(prog)
		prog2, err := Parse(text)
		if err != nil {
			t.Fatalf("accepted program failed to re-parse: %v\n--- printed:\n%s", err, text)
		}
		if again := ir.ProgramString(prog2); again != text {
			t.Fatalf("print is not a fixed point:\n%s\n--- vs:\n%s", text, again)
		}
	})
}

// FuzzLex asserts the lexer terminates and never panics.
func FuzzLex(f *testing.F) {
	for _, s := range []string{"", "x=1", "! comment", ".lt.", "...", "a(1:2:3)", "1 != 2", strings.Repeat("(", 50)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err == nil && len(toks) == 0 {
			t.Fatal("lexer must at least emit EOF")
		}
	})
}
