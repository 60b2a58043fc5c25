package frontend

import (
	"strings"
	"testing"

	"givetake/internal/ir"
)

// fig1 is the code of paper Figure 1.
const fig1 = `
distributed x(1000)
real y(1000), z(1000), a(1000)

do i = 1, N
    y(i) = ...
enddo
if test then
    do j = 1, N
        z(j) = ...
    enddo
    do k = 1, N
        ... = x(a(k))
    enddo
else
    do l = 1, N
        ... = x(a(l))
    enddo
endif
`

// fig11 is the code of paper Figure 11.
const fig11 = `
distributed x(1000), y(1000)
real a(1000), b(1000)

do i = 1, N
    y(a(i)) = ...
    if test(i) goto 77
enddo
do j = 1, N
    ... = ...
enddo
77 do k = 1, N
    ... = x(k+10) + y(b(k))
enddo
`

func TestLexBasics(t *testing.T) {
	toks, err := Lex("do i = 1, N ! comment\n x(a(i)) = i .lt. 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokenKind{
		TokIdent, TokIdent, TokAssign, TokInt, TokComma, TokIdent, TokNewline,
		TokIdent, TokLParen, TokIdent, TokLParen, TokIdent, TokRParen, TokRParen,
		TokAssign, TokIdent, TokOp, TokInt, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// .lt. canonicalizes to <
	if toks[16].Text != "<" {
		t.Fatalf(".lt. lexed as %q", toks[16].Text)
	}
}

func TestLexCaseFolding(t *testing.T) {
	toks, err := Lex("DO I = 1, N")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "do" || toks[1].Text != "i" {
		t.Fatalf("identifiers not lowered: %v", toks[:2])
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"x = $", "x = .bogus~"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q): expected error", src)
		}
	}
}

func TestParseFig1(t *testing.T) {
	prog, err := Parse(fig1)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Distributed("x") {
		t.Error("x should be distributed")
	}
	if prog.Distributed("y") {
		t.Error("y should be local")
	}
	if len(prog.Body) != 2 {
		t.Fatalf("top-level statements = %d, want 2 (do, if)", len(prog.Body))
	}
	iff, ok := prog.Body[1].(*ir.If)
	if !ok {
		t.Fatalf("second statement is %T, want *ir.If", prog.Body[1])
	}
	if len(iff.Then) != 2 || len(iff.Else) != 1 {
		t.Fatalf("if arms = %d/%d, want 2/1", len(iff.Then), len(iff.Else))
	}
}

func TestParseFig11LabelsAndLogicalIf(t *testing.T) {
	prog, err := Parse(fig11)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Body) != 3 {
		t.Fatalf("top-level statements = %d, want 3", len(prog.Body))
	}
	kloop, ok := prog.Body[2].(*ir.Do)
	if !ok || kloop.Label() != "77" {
		t.Fatalf("third statement = %T label %q, want DO with label 77", prog.Body[2], prog.Body[2].Label())
	}
	iloop := prog.Body[0].(*ir.Do)
	logIf, ok := iloop.Body[1].(*ir.If)
	if !ok {
		t.Fatalf("i-loop second stmt = %T, want *ir.If", iloop.Body[1])
	}
	g, ok := logIf.Then[0].(*ir.Goto)
	if !ok || g.Target != "77" {
		t.Fatalf("logical if body = %#v, want goto 77", logIf.Then[0])
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, src := range []string{fig1, fig11} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text := ir.ProgramString(prog)
		prog2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse failed: %v\n--- printed program:\n%s", err, text)
		}
		if got := ir.ProgramString(prog2); got != text {
			t.Fatalf("print/parse not a fixed point:\n%s\nvs\n%s", text, got)
		}
	}
}

func TestParseExprPrecedence(t *testing.T) {
	stmts, err := ParseStmts("x = a + b * c - d / e")
	if err != nil {
		t.Fatal(err)
	}
	got := ir.ExprString(stmts[0].(*ir.Assign).RHS)
	if got != "a + b * c - d / e" {
		t.Fatalf("printed expr = %q", got)
	}
	stmts, err = ParseStmts("x = (a + b) * c")
	if err != nil {
		t.Fatal(err)
	}
	if got := ir.ExprString(stmts[0].(*ir.Assign).RHS); got != "(a + b) * c" {
		t.Fatalf("printed expr = %q", got)
	}
}

func TestParseTriplet(t *testing.T) {
	stmts, err := ParseStmts("x(1:n:2) = ...")
	if err != nil {
		t.Fatal(err)
	}
	ref := stmts[0].(*ir.Assign).LHS.(*ir.ArrayRef)
	r, ok := ref.Subs[0].(*ir.RangeExpr)
	if !ok {
		t.Fatalf("subscript = %T, want RangeExpr", ref.Subs[0])
	}
	if ir.ExprString(r) != "1:n:2" {
		t.Fatalf("triplet prints as %q", ir.ExprString(r))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"do i = 1 N\nenddo", "expected ','"},
		{"if test then\n", "expected \"endif\""},
		{"goto 99", "undefined label"},
		{"goto 5\n5 continue\n", ""}, // forward goto OK
		{"5 x = 1\ngoto 5", "backward"},
		{"goto 7\ndo i = 1, n\n7 continue\nenddo", "into a DO loop"},
		{"do i=1,n\n goto 9\nenddo\n9 continue", ""}, // jump out of loop OK
		{"1 x = 2\n1 y = 3", "duplicate label"},
		{"x + 1 = 2", "expected"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if c.want == "" {
			if err != nil {
				t.Errorf("Parse(%q): unexpected error %v", c.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

// The parser pulls tokens from the scanner as it goes, yet reports
// what lexing the whole source first would: a lex error anywhere wins
// over a parse or semantic error, even one earlier in the source, and
// a source that lexes cleanly reports its first parse error. The
// messages are exact.
func TestParseLexErrorPrecedence(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"parse error before lex error", "x = = 1\ny = $", "2:5: unexpected character '$'"},
		{"parse error before bad dot operator", "do i = 1, n\nenddo enddo\nz = .foo.", "3:5: unexpected '.'"},
		{"lex error where parsing could end", "x = 1\n$", "2:1: unexpected character '$'"},
		{"lex error first", "$ x = = 1", "1:1: unexpected character '$'"},
		{"literal out of range before lex error", "x = 99999999999999999999\n@", "2:1: unexpected character '@'"},
		{"lex error in an open block", "if (c) then\nx = 1\ny = 2 .lt 3", "3:7: unexpected '.'"},
		{"first of two parse errors", "x = = 1\ny = 2 )", "1:5: expected expression, found '=' \"=\""},
		{"literal out of range", "x = 99999999999999999999", "1:5: integer literal out of range"},
		{"missing enddo", "do i = 1, n\n x(i) = 1\n", "3:1: expected \"enddo\", found EOF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.src); err == nil || err.Error() != c.want {
				t.Errorf("Parse(%q): error = %v, want %s", c.src, err, c.want)
			}
			if _, err := ParseStmts(c.src); err == nil || err.Error() != c.want {
				t.Errorf("ParseStmts(%q): error = %v, want %s", c.src, err, c.want)
			}
		})
	}
	// a semantic error loses to a lex error too
	if _, err := Parse("goto 5\n#"); err == nil || err.Error() != "2:1: unexpected character '#'" {
		t.Errorf("undefined label before lex error: error = %v", err)
	}
	if _, err := Parse("goto 5"); err == nil || err.Error() != "1:1: goto 5: undefined label" {
		t.Errorf("undefined label: error = %v", err)
	}
}

func TestParseNestedLoopGoto(t *testing.T) {
	src := `
do i = 1, n
    do j = 1, n
        if (test) goto 10
    enddo
enddo
10 continue
`
	if _, err := Parse(src); err != nil {
		t.Fatalf("two-level jump out of loops should parse: %v", err)
	}
	// jumping from inner loop to a label in the *outer* loop body is legal
	// (target chain is a prefix)
	src2 := `
do i = 1, n
    do j = 1, n
        if (test) goto 10
    enddo
10  continue
enddo
`
	if _, err := Parse(src2); err != nil {
		t.Fatalf("jump to enclosing loop body should parse: %v", err)
	}
}
