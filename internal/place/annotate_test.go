package place

import (
	"strings"
	"testing"

	"givetake/internal/cfg"
	"givetake/internal/frontend"
	"givetake/internal/ir"
)

// mark returns an emitter that inserts "m = <blockID>*2[+1]" markers at
// the entry/exit of the blocks whose description matches.
func mark(g *cfg.Graph, substr string) EmitFunc {
	return func(dst []ir.Stmt, b *cfg.Block, entry bool) []ir.Stmt {
		if !strings.Contains(b.String(), substr) {
			return dst
		}
		v := int64(b.ID * 2)
		if !entry {
			v++
		}
		return append(dst, ir.NewAssign(ir.Pos{}, &ir.Ident{Name: "m"}, &ir.IntLit{Value: v}))
	}
}

func build(t *testing.T, src string) (*ir.Program, *cfg.Graph) {
	t.Helper()
	prog, err := frontend.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, g
}

func TestMarkersAroundStatement(t *testing.T) {
	prog, g := build(t, "a = 1\nb = 2\n")
	out := Annotate(prog, g, mark(g, "b = 2"))
	text := ir.ProgramString(out)
	lines := strings.Split(strings.TrimSpace(text), "\n")
	// a = 1, m = <entry>, b = 2, m = <exit>
	if len(lines) != 4 || lines[0] != "a = 1" || lines[2] != "b = 2" {
		t.Fatalf("unexpected shape:\n%s", text)
	}
	if !strings.HasPrefix(lines[1], "m = ") || !strings.HasPrefix(lines[3], "m = ") {
		t.Fatalf("markers missing:\n%s", text)
	}
}

func TestMarkersAroundLoop(t *testing.T) {
	prog, g := build(t, "do i = 1, n\n a = 1\nenddo\n")
	out := Annotate(prog, g, mark(g, "header"))
	text := ir.ProgramString(out)
	doLine := strings.Index(text, "do i")
	endLine := strings.Index(text, "enddo")
	first := strings.Index(text, "m = ")
	last := strings.LastIndex(text, "m = ")
	if !(first < doLine && last > endLine) {
		t.Fatalf("header markers should bracket the loop:\n%s", text)
	}
}

func TestLabelTransfer(t *testing.T) {
	prog, g := build(t, "goto 9\n9 a = 1\n")
	out := Annotate(prog, g, mark(g, "anchor"))
	text := ir.ProgramString(out)
	if !strings.Contains(text, "9 m = ") {
		t.Fatalf("label should move to the anchor's first marker:\n%s", text)
	}
	if strings.Contains(text, "9 a = 1") {
		t.Fatalf("label should have been consumed:\n%s", text)
	}
}

func TestSyntheticElseMaterialized(t *testing.T) {
	prog, g := build(t, "if c then\n a = 1\nendif\nb = 2\n")
	out := Annotate(prog, g, mark(g, "pad"))
	text := ir.ProgramString(out)
	if !strings.Contains(text, "else") {
		t.Fatalf("pad marker should create the else branch:\n%s", text)
	}
}

func TestOriginalProgramUntouched(t *testing.T) {
	prog, g := build(t, "goto 9\n9 a = 1\n")
	before := ir.ProgramString(prog)
	Annotate(prog, g, mark(g, "anchor"))
	if ir.ProgramString(prog) != before {
		t.Fatal("Annotate mutated the input program")
	}
}
