package ir

import (
	"strings"
	"testing"
)

func lit(v int64) *IntLit { return &IntLit{Value: v} }
func id(n string) *Ident  { return &Ident{Name: n} }
func bin(op string, x, y Expr) *BinExpr {
	return &BinExpr{Op: op, X: x, Y: y}
}

func TestExprStringPrecedence(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{bin("+", id("a"), bin("*", id("b"), id("c"))), "a + b * c"},
		{bin("*", bin("+", id("a"), id("b")), id("c")), "(a + b) * c"},
		{bin("-", id("a"), bin("-", id("b"), id("c"))), "a - (b - c)"},
		{bin("-", bin("-", id("a"), id("b")), id("c")), "a - b - c"},
		{&UnaryExpr{Op: "-", X: id("a")}, "-a"},
		{&ArrayRef{Name: "x", Subs: []Expr{bin("+", id("k"), lit(10))}}, "x(k + 10)"},
		{&RangeExpr{Lo: lit(1), Hi: id("n")}, "1:n"},
		{&RangeExpr{Lo: lit(1), Hi: id("n"), Stride: lit(2)}, "1:n:2"},
		{&Ellipsis{}, "..."},
		{bin("<", id("i"), id("n")), "i < n"},
	}
	for _, c := range cases {
		if got := ExprString(c.e); got != c.want {
			t.Errorf("ExprString = %q, want %q", got, c.want)
		}
	}
}

func TestStmtPrinting(t *testing.T) {
	d := NewDo(Pos{}, "i", lit(1), id("n"),
		NewAssign(Pos{}, &ArrayRef{Name: "x", Subs: []Expr{id("i")}}, &Ellipsis{}))
	d.SetLabel("77")
	got := StmtsString([]Stmt{d})
	want := "77 do i = 1, n\n    x(i) = ...\nenddo\n"
	if got != want {
		t.Errorf("printed:\n%q\nwant:\n%q", got, want)
	}
}

func TestLogicalIfPrinting(t *testing.T) {
	s := NewIf(Pos{}, id("c"), []Stmt{NewGoto(Pos{}, "9")}, nil)
	if got := StmtsString([]Stmt{s}); got != "if (c) goto 9\n" {
		t.Errorf("logical if prints as %q", got)
	}
}

func TestCommPrinting(t *testing.T) {
	c := &Comm{Op: "READ", Half: "Send", Args: []Expr{
		&ArrayRef{Name: "x", Subs: []Expr{&RangeExpr{Lo: lit(11), Hi: bin("+", id("n"), lit(10))}}},
	}}
	if got := strings.TrimSpace(StmtsString([]Stmt{c})); got != "READ_Send{x(11:n + 10)}" {
		t.Errorf("comm prints as %q", got)
	}
	a := &Comm{Op: "WRITE", Args: []Expr{id("q")}}
	if got := strings.TrimSpace(StmtsString([]Stmt{a})); got != "WRITE{q}" {
		t.Errorf("atomic comm prints as %q", got)
	}
}

func TestWalkAndCollect(t *testing.T) {
	e := bin("+", &ArrayRef{Name: "x", Subs: []Expr{&ArrayRef{Name: "a", Subs: []Expr{id("k")}}}}, id("m"))
	refs := ArrayRefs(e)
	if len(refs) != 2 || refs[0].Name != "x" || refs[1].Name != "a" {
		t.Fatalf("ArrayRefs = %v", refs)
	}
	ids := Idents(e)
	if len(ids) != 2 {
		t.Fatalf("Idents = %v", ids)
	}
}

func TestWalkStmtsPruning(t *testing.T) {
	inner := NewAssign(Pos{}, id("x"), lit(1))
	loop := NewDo(Pos{}, "i", lit(1), id("n"), inner)
	seen := 0
	WalkStmts([]Stmt{loop}, func(s Stmt) bool {
		seen++
		return false // do not descend
	})
	if seen != 1 {
		t.Fatalf("pruned walk visited %d statements, want 1", seen)
	}
}

func TestCloneExprDeep(t *testing.T) {
	orig := &ArrayRef{Name: "x", Subs: []Expr{bin("+", id("k"), lit(1))}}
	c := CloneExpr(orig).(*ArrayRef)
	c.Subs[0].(*BinExpr).Op = "-"
	if orig.Subs[0].(*BinExpr).Op != "+" {
		t.Fatal("CloneExpr aliases sub-expressions")
	}
}

func TestProgramDecls(t *testing.T) {
	p := NewProgram("t")
	p.Declare(&ArrayDecl{Name: "x", Dims: []Expr{lit(10)}, Dist: Block})
	p.Declare(&ArrayDecl{Name: "y", Dims: []Expr{lit(10)}, Dist: Local})
	if !p.Distributed("x") || p.Distributed("y") || p.Distributed("zz") {
		t.Fatal("Distributed lookup wrong")
	}
	// redeclaration replaces
	p.Declare(&ArrayDecl{Name: "x", Dims: []Expr{lit(20)}, Dist: Cyclic})
	if len(p.Decls) != 2 {
		t.Fatalf("redeclaration duplicated: %d decls", len(p.Decls))
	}
	if p.Decl("x").Dist != Cyclic {
		t.Fatal("redeclaration did not replace")
	}
}

func TestDistributionString(t *testing.T) {
	if Local.String() != "local" || Block.String() != "block" || Cyclic.String() != "cyclic" {
		t.Fatal("Distribution strings wrong")
	}
}

func TestPosString(t *testing.T) {
	if (Pos{}).String() != "-" {
		t.Fatal("zero Pos should print as -")
	}
	if (Pos{Line: 3, Col: 7}).String() != "3:7" {
		t.Fatal("Pos format wrong")
	}
}

// TestExprStringAllKinds pins the printer's output on the edge cases
// of every expression kind, and on statements whose label is wider than
// their indentation.
func TestExprStringAllKinds(t *testing.T) {
	neg := func(x Expr) Expr { return &UnaryExpr{Op: "-", X: x} }
	not := func(x Expr) Expr { return &UnaryExpr{Op: ".not.", X: x} }
	ref := func(name string, subs ...Expr) Expr { return &ArrayRef{Name: name, Subs: subs} }
	rng := func(lo, hi, stride Expr) Expr { return &RangeExpr{Lo: lo, Hi: hi, Stride: stride} }
	cases := []struct {
		e    Expr
		want string
	}{
		{nil, ""},
		{lit(0), "0"},
		{lit(-7), "-7"},
		{lit(-9223372036854775808), "-9223372036854775808"},
		{neg(neg(id("a"))), "--a"},
		{neg(lit(-3)), "--3"},
		{not(not(id("p"))), ".not. .not. p"},
		{neg(not(id("p"))), "-.not. p"},
		{not(bin("<", id("i"), id("n"))), ".not. (i < n)"},
		{neg(bin("+", id("a"), id("b"))), "-(a + b)"},
		{neg(ref("x", id("i"))), "-x(i)"},
		{ref("x", ref("a", rng(lit(1), id("n"), nil))), "x(a(1:n))"},
		{ref("x", ref("a", rng(lit(1), id("n"), lit(2)))), "x(a(1:n:2))"},
		{ref("x", rng(bin("+", id("k"), lit(1)), bin("*", id("n"), lit(2)), neg(lit(1)))), "x(k + 1:n * 2:-1)"},
		{ref("x", rng(bin(".and.", id("p"), id("q")), bin("<", id("a"), id("b")), nil)), "x((p .and. q):(a < b))"},
		{ref("y", id("i"), bin("+", id("j"), lit(1)), &Ellipsis{}), "y(i, j + 1, ...)"},
		{ref("z"), "z()"},
		{bin("*", bin("+", id("a"), id("b")), bin("-", id("c"), id("d"))), "(a + b) * (c - d)"},
		{bin("/", id("a"), bin("*", id("b"), id("c"))), "a / (b * c)"},
		{bin("-", neg(id("a")), neg(id("b"))), "-a - -b"},
		{bin(".and.", bin(".or.", id("p"), id("q")), bin(".or.", id("r"), id("s"))), "(p .or. q) .and. (r .or. s)"},
		{bin(".or.", bin(".and.", id("p"), id("q")), bin(".and.", id("r"), id("s"))), "p .and. q .or. r .and. s"},
		{bin("<=", bin("+", id("a"), lit(1)), bin("*", id("b"), lit(-2))), "a + 1 <= b * -2"},
		{bin("==", bin("<", id("a"), id("b")), id("c")), "a < b == c"},
		{bin("!=", id("a"), bin(">=", id("b"), id("c"))), "a != (b >= c)"},
	}
	for _, c := range cases {
		if got := ExprString(c.e); got != c.want {
			t.Errorf("ExprString = %q, want %q", got, c.want)
		}
	}

	assign := func(label string, lhs Expr) Stmt {
		s := NewAssign(Pos{}, lhs, lit(0))
		s.SetLabel(label)
		return s
	}
	inner := NewDo(Pos{}, "j", lit(1), id("n"),
		assign("123456789", id("t")),
		assign("7", ref("x", id("j"))),
		&Comm{Op: "WRITE", Reduce: "SUM", Half: "Recv", Args: []Expr{ref("x", rng(lit(1), id("n"), nil)), id("s")}})
	inner.SetLabel("12345678")
	inner.Step = neg(lit(1))
	outer := NewDo(Pos{}, "i", lit(1), id("n"), assign("1234", id("u")), inner)
	cont := &Continue{}
	cont.SetLabel("99")
	g := NewGoto(Pos{}, "99")
	g.SetLabel("5")
	iff := NewIf(Pos{}, not(id("p")), []Stmt{g}, nil)
	iff.SetLabel("42")
	p := NewProgram("edges")
	p.Declare(&ArrayDecl{Name: "x", Dims: []Expr{lit(100)}, Dist: Block})
	p.Declare(&ArrayDecl{Name: "w", Dims: []Expr{id("n"), bin("+", id("m"), lit(1))}})
	p.Declare(&ArrayDecl{Name: "e"})
	p.Body = []Stmt{outer, iff, cont}
	want := "distributed x(100)\n" +
		"real w(n, m + 1)\n" +
		"real e()\n" +
		"\n" +
		"do i = 1, n\n" +
		"1234 u = 0\n" +
		"12345678 do j = 1, n, -1\n" +
		"123456789 t = 0\n" +
		"7       x(j) = 0\n" +
		"        WRITE_SUM_Recv{x(1:n), s}\n" +
		"    enddo\n" +
		"enddo\n" +
		"42 if (.not. p) then\n" +
		"5   goto 99\n" +
		"endif\n" +
		"99 continue\n"
	if got := ProgramString(p); got != want {
		t.Errorf("ProgramString:\n%s\nwant:\n%s", got, want)
	}
}
