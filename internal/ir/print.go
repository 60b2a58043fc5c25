package ir

import "strconv"

// precedence levels for expression printing; higher binds tighter.
func prec(op string) int {
	switch op {
	case ".or.":
		return 1
	case ".and.":
		return 2
	case "<", "<=", ">", ">=", "==", "!=":
		return 3
	case "+", "-":
		return 4
	case "*", "/":
		return 5
	default:
		return 6
	}
}

// ExprString renders an expression in the paper's surface syntax. A
// name or a literal renders without building a buffer.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *Ident:
		return e.Name
	case *IntLit:
		return strconv.FormatInt(e.Value, 10)
	}
	return string(appendExpr(make([]byte, 0, 32), e, 0))
}

// appendExpr appends e to b, parenthesized if it binds looser than
// outer.
func appendExpr(b []byte, e Expr, outer int) []byte {
	switch e := e.(type) {
	case nil:
		return b
	case *Ident:
		return append(b, e.Name...)
	case *IntLit:
		return strconv.AppendInt(b, e.Value, 10)
	case *Ellipsis:
		return append(b, "..."...)
	case *UnaryExpr:
		b = append(b, e.Op...)
		if e.Op == ".not." {
			b = append(b, ' ')
		}
		return appendExpr(b, e.X, 6)
	case *BinExpr:
		p := prec(e.Op)
		if p < outer {
			b = append(b, '(')
		}
		b = appendExpr(b, e.X, p)
		b = append(b, ' ')
		b = append(b, e.Op...)
		b = append(b, ' ')
		b = appendExpr(b, e.Y, p+1)
		if p < outer {
			b = append(b, ')')
		}
		return b
	case *ArrayRef:
		b = append(b, e.Name...)
		return appendList(append(b, '('), e.Subs, ')')
	case *RangeExpr:
		b = appendExpr(b, e.Lo, 4)
		b = append(b, ':')
		b = appendExpr(b, e.Hi, 4)
		if e.Stride != nil {
			b = append(b, ':')
			b = appendExpr(b, e.Stride, 4)
		}
		return b
	default:
		panic("ir: ExprString: unknown expression type")
	}
}

// appendList appends es separated by ", ", then close.
func appendList(b []byte, es []Expr, close byte) []byte {
	for i, x := range es {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendExpr(b, x, 0)
	}
	return append(b, close)
}

// Printer renders programs and statement lists as mini-Fortran text.
type Printer struct {
	// Indent is the per-level indentation; defaults to four spaces.
	Indent string
	b      []byte
}

// ProgramString renders a whole program, declarations first.
func ProgramString(p *Program) string {
	var pr Printer
	return pr.Program(p)
}

// StmtsString renders a statement list at indent level 0.
func StmtsString(stmts []Stmt) string {
	var pr Printer
	pr.stmts(stmts, 0)
	return string(pr.b)
}

// bytesPerStmt sizes a program's output buffer: about what one
// statement of a generated program prints as, indentation included.
const bytesPerStmt = 24

// Program renders a whole program.
func (pr *Printer) Program(p *Program) string {
	pr.b = make([]byte, 0, bytesPerStmt*(len(p.Decls)+countStmts(p.Body)))
	for _, d := range p.Decls {
		if d.Dist != Local {
			pr.b = append(pr.b, "distributed "...)
		} else {
			pr.b = append(pr.b, "real "...)
		}
		pr.b = append(pr.b, d.Name...)
		pr.b = appendList(append(pr.b, '('), d.Dims, ')')
		pr.b = append(pr.b, '\n')
	}
	if len(p.Decls) > 0 {
		pr.b = append(pr.b, '\n')
	}
	pr.stmts(p.Body, 0)
	return string(pr.b)
}

// countStmts counts the statements of a list and of every nested list.
func countStmts(stmts []Stmt) int {
	n := len(stmts)
	for _, s := range stmts {
		switch s := s.(type) {
		case *Do:
			n += 1 + countStmts(s.Body)
		case *If:
			n += 2 + countStmts(s.Then) + countStmts(s.Else)
		}
	}
	return n
}

func (pr *Printer) indent() string {
	if pr.Indent == "" {
		return "    "
	}
	return pr.Indent
}

// lead starts a line at the given level: the label flush left
// (Fortran-style) then padding, or plain indentation.
func (pr *Printer) lead(level int, label string) {
	ind := pr.indent()
	if label == "" {
		for i := 0; i < level; i++ {
			pr.b = append(pr.b, ind...)
		}
		return
	}
	pr.b = append(pr.b, label...)
	pr.b = append(pr.b, ' ')
	for pad := len(ind)*level - len(label) - 1; pad > 0; pad-- {
		pr.b = append(pr.b, ' ')
	}
}

// line appends a whole line holding text.
func (pr *Printer) line(level int, label, text string) {
	pr.lead(level, label)
	pr.b = append(pr.b, text...)
	pr.b = append(pr.b, '\n')
}

func (pr *Printer) stmts(stmts []Stmt, level int) {
	for _, s := range stmts {
		pr.stmt(s, level)
	}
}

func (pr *Printer) stmt(s Stmt, level int) {
	switch s := s.(type) {
	case *Assign:
		pr.lead(level, s.Label())
		pr.b = appendExpr(pr.b, s.LHS, 0)
		pr.b = append(pr.b, " = "...)
		pr.b = appendExpr(pr.b, s.RHS, 0)
		pr.b = append(pr.b, '\n')
	case *Do:
		pr.lead(level, s.Label())
		pr.b = append(pr.b, "do "...)
		pr.b = append(pr.b, s.Var...)
		pr.b = append(pr.b, " = "...)
		pr.b = appendExpr(pr.b, s.Lo, 0)
		pr.b = append(pr.b, ", "...)
		pr.b = appendExpr(pr.b, s.Hi, 0)
		if s.Step != nil {
			pr.b = append(pr.b, ", "...)
			pr.b = appendExpr(pr.b, s.Step, 0)
		}
		pr.b = append(pr.b, '\n')
		pr.stmts(s.Body, level+1)
		pr.line(level, "", "enddo")
	case *If:
		pr.lead(level, s.Label())
		pr.b = append(pr.b, "if ("...)
		pr.b = appendExpr(pr.b, s.Cond, 0)
		if len(s.Else) == 0 && len(s.Then) == 1 {
			if g, ok := s.Then[0].(*Goto); ok && s.Then[0].Label() == "" {
				pr.b = append(pr.b, ") goto "...)
				pr.b = append(pr.b, g.Target...)
				pr.b = append(pr.b, '\n')
				return
			}
		}
		pr.b = append(pr.b, ") then\n"...)
		pr.stmts(s.Then, level+1)
		if len(s.Else) > 0 {
			pr.line(level, "", "else")
			pr.stmts(s.Else, level+1)
		}
		pr.line(level, "", "endif")
	case *Goto:
		pr.lead(level, s.Label())
		pr.b = append(pr.b, "goto "...)
		pr.b = append(pr.b, s.Target...)
		pr.b = append(pr.b, '\n')
	case *Continue:
		pr.line(level, s.Label(), "continue")
	case *Comm:
		pr.lead(level, s.Label())
		pr.b = append(pr.b, s.Op...)
		if s.Reduce != "" {
			pr.b = append(pr.b, '_')
			pr.b = append(pr.b, s.Reduce...)
		}
		if s.Half != "" {
			pr.b = append(pr.b, '_')
			pr.b = append(pr.b, s.Half...)
		}
		pr.b = appendList(append(pr.b, '{'), s.Args, '}')
		pr.b = append(pr.b, '\n')
	default:
		panic("ir: Printer: unknown statement type")
	}
}
