package frontend

import (
	"fmt"
	"strconv"

	"givetake/internal/ir"
)

// Parse parses a mini-Fortran program and runs the semantic checks
// (see Check). The dialect:
//
//	program heat                    ! optional
//	real x(1000)                    ! local array
//	distributed x(1000)             ! block-distributed array
//	do i = 1, n [, step] ... enddo
//	if cond then ... [else ...] endif       (parens around cond optional)
//	if (cond) goto 77                        (logical IF)
//	goto 77
//	77 continue                              (numeric statement labels)
//	lhs = rhs      with array refs x(a(k)+1) and '...' placeholders
func Parse(src string) (*ir.Program, error) {
	p := newParser(src)
	prog, err := p.program()
	if err := p.finish(err); err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseStmts parses a bare statement list (no declarations), for tests.
func ParseStmts(src string) ([]ir.Stmt, error) {
	p := newParser(src)
	p.skipNewlines()
	stmts, err := p.stmtList("")
	if err == nil && p.peek().Kind != TokEOF {
		err = p.errf("unexpected %s", p.peek())
	}
	if err := p.finish(err); err != nil {
		return nil, err
	}
	return stmts, nil
}

// parser is a recursive-descent parser over a token stream with two
// tokens of lookahead; la[:n] holds the tokens pulled from sc but not
// yet consumed.
type parser struct {
	sc scanner
	la [2]Token
	n  int
}

func newParser(src string) *parser {
	return &parser{sc: scanner{src: src, line: 1, col: 1}}
}

func (p *parser) peek() Token {
	if p.n == 0 {
		p.la[0] = p.sc.next()
		p.n = 1
	}
	return p.la[0]
}

func (p *parser) peek2() Token {
	p.peek()
	if p.n == 1 {
		p.la[1] = p.sc.next()
		p.n = 2
	}
	return p.la[1]
}

func (p *parser) next() Token {
	t := p.peek()
	if t.Kind != TokEOF {
		p.la[0] = p.la[1]
		p.n--
	}
	return t
}

// finish settles the outcome of a parse whose own error is err. A lex
// error anywhere in the source wins, as if the whole source had been
// lexed before parsing: on a parse error the rest of the source is
// scanned for one.
func (p *parser) finish(err error) error {
	if err != nil {
		for p.sc.next().Kind != TokEOF {
		}
	}
	if p.sc.err != nil {
		return p.sc.err
	}
	return err
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{p.peek().Pos, fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k TokenKind) (Token, error) {
	if p.peek().Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.peek())
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.Kind != TokIdent || t.Text != kw {
		return p.errf("expected %q, found %s", kw, t)
	}
	p.next()
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokIdent && t.Text == kw
}

func (p *parser) skipNewlines() {
	for p.peek().Kind == TokNewline {
		p.next()
	}
}

func (p *parser) endOfStmt() error {
	switch p.peek().Kind {
	case TokNewline:
		p.next()
		return nil
	case TokEOF:
		return nil
	default:
		return p.errf("expected end of statement, found %s", p.peek())
	}
}

func (p *parser) program() (*ir.Program, error) {
	prog := ir.NewProgram("main")
	p.skipNewlines()
	if p.atKeyword("program") {
		p.next()
		t, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		prog.Name = t.Text
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		p.skipNewlines()
	}
	// declarations
	for p.atKeyword("real") || p.atKeyword("distributed") {
		dist := ir.Local
		if p.atKeyword("distributed") {
			dist = ir.Block
		}
		pos := p.next().Pos
		for {
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			dims := []ir.Expr{&ir.IntLit{Position: name.Pos, Value: 1}}
			if p.peek().Kind == TokLParen {
				p.next()
				dims = dims[:0]
				for {
					d, err := p.expr()
					if err != nil {
						return nil, err
					}
					dims = append(dims, d)
					if p.peek().Kind != TokComma {
						break
					}
					p.next()
				}
				if _, err := p.expect(TokRParen); err != nil {
					return nil, err
				}
			}
			prog.Declare(&ir.ArrayDecl{Position: pos, Name: name.Text, Dims: dims, Dist: dist})
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		p.skipNewlines()
	}
	body, err := p.stmtList("")
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected %s", p.peek())
	}
	prog.Body = body
	return prog, nil
}

// terminators for a statement list, keyed by context keyword.
func isTerminator(t Token, ctx string) bool {
	if t.Kind == TokEOF {
		return true
	}
	if t.Kind != TokIdent {
		return false
	}
	switch ctx {
	case "do":
		return t.Text == "enddo"
	case "then":
		return t.Text == "else" || t.Text == "endif"
	case "else":
		return t.Text == "endif"
	default:
		return t.Text == "end"
	}
}

func (p *parser) stmtList(ctx string) ([]ir.Stmt, error) {
	var stmts []ir.Stmt
	for {
		p.skipNewlines()
		if isTerminator(p.peek(), ctx) {
			return stmts, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
}

func (p *parser) stmt() (ir.Stmt, error) {
	label := ""
	if p.peek().Kind == TokInt && p.peek2().Kind == TokIdent {
		label = p.next().Text
	}
	s, err := p.bareStmt()
	if err != nil {
		return nil, err
	}
	if label != "" {
		s.SetLabel(label)
	}
	return s, nil
}

func (p *parser) bareStmt() (ir.Stmt, error) {
	t := p.peek()
	switch {
	case t.Kind == TokIdent && t.Text == "do":
		return p.doStmt()
	case t.Kind == TokIdent && t.Text == "if":
		return p.ifStmt()
	case t.Kind == TokIdent && t.Text == "goto":
		p.next()
		tgt, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		g := ir.NewGoto(t.Pos, tgt.Text)
		return g, p.endOfStmt()
	case t.Kind == TokIdent && t.Text == "continue":
		p.next()
		c := &ir.Continue{}
		c.Position = t.Pos
		return c, p.endOfStmt()
	case t.Kind == TokIdent || t.Kind == TokEllipsis:
		return p.assignStmt()
	default:
		return nil, p.errf("expected statement, found %s", t)
	}
}

func (p *parser) doStmt() (ir.Stmt, error) {
	pos := p.next().Pos // "do"
	v, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	var step ir.Expr
	if p.peek().Kind == TokComma {
		p.next()
		if step, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	body, err := p.stmtList("do")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("enddo"); err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	d := ir.NewDo(pos, v.Text, lo, hi, body...)
	d.Step = step
	return d, nil
}

func (p *parser) ifStmt() (ir.Stmt, error) {
	pos := p.next().Pos // "if"
	paren := p.peek().Kind == TokLParen
	if paren {
		p.next()
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if paren {
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	// logical IF: "if (c) goto 77"
	if p.atKeyword("goto") {
		p.next()
		tgt, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		return ir.NewIf(pos, cond, []ir.Stmt{ir.NewGoto(pos, tgt.Text)}, nil), nil
	}
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	then, err := p.stmtList("then")
	if err != nil {
		return nil, err
	}
	var els []ir.Stmt
	if p.atKeyword("else") {
		p.next()
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		if els, err = p.stmtList("else"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("endif"); err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return ir.NewIf(pos, cond, then, els), nil
}

func (p *parser) assignStmt() (ir.Stmt, error) {
	pos := p.peek().Pos
	lhs, err := p.primary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	switch lhs.(type) {
	case *ir.Ident, *ir.ArrayRef, *ir.Ellipsis:
	default:
		return nil, &Error{pos, "left-hand side must be a variable, array reference, or '...'"}
	}
	return ir.NewAssign(pos, lhs, rhs), p.endOfStmt()
}

// expr parses with precedence climbing: .or. < .and. < rel < add < mul.
func (p *parser) expr() (ir.Expr, error) { return p.binary(1) }

var binOps = map[string]int{
	".or.": 1, ".and.": 2,
	"<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
	"+": 4, "-": 4, "*": 5, "/": 5,
}

func (p *parser) binary(minPrec int) (ir.Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokOp {
			return lhs, nil
		}
		prec, ok := binOps[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &ir.BinExpr{Position: t.Pos, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *parser) unary() (ir.Expr, error) {
	t := p.peek()
	if t.Kind == TokOp && (t.Text == "-" || t.Text == ".not.") {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &ir.UnaryExpr{Position: t.Pos, Op: t.Text, X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (ir.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokEllipsis:
		p.next()
		return &ir.Ellipsis{Position: t.Pos}, nil
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &Error{t.Pos, "integer literal out of range"}
		}
		return &ir.IntLit{Position: t.Pos, Value: v}, nil
	case TokLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		p.next()
		if p.peek().Kind != TokLParen {
			return &ir.Ident{Position: t.Pos, Name: t.Text}, nil
		}
		p.next() // '('
		var subs []ir.Expr
		for {
			sub, err := p.subscript()
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &ir.ArrayRef{Position: t.Pos, Name: t.Text, Subs: subs}, nil
	default:
		return nil, p.errf("expected expression, found %s", t)
	}
}

// subscript parses one subscript, which may be a triplet lo:hi[:stride].
func (p *parser) subscript() (ir.Expr, error) {
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokColon {
		return lo, nil
	}
	pos := p.next().Pos
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	r := &ir.RangeExpr{Position: pos, Lo: lo, Hi: hi}
	if p.peek().Kind == TokColon {
		p.next()
		if r.Stride, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return r, nil
}
