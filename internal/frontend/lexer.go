// Package frontend lexes and parses the mini-Fortran dialect used by the
// GIVE-N-TAKE paper's figures and checks the structural restrictions the
// interval flow graph relies on (forward, loop-exiting GOTOs only).
package frontend

import (
	"fmt"
	"strings"

	"givetake/internal/ir"
)

// TokenKind enumerates lexical token classes.
type TokenKind int

const (
	TokEOF TokenKind = iota
	TokNewline
	TokIdent
	TokInt
	TokEllipsis // ...
	TokLParen
	TokRParen
	TokComma
	TokColon
	TokAssign // =
	TokOp     // + - * / < <= > >= == != .and. .or. .not.
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokNewline:
		return "newline"
	case TokIdent:
		return "identifier"
	case TokInt:
		return "integer"
	case TokEllipsis:
		return "'...'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokComma:
		return "','"
	case TokColon:
		return "':'"
	case TokAssign:
		return "'='"
	case TokOp:
		return "operator"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Text string
	Pos  ir.Pos
}

func (t Token) String() string {
	if t.Text != "" {
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	}
	return t.Kind.String()
}

// Error is a frontend diagnostic with a source position.
type Error struct {
	Pos ir.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// dotOps maps Fortran dot-operators to the canonical symbolic spelling.
var dotOps = map[string]string{
	".lt.": "<", ".le.": "<=", ".gt.": ">", ".ge.": ">=",
	".eq.": "==", ".ne.": "!=", ".and.": ".and.", ".or.": ".or.", ".not.": ".not.",
}

// Lex splits src into tokens. Comments run from '!' to end of line.
// Fortran is case-insensitive; identifiers are lowered. The parser does
// not call Lex: it pulls tokens from the same scanner one at a time, so
// no token slice is built on the compile path.
func Lex(src string) ([]Token, error) {
	s := scanner{src: src, line: 1, col: 1}
	var toks []Token
	for {
		t := s.next()
		if s.err != nil {
			return nil, s.err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// scanner produces the tokens of src one at a time. At the end of the
// source, and from a lex error on, next returns TokEOF; err holds the
// lex error.
type scanner struct {
	src       string
	i         int
	line, col int
	err       error
}

func (s *scanner) tok(k TokenKind, text string, startCol int) Token {
	return Token{Kind: k, Text: text, Pos: ir.Pos{Line: s.line, Col: startCol}}
}

func (s *scanner) fail(msg string) Token {
	s.err = &Error{ir.Pos{Line: s.line, Col: s.col}, msg}
	return s.tok(TokEOF, "", s.col)
}

// next returns the next token.
func (s *scanner) next() Token {
	src := s.src
	for s.err == nil && s.i < len(src) {
		c := src[s.i]
		switch {
		case c == '\n':
			t := s.tok(TokNewline, "", s.col)
			s.line++
			s.col = 1
			s.i++
			return t
		case c == ';':
			t := s.tok(TokNewline, "", s.col)
			s.i++
			s.col++
			return t
		case c == ' ' || c == '\t' || c == '\r':
			s.i++
			s.col++
		case c == '!':
			if s.i+1 < len(src) && src[s.i+1] == '=' {
				t := s.tok(TokOp, "!=", s.col)
				s.i += 2
				s.col += 2
				return t
			}
			for s.i < len(src) && src[s.i] != '\n' {
				s.i++
				s.col++
			}
		case c >= '0' && c <= '9':
			start, startCol := s.i, s.col
			for s.i < len(src) && src[s.i] >= '0' && src[s.i] <= '9' {
				s.i++
				s.col++
			}
			return s.tok(TokInt, src[start:s.i], startCol)
		case isIdentStart(c):
			start, startCol := s.i, s.col
			for s.i < len(src) && isIdentPart(src[s.i]) {
				s.i++
				s.col++
			}
			return s.tok(TokIdent, strings.ToLower(src[start:s.i]), startCol)
		case c == '.':
			if strings.HasPrefix(src[s.i:], "...") {
				t := s.tok(TokEllipsis, "...", s.col)
				s.i += 3
				s.col += 3
				return t
			}
			// dot operator like .lt.
			end := strings.IndexByte(src[s.i+1:], '.')
			if end >= 0 {
				word := strings.ToLower(src[s.i : s.i+end+2])
				if op, ok := dotOps[word]; ok {
					t := s.tok(TokOp, op, s.col)
					s.i += end + 2
					s.col += end + 2
					return t
				}
			}
			return s.fail("unexpected '.'")
		default:
			startCol := s.col
			two := ""
			if s.i+1 < len(src) {
				two = src[s.i : s.i+2]
			}
			k, text, width := TokOp, "", 1
			switch {
			case two == "<=" || two == ">=" || two == "==" || two == "!=" || two == "/=":
				text, width = two, 2
				if two == "/=" {
					text = "!="
				}
			case c == '(':
				k, text = TokLParen, "("
			case c == ')':
				k, text = TokRParen, ")"
			case c == ',':
				k, text = TokComma, ","
			case c == ':':
				k, text = TokColon, ":"
			case c == '=':
				k, text = TokAssign, "="
			case c == '+' || c == '-' || c == '*' || c == '/' || c == '<' || c == '>':
				text = src[s.i : s.i+1]
			default:
				return s.fail(fmt.Sprintf("unexpected character %q", c))
			}
			s.i += width
			s.col += width
			return s.tok(k, text, startCol)
		}
	}
	return s.tok(TokEOF, "", s.col)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
