// Package lint is a stdlib-only static-analysis driver plus the
// repository's own analyzers: machine-checked versions of the
// concurrency and resource invariants that were previously enforced
// only by review (and, three times, by postmortem). The driver loads
// and type-checks packages offline — go/ast, go/types, and go/importer
// only, no golang.org/x/tools, no network — so `go run ./cmd/gntlint
// ./...` works in the same sandbox as the build itself.
//
// Findings print as "file:line:col: analyzer: message". A finding is
// suppressed by a
//
//	//lint:ignore <analyzer> <reason>
//
// comment on the offending line, or alone on the line directly above
// it. The reason is mandatory: an ignore without one does not
// suppress, and the driver reports the malformed directive itself.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name is the short identifier used in findings and ignore
	// directives.
	Name string
	// Doc is a one-line description followed, optionally, by details.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported violation.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

// String renders the canonical file:line:col: analyzer: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// All returns the full analyzer catalog, sorted by name. Every entry
// encodes one invariant of this repository; see each analyzer's Doc.
func All() []*Analyzer {
	return []*Analyzer{
		CtxPoll,
		ErrDrop,
		ObsNames,
		StatsLock,
		TimerLeak,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// --- shared AST helpers ---

// walkStack traverses every file of the pass in depth-first order,
// calling fn with each node and the stack of its ancestors (outermost
// first, not including n itself). Returning false prunes the subtree.
func (p *Pass) walkStack(fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			keep := fn(n, stack)
			if keep {
				stack = append(stack, n)
			}
			return keep
		})
	}
}

// calleeFunc resolves the called function object of call, looking
// through package qualifiers, method selections, and plain
// identifiers. Returns nil for indirect calls through function values
// and conversions.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether obj is the function name declared in the
// package with import path pkgPath. Exact object identity through
// go/types: aliased imports, shadowed names, same-named functions in
// other packages and same-named methods (time.Time.After is not
// time.After) all resolve correctly.
func isPkgFunc(obj *types.Func, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name &&
		obj.Type().(*types.Signature).Recv() == nil
}

// namedOrPointee unwraps pointers and returns the named type under t,
// or nil.
func namedOrPointee(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isNamedType reports whether t (possibly behind a pointer) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named := namedOrPointee(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
