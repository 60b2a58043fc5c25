package lint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"givetake/internal/obs"
)

// obsPath is the observability package whose name vocabulary this
// analyzer enforces.
const obsPath = "givetake/internal/obs"

// ObsNames flags span names that are not declared in
// internal/obs/names.go. The telemetry registry, the trace consumers,
// and the per-stage latency histograms all key on exactly that
// vocabulary, so an ad-hoc name at an emission site is silently
// invisible to every one of them. This is the old names_drift_test AST
// walk promoted to a type-aware analyzer: the obs package and the
// Collector interface resolve through go/types, so aliased imports,
// shadowed identifiers, and named string constants are all evaluated
// instead of pattern-matched.
var ObsNames = &Analyzer{
	Name: "obsnames",
	Doc: "span names passed to obs.Begin or a Collector's BeginSpan " +
		"must be declared in internal/obs/names.go",
	Run: runObsNames,
}

func runObsNames(p *Pass) {
	// The obs package itself declares the vocabulary (and its tests
	// deliberately probe unknown names).
	if p.Pkg != nil && p.Pkg.Path() == obsPath {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil {
				return true
			}
			var nameArg ast.Expr
			switch {
			case isPkgFunc(fn, obsPath, "Begin") && len(call.Args) >= 2:
				nameArg = call.Args[1]
			case fn.Name() == "BeginSpan" && p.implementsCollector(fn) && len(call.Args) >= 1:
				nameArg = call.Args[0]
			default:
				return true
			}
			tv, ok := p.Info.Types[nameArg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				// dynamic names ("execute:"+variant) must still start
				// with a declared prefix when their head is constant
				if lit, pre := constantPrefix(p.Info, nameArg); lit && !obs.KnownSpan(pre) {
					p.Reportf(nameArg.Pos(),
						"dynamic span name built from prefix %q, which is not declared in internal/obs/names.go", pre)
				}
				return true
			}
			name := constant.StringVal(tv.Value)
			if !obs.KnownSpan(name) {
				p.Reportf(nameArg.Pos(),
					"span name %q is not declared in internal/obs/names.go", name)
			}
			return true
		})
	}
}

// implementsCollector reports whether fn is a method whose receiver
// type implements obs.Collector — i.e. the call really feeds the
// observability layer, not a same-named method elsewhere.
func (p *Pass) implementsCollector(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	iface := collectorInterface(p)
	if iface == nil {
		return false
	}
	recv := sig.Recv().Type()
	return types.Implements(recv, iface) ||
		types.Implements(types.NewPointer(recv), iface)
}

// collectorInterface resolves obs.Collector through this package's
// import graph (nil when the package never touches obs, even
// indirectly — then no value in it can implement the interface
// relevantly anyway).
func collectorInterface(p *Pass) *types.Interface {
	seen := map[*types.Package]bool{}
	var find func(pkgs []*types.Package) *types.Interface
	find = func(pkgs []*types.Package) *types.Interface {
		for _, imp := range pkgs {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			if imp.Path() == obsPath {
				obj := imp.Scope().Lookup("Collector")
				if obj == nil {
					return nil
				}
				iface, _ := obj.Type().Underlying().(*types.Interface)
				return iface
			}
			if iface := find(imp.Imports()); iface != nil {
				return iface
			}
		}
		return nil
	}
	return find(p.Pkg.Imports())
}

// constantPrefix extracts the constant head of a name-building
// expression: for `prefix + variant` with a constant prefix it returns
// (true, prefix value). Non-concatenations report false.
func constantPrefix(info *types.Info, e ast.Expr) (bool, string) {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false, ""
	}
	tv, ok := info.Types[bin.X]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false, ""
	}
	return true, constant.StringVal(tv.Value)
}
