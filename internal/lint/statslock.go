package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StatsLock flags writes to mutex-guarded struct fields made without
// holding the mutex — the PR 6 cache-stats race, where a miss counter
// and its store were committed in separate critical sections and a
// concurrent snapshot could observe the entry without its miss.
//
// Guard discovery, per struct with a sync.Mutex/RWMutex field:
//
//   - when the mutex's comment names fields ("mu guards pending +
//     stats"), exactly those siblings are guarded;
//   - otherwise every field declared after the mutex (up to the next
//     mutex field) is guarded — the standard Go layout convention.
//
// A write recv.f = ... (or recv.f++, recv.f[k] = ..., append into
// recv.f) inside a method is flagged unless a recv.mu.Lock() appears
// lexically before it with no intervening Unlock, or the method's name
// ends in "Locked" (the documented caller-holds-the-lock convention).
// Holding only RLock does not license a write. Lock tracking is
// branch-aware: an Unlock inside an early-exit branch does not release
// the lock on the fall-through path, and a lock held on any continuing
// branch of an if/switch is treated as held afterwards (erring toward
// silence over false alarms).
var StatsLock = &Analyzer{
	Name: "statslock",
	Doc: "mutex-guarded struct field written without holding the " +
		"mutex (or under RLock only)",
	Run: runStatsLock,
}

// guardInfo maps each guarded field object to its mutex field name.
type guardInfo map[types.Object]string

func runStatsLock(p *Pass) {
	guards := p.collectGuards()
	if len(guards) == 0 {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			recv := p.receiverObj(fd)
			if recv == nil {
				continue
			}
			p.checkMethodWrites(fd, recv, guards)
		}
	}
}

// receiverObj returns the receiver variable object of fd, or nil.
func (p *Pass) receiverObj(fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Recv.List {
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

// collectGuards builds the guarded-field table for every struct
// declared in this package.
func (p *Pass) collectGuards() guardInfo {
	guards := guardInfo{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			p.guardsForStruct(st, guards)
			return true
		})
	}
	return guards
}

func (p *Pass) guardsForStruct(st *ast.StructType, guards guardInfo) {
	type mutexField struct {
		name    string
		comment string
		index   int // position in st.Fields.List
	}
	var mutexes []mutexField
	fieldNames := map[string]types.Object{}
	for i, field := range st.Fields.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			if isMutexType(obj.Type()) {
				mutexes = append(mutexes, mutexField{
					name:    name.Name,
					comment: fieldComment(field),
					index:   i,
				})
			} else {
				fieldNames[name.Name] = obj
			}
		}
	}
	for mi, m := range mutexes {
		// explicit comment ("guards x + y", "protects a, b") wins
		if named := namedGuardFields(m.comment, fieldNames); len(named) > 0 {
			for _, obj := range named {
				guards[obj] = m.name
			}
			continue
		}
		// positional convention: fields below the mutex, up to the next
		// mutex field
		end := len(st.Fields.List)
		if mi+1 < len(mutexes) {
			end = mutexes[mi+1].index
		}
		for i := m.index + 1; i < end; i++ {
			for _, name := range st.Fields.List[i].Names {
				if obj := p.Info.Defs[name]; obj != nil && !isMutexType(obj.Type()) {
					guards[obj] = m.name
				}
			}
		}
	}
}

// namedGuardFields parses a mutex comment for sibling field names
// following a "guards"/"protects" keyword.
func namedGuardFields(comment string, fields map[string]types.Object) []types.Object {
	lower := strings.ToLower(comment)
	idx := strings.Index(lower, "guards")
	if i := strings.Index(lower, "protects"); idx < 0 || (i >= 0 && i < idx) {
		idx = i
	}
	if idx < 0 {
		return nil
	}
	var out []types.Object
	for _, word := range strings.FieldsFunc(comment[idx:], func(r rune) bool {
		return !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
	}) {
		if obj, ok := fields[word]; ok {
			out = append(out, obj)
		}
	}
	return out
}

func fieldComment(field *ast.Field) string {
	var parts []string
	if field.Doc != nil {
		parts = append(parts, field.Doc.Text())
	}
	if field.Comment != nil {
		parts = append(parts, field.Comment.Text())
	}
	return strings.Join(parts, " ")
}

// lockState tracks, per mutex field name, how deeply it is write- and
// read-held on the current path.
type lockState struct {
	lock, rlock map[string]int
}

func newLockState() *lockState {
	return &lockState{lock: map[string]int{}, rlock: map[string]int{}}
}

func (s *lockState) clone() *lockState {
	n := newLockState()
	for k, v := range s.lock {
		n.lock[k] = v
	}
	for k, v := range s.rlock {
		n.rlock[k] = v
	}
	return n
}

// mergeMax folds another continuing path in, keeping the deeper hold:
// a lock held on any continuing branch is treated as held afterwards.
// That errs toward silence (a branch-only Lock may mask a race on the
// other branch), which is the right default for a CI gate.
func (s *lockState) mergeMax(o *lockState) {
	for k, v := range o.lock {
		if v > s.lock[k] {
			s.lock[k] = v
		}
	}
	for k, v := range o.rlock {
		if v > s.rlock[k] {
			s.rlock[k] = v
		}
	}
}

// checkMethodWrites walks fd's body with branch-aware lock tracking —
// an Unlock inside an early-exit branch (the `if cached { mu.Unlock();
// return }` idiom) does not release the lock on the fall-through path —
// and reports guarded-field writes made while their mutex is not
// write-held.
func (p *Pass) checkMethodWrites(fd *ast.FuncDecl, recv types.Object, guards guardInfo) {
	checkWrite := func(lhs ast.Expr, st *lockState) {
		fieldObj, ok := p.recvField(lhs, recv)
		if !ok {
			return
		}
		mu, guarded := guards[fieldObj]
		if !guarded {
			return
		}
		if st.lock[mu] > 0 {
			return
		}
		if st.rlock[mu] > 0 {
			p.Reportf(lhs.Pos(),
				"write to %s-guarded field %q while holding only %s.RLock(); writers need Lock()",
				mu, fieldObj.Name(), mu)
			return
		}
		p.Reportf(lhs.Pos(),
			"field %q is guarded by %q but written without it held (no %s.Lock() before this write; name the method *Locked if the caller holds it)",
			fieldObj.Name(), mu, mu)
	}
	// applyExpr folds the mutex operations inside one expression into
	// the state (closure bodies run at an unknown lock state and are
	// skipped).
	applyExpr := func(e ast.Node, st *lockState) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if mu, op, ok := p.mutexOp(call, recv); ok {
					switch op {
					case "Lock":
						st.lock[mu]++
					case "Unlock":
						st.lock[mu]--
					case "RLock":
						st.rlock[mu]++
					case "RUnlock":
						st.rlock[mu]--
					}
				}
			}
			return true
		})
	}

	var walkStmts func(stmts []ast.Stmt, st *lockState) bool
	var walkStmt func(s ast.Stmt, st *lockState) bool
	walkStmts = func(stmts []ast.Stmt, st *lockState) bool {
		for _, s := range stmts {
			if walkStmt(s, st) {
				return true
			}
		}
		return false
	}
	// walkStmt returns true when the path terminates (return, branch,
	// panic) so callers can discard that branch's lock effects.
	walkStmt = func(s ast.Stmt, st *lockState) bool {
		switch s := s.(type) {
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				applyExpr(rhs, st)
			}
			for _, lhs := range s.Lhs {
				target := ast.Unparen(lhs)
				if idx, ok := target.(*ast.IndexExpr); ok {
					target = ast.Unparen(idx.X) // writes through a guarded map/slice
				}
				checkWrite(target, st)
			}
		case *ast.IncDecStmt:
			checkWrite(ast.Unparen(s.X), st)
		case *ast.ExprStmt:
			if isPanicCall(p, s.X) {
				return true
			}
			applyExpr(s.X, st)
		case *ast.DeferStmt:
			// defers run at exit; an Unlock in a defer does not release
			// the lock for the statements that follow
		case *ast.GoStmt:
			// runs elsewhere, at an unknown lock state
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				applyExpr(r, st)
			}
			return true
		case *ast.BranchStmt:
			return s.Tok != token.FALLTHROUGH
		case *ast.BlockStmt:
			return walkStmts(s.List, st)
		case *ast.IfStmt:
			if s.Init != nil {
				walkStmt(s.Init, st)
			}
			applyExpr(s.Cond, st)
			thenSt, elseSt := st.clone(), st.clone()
			thenTerm := walkStmts(s.Body.List, thenSt)
			elseTerm := false
			if s.Else != nil {
				elseTerm = walkStmt(s.Else, elseSt)
			}
			switch {
			case thenTerm && elseTerm:
				return true
			case thenTerm:
				*st = *elseSt
			case elseTerm:
				*st = *thenSt
			default:
				*st = *thenSt
				st.mergeMax(elseSt)
			}
		case *ast.ForStmt:
			if s.Init != nil {
				walkStmt(s.Init, st)
			}
			applyExpr(s.Cond, st)
			body := st.clone()
			if !walkStmts(s.Body.List, body) {
				if s.Post != nil {
					walkStmt(s.Post, body)
				}
				st.mergeMax(body)
			}
		case *ast.RangeStmt:
			applyExpr(s.X, st)
			body := st.clone()
			if !walkStmts(s.Body.List, body) {
				st.mergeMax(body)
			}
		case *ast.SwitchStmt:
			if s.Init != nil {
				walkStmt(s.Init, st)
			}
			applyExpr(s.Tag, st)
			walkClauses(p, s.Body.List, st, walkStmts, applyExpr)
		case *ast.TypeSwitchStmt:
			if s.Init != nil {
				walkStmt(s.Init, st)
			}
			walkClauses(p, s.Body.List, st, walkStmts, applyExpr)
		case *ast.SelectStmt:
			walkClauses(p, s.Body.List, st, walkStmts, applyExpr)
		case *ast.LabeledStmt:
			return walkStmt(s.Stmt, st)
		}
		return false
	}
	walkStmts(fd.Body.List, newLockState())
}

// walkClauses merges switch/select clauses with mergeMax over the
// continuing branches.
func walkClauses(p *Pass, clauses []ast.Stmt, st *lockState,
	walkStmts func([]ast.Stmt, *lockState) bool, applyExpr func(ast.Node, *lockState)) {
	merged := st.clone()
	for _, c := range clauses {
		cs := st.clone()
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				applyExpr(e, cs)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				applyExpr(c.Comm, cs)
			}
			body = c.Body
		}
		if !walkStmts(body, cs) {
			merged.mergeMax(cs)
		}
	}
	*st = *merged
}

// recvField matches expr against recv.field and returns the field
// object.
func (p *Pass) recvField(expr ast.Expr, recv types.Object) (types.Object, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || p.Info.Uses[base] != recv {
		return nil, false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil {
		return nil, false
	}
	return obj, true
}

// mutexOp matches recv.mu.Lock()-shaped calls and returns the mutex
// field name and operation.
func (p *Pass) mutexOp(call *ast.CallExpr, recv types.Object) (mu, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	inner, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	base, isIdent := ast.Unparen(inner.X).(*ast.Ident)
	if !isIdent || p.Info.Uses[base] != recv {
		return "", "", false
	}
	fieldObj := p.Info.Uses[inner.Sel]
	if fieldObj == nil || !isMutexType(fieldObj.Type()) {
		return "", "", false
	}
	return inner.Sel.Name, sel.Sel.Name, true
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isMutexType(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// isPanicCall reports whether e is a call of the panic builtin.
func isPanicCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
