package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// lockorder extends lockio's mutex tracking from "what happens inside a
// critical section" to "in what order critical sections nest". It
// builds a cross-function lock-acquisition graph over the locks that
// have stable identities — struct-field mutexes (keyed Type.field) and
// package-level mutexes (keyed pkg.var) — and reports:
//
//   - cycles: lock A is acquired while B is held on one path and B
//     while A is held on another (possibly through intermediate calls)
//     — the classic static deadlock candidate;
//   - re-acquisition: a mutex locked while the same mutex is already
//     held on the same path, directly or through a same-package call —
//     sync mutexes are not reentrant, so the path self-deadlocks the
//     first time it executes;
//   - select/lock inversion: a select case that communicates on a
//     channel C and acquires lock L in its body, when elsewhere in the
//     package C is sent or received while L is held — the peer parks
//     inside L's critical section waiting for this select, which is
//     waiting for L.
//
// The analysis is lexical per function (the same source-order
// critical-section tracking lockio uses) with transitive same-package
// call summaries: a call made under lock A contributes edges A → every
// lock the callee may acquire, and the callee's summary includes its
// own callees' acquisitions (fixpoint over the package call graph).
// Function literals are not entered — their bodies run on their own
// goroutine's schedule, so their acquisitions are not ordered against
// the spawning function's held set.
type lockorderChecker struct{}

// lockorderScope: the networked layers plus the telemetry packages —
// everywhere two mutexes with stable identities coexist.
var lockorderScope = []string{
	"internal/directory",
	"internal/wire",
	"internal/comm",
	"internal/exec",
	"internal/serve",
	"internal/obs",
	"cmd/hetpland",
	"cmd/hcload",
	"internal/calib",
}

func (lockorderChecker) Name() string { return "lockorder" }
func (lockorderChecker) Desc() string {
	return "no lock-order cycles, mutex re-acquisition, or select cases that lock a mutex guarding their own channel"
}

func (lockorderChecker) Run(pkg *Package) []Diagnostic {
	if !scoped(pkg, lockorderScope...) {
		return nil
	}
	lp := &lockorderPass{
		pkg:       pkg,
		direct:    map[*types.Func]map[string]token.Pos{},
		calls:     map[*types.Func]map[*types.Func]bool{},
		edges:     map[string]map[string]lockEdge{},
		chanLocks: map[string]map[string]token.Pos{},
		may:       map[*types.Func]map[string]bool{},
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			lp.fn = fn
			lp.fname = fd.Name.Name
			lp.walkStmts(fd.Body.List, nil)
		}
	}
	lp.callEdges()
	lp.reportCycles()
	lp.reportSelectHazards()
	return lp.out
}

// lockEdge is one observed ordering: the edge's target was acquired
// while its source was held, at pos, possibly through a call (via
// names the callee, "" for a direct acquisition).
type lockEdge struct {
	pos token.Pos
	via string
}

type lockorderPass struct {
	pkg   *Package
	fn    *types.Func // function being walked
	fname string

	direct    map[*types.Func]map[string]token.Pos // locks a function acquires directly
	calls     map[*types.Func]map[*types.Func]bool // same-package call graph
	edges     map[string]map[string]lockEdge       // from → to → first witness
	callSites []lockCallSite                       // calls made while locks were held
	selects   []selectSite                         // select clauses to re-check after chanLocks is complete
	chanLocks map[string]map[string]token.Pos      // channel key → locks held at some send/recv on it
	may       map[*types.Func]map[string]bool      // transitive acquisition summaries (memo)
	out       []Diagnostic
}

type lockCallSite struct {
	held   []string
	callee *types.Func
	pos    token.Pos
}

type selectSite struct {
	chanKey string
	clause  *ast.CommClause
}

// walkStmts walks a statement list in source order tracking the held
// lock set (ordered, outermost first). Nested control-flow bodies get a
// copy, matching lockio's lexical model.
func (lp *lockorderPass) walkStmts(list []ast.Stmt, held []string) {
	for _, s := range list {
		switch x := s.(type) {
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				if key, method, ok := lp.lockCall(call); ok {
					switch method {
					case "Lock", "RLock":
						lp.acquire(key, method, call.Pos(), held)
						held = append(held, key)
					case "Unlock", "RUnlock":
						held = removeLock(held, key)
					}
					continue
				}
			}
			lp.scanStmt(s, held)
		case *ast.DeferStmt:
			if key, method, ok := lp.lockCall(x.Call); ok && (method == "Unlock" || method == "RUnlock") {
				_ = key // defer mu.Unlock(): held to function end; nothing to do
				continue
			}
			// Other deferred work runs at return with an unknowable held
			// set; skip it, as lockio does.
		case *ast.GoStmt:
			// The spawned goroutine's acquisitions are not ordered
			// against this one's held set.
		case *ast.BlockStmt:
			lp.walkStmts(x.List, cloneLocks(held))
		case *ast.IfStmt:
			lp.scanOptStmt(x.Init, held)
			lp.scanExpr(x.Cond, held)
			lp.walkStmts(x.Body.List, cloneLocks(held))
			if x.Else != nil {
				lp.walkStmts([]ast.Stmt{x.Else}, cloneLocks(held))
			}
		case *ast.ForStmt:
			lp.scanOptStmt(x.Init, held)
			lp.scanExpr(x.Cond, held)
			lp.scanOptStmt(x.Post, held)
			lp.walkStmts(x.Body.List, cloneLocks(held))
		case *ast.RangeStmt:
			lp.scanExpr(x.X, held)
			lp.walkStmts(x.Body.List, cloneLocks(held))
		case *ast.SwitchStmt:
			lp.scanOptStmt(x.Init, held)
			lp.scanExpr(x.Tag, held)
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					lp.walkStmts(cc.Body, cloneLocks(held))
				}
			}
		case *ast.TypeSwitchStmt:
			lp.scanOptStmt(x.Init, held)
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					lp.walkStmts(cc.Body, cloneLocks(held))
				}
			}
		case *ast.SelectStmt:
			lp.walkSelect(x, held)
		case *ast.LabeledStmt:
			lp.walkStmts([]ast.Stmt{x.Stmt}, held)
		default:
			lp.scanStmt(s, held)
		}
	}
}

// walkSelect records each communication clause for the select/lock
// inversion check and walks the clause bodies.
func (lp *lockorderPass) walkSelect(sel *ast.SelectStmt, held []string) {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if key := lp.commChanKey(cc.Comm); key != "" {
			lp.selects = append(lp.selects, selectSite{chanKey: key, clause: cc})
		}
		lp.walkStmts(cc.Body, cloneLocks(held))
	}
}

// clauseAcquisitions collects the locks a clause body may acquire,
// directly or through same-package calls. Called only after the whole
// package has been walked, so the transitive summaries are complete.
func (lp *lockorderPass) clauseAcquisitions(body []ast.Stmt, out map[string]token.Pos) {
	for _, s := range body {
		walkNoFuncLit(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, method, ok := lp.lockCall(call); ok && (method == "Lock" || method == "RLock") {
				if _, seen := out[key]; !seen {
					out[key] = call.Pos()
				}
				return true
			}
			if callee := lp.calleeFunc(call); callee != nil {
				for key := range lp.mayAcquire(callee) {
					if _, seen := out[key]; !seen {
						out[key] = call.Pos()
					}
				}
			}
			return true
		})
	}
}

// acquire records one direct lock acquisition: the per-function
// summary, ordering edges from every held lock, and the re-acquisition
// diagnostic when the same key is already held.
func (lp *lockorderPass) acquire(key, method string, pos token.Pos, held []string) {
	if lp.fn != nil {
		m := lp.direct[lp.fn]
		if m == nil {
			m = map[string]token.Pos{}
			lp.direct[lp.fn] = m
		}
		if _, ok := m[key]; !ok {
			m[key] = pos
		}
	}
	for _, h := range held {
		if h == key {
			lp.out = append(lp.out, diag(lp.pkg, pos, "lockorder",
				"%s of %s while %s is already held in %s: sync mutexes are not reentrant, this path self-deadlocks", method, key, key, lp.fname))
			continue
		}
		lp.addEdge(h, key, pos, "")
	}
}

// addEdge records the first witness of an ordering from → to.
func (lp *lockorderPass) addEdge(from, to string, pos token.Pos, via string) {
	m := lp.edges[from]
	if m == nil {
		m = map[string]lockEdge{}
		lp.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = lockEdge{pos: pos, via: via}
	}
}

// scanStmt scans a statement (without held-set mutation) for calls and
// channel operations made under the current held set.
func (lp *lockorderPass) scanStmt(s ast.Stmt, held []string) {
	walkNoFuncLit(s, func(n ast.Node) bool {
		lp.scanNode(n, held)
		return true
	})
}

func (lp *lockorderPass) scanOptStmt(s ast.Stmt, held []string) {
	if s != nil {
		lp.scanStmt(s, held)
	}
}

func (lp *lockorderPass) scanExpr(e ast.Expr, held []string) {
	if e == nil {
		return
	}
	walkNoFuncLit(e, func(n ast.Node) bool {
		lp.scanNode(n, held)
		return true
	})
}

// scanNode classifies one node: a call (summary edges + call graph) or
// a channel operation (guarded-channel index for the select check).
func (lp *lockorderPass) scanNode(n ast.Node, held []string) {
	switch x := n.(type) {
	case *ast.CallExpr:
		if key, method, ok := lp.lockCall(x); ok {
			// An in-expression Lock (rare: condition side effects) still
			// counts as an acquisition for ordering purposes.
			if method == "Lock" || method == "RLock" {
				lp.acquire(key, method, x.Pos(), held)
			}
			return
		}
		callee := lp.calleeFunc(x)
		if callee == nil {
			return
		}
		if lp.fn != nil {
			m := lp.calls[lp.fn]
			if m == nil {
				m = map[*types.Func]bool{}
				lp.calls[lp.fn] = m
			}
			m[callee] = true
		}
		if len(held) > 0 {
			lp.callSites = append(lp.callSites, lockCallSite{held: cloneLocks(held), callee: callee, pos: x.Pos()})
		}
	case *ast.SendStmt:
		lp.recordChanOp(x.Chan, held, x.Pos())
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			lp.recordChanOp(x.X, held, x.Pos())
		}
	}
}

// recordChanOp indexes "channel key → locks held during an operation on
// it", the evidence base for the select inversion check.
func (lp *lockorderPass) recordChanOp(ch ast.Expr, held []string, pos token.Pos) {
	if len(held) == 0 {
		return
	}
	key := lp.chanKey(ch)
	if key == "" {
		return
	}
	m := lp.chanLocks[key]
	if m == nil {
		m = map[string]token.Pos{}
		lp.chanLocks[key] = m
	}
	for _, h := range held {
		if _, ok := m[h]; !ok {
			m[h] = pos
		}
	}
}

// callEdges converts the recorded calls-under-lock into ordering edges
// using the transitive acquisition summaries.
func (lp *lockorderPass) callEdges() {
	for _, cs := range lp.callSites {
		for key := range lp.mayAcquire(cs.callee) {
			for _, h := range cs.held {
				if h == key {
					lp.out = append(lp.out, diag(lp.pkg, cs.pos, "lockorder",
						"call to %s while %s is held, and %s (transitively) locks %s: sync mutexes are not reentrant, this path self-deadlocks", cs.callee.Name(), h, cs.callee.Name(), key))
					continue
				}
				lp.addEdge(h, key, cs.pos, cs.callee.Name())
			}
		}
	}
}

// mayAcquire returns the set of lock keys fn may acquire, directly or
// through same-package callees (memoized, cycle-safe).
func (lp *lockorderPass) mayAcquire(fn *types.Func) map[string]bool {
	if m, ok := lp.may[fn]; ok {
		return m
	}
	m := map[string]bool{}
	lp.may[fn] = m // pre-publish: cycles see the partial set
	for key := range lp.direct[fn] {
		m[key] = true
	}
	for callee := range lp.calls[fn] {
		for key := range lp.mayAcquire(callee) {
			m[key] = true
		}
	}
	return m
}

// reportCycles reports each unordered lock pair that is ordered both
// ways, once, at the lexically first edge of the pair's alphabetically
// first direction.
func (lp *lockorderPass) reportCycles() {
	froms := make([]string, 0, len(lp.edges))
	for f := range lp.edges {
		froms = append(froms, f)
	}
	sort.Strings(froms)
	for _, from := range froms {
		tos := make([]string, 0, len(lp.edges[from]))
		for t := range lp.edges[from] {
			tos = append(tos, t)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if from >= to {
				continue // report each unordered pair once
			}
			if !lp.reachable(to, from, map[string]bool{}) {
				continue
			}
			e := lp.edges[from][to]
			via := ""
			if e.via != "" {
				via = " (via " + e.via + ")"
			}
			back := lp.backWitness(to, from)
			lp.out = append(lp.out, diag(lp.pkg, e.pos, "lockorder",
				"lock order cycle: %s is acquired while %s is held here%s, but %s is also acquired while %s is held%s — two goroutines taking the two orders deadlock", to, from, via, from, to, back))
		}
	}
}

// backWitness renders the position of the reverse ordering when a
// direct reverse edge exists ("" for a multi-hop cycle).
func (lp *lockorderPass) backWitness(from, to string) string {
	if e, ok := lp.edges[from][to]; ok {
		p := lp.pkg.Fset.Position(e.pos)
		return " (at " + shortPath(p.Filename) + ":" + strconv.Itoa(p.Line) + ")"
	}
	return " (through intermediate locks)"
}

// reachable reports whether the edge graph has a path from → to.
func (lp *lockorderPass) reachable(from, to string, seen map[string]bool) bool {
	if from == to {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	for next := range lp.edges[from] {
		if lp.reachable(next, to, seen) {
			return true
		}
	}
	return false
}

// reportSelectHazards cross-checks each recorded select clause against
// the guarded-channel index.
func (lp *lockorderPass) reportSelectHazards() {
	for _, site := range lp.selects {
		guards := lp.chanLocks[site.chanKey]
		if guards == nil {
			continue
		}
		acquired := map[string]token.Pos{}
		lp.clauseAcquisitions(site.clause.Body, acquired)
		keys := make([]string, 0, len(acquired))
		for k := range acquired {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, lock := range keys {
			guardPos, ok := guards[lock]
			if !ok {
				continue
			}
			p := lp.pkg.Fset.Position(guardPos)
			lp.out = append(lp.out, diag(lp.pkg, acquired[lock], "lockorder",
				"select case on %s acquires %s, but %s is used at %s:%d while %s is held — the peer parks inside the critical section waiting for this select, which waits for the lock", site.chanKey, lock, site.chanKey, shortPath(p.Filename), p.Line, lock))
		}
	}
}

// lockCall classifies call as a Lock/RLock/Unlock/RUnlock on a mutex
// with a stable identity, returning the canonical key.
func (lp *lockorderPass) lockCall(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	t := lp.pkg.Info.Types[sel.X].Type
	if t == nil || !isSyncMutex(t) {
		return "", "", false
	}
	return lp.lockKey(sel.X), sel.Sel.Name, true
}

// lockKey canonicalizes a mutex (or channel) owner expression:
// Type.field for struct fields, pkg.var for package-level variables,
// func.name for locals (stable within one function, which is all the
// intra-function edges need).
func (lp *lockorderPass) lockKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return lp.lockKey(x.X)
	case *ast.StarExpr:
		return lp.lockKey(x.X)
	case *ast.SelectorExpr:
		if s := lp.pkg.Info.Selections[x]; s != nil {
			recv := s.Recv()
			if ptr, okp := recv.(*types.Pointer); okp {
				recv = ptr.Elem()
			}
			if named, okn := recv.(*types.Named); okn {
				return named.Obj().Name() + "." + x.Sel.Name
			}
			return "?." + x.Sel.Name
		}
		if v, okv := lp.pkg.Info.Uses[x.Sel].(*types.Var); okv && v.Pkg() != nil {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, okv := lp.pkg.Info.Uses[x].(*types.Var); okv {
			if v.Parent() == lp.pkg.Types.Scope() {
				return lp.pkg.Types.Name() + "." + v.Name()
			}
			return lp.fname + "." + v.Name()
		}
	case *ast.IndexExpr:
		return lp.lockKey(x.X) + "[...]"
	}
	return exprString(e)
}

// chanKey canonicalizes a channel expression the same way, returning
// "" for channels without a stable identity.
func (lp *lockorderPass) chanKey(e ast.Expr) string {
	t := lp.pkg.Info.Types[e].Type
	if t == nil {
		return ""
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return ""
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s := lp.pkg.Info.Selections[x]; s != nil {
			recv := s.Recv()
			if ptr, okp := recv.(*types.Pointer); okp {
				recv = ptr.Elem()
			}
			if named, okn := recv.(*types.Named); okn {
				return named.Obj().Name() + "." + x.Sel.Name
			}
		}
		if v, okv := lp.pkg.Info.Uses[x.Sel].(*types.Var); okv && v.Pkg() != nil {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, okv := lp.pkg.Info.Uses[x].(*types.Var); okv && v.Parent() == lp.pkg.Types.Scope() {
			return lp.pkg.Types.Name() + "." + v.Name()
		}
	}
	return ""
}

// commChanKey extracts the channel key from a select communication
// statement (send, or receive in an expression/assign statement).
func (lp *lockorderPass) commChanKey(comm ast.Stmt) string {
	switch x := comm.(type) {
	case *ast.SendStmt:
		return lp.chanKey(x.Chan)
	case *ast.ExprStmt:
		if u, ok := x.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return lp.chanKey(u.X)
		}
	case *ast.AssignStmt:
		if len(x.Rhs) == 1 {
			if u, ok := x.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return lp.chanKey(u.X)
			}
		}
	}
	return ""
}

// calleeFunc resolves a call to a same-package named function or
// method (nil otherwise).
func (lp *lockorderPass) calleeFunc(call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = lp.pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = lp.pkg.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() != lp.pkg.Types {
		return nil
	}
	return fn
}

// cloneLocks copies the ordered held set for a nested lexical scope.
func cloneLocks(held []string) []string {
	out := make([]string, len(held))
	copy(out, held)
	return out
}

// removeLock removes every occurrence of key.
func removeLock(held []string, key string) []string {
	out := held[:0]
	for _, h := range held {
		if h != key {
			out = append(out, h)
		}
	}
	return out
}

// shortPath trims a path to its last two segments for messages.
func shortPath(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}
