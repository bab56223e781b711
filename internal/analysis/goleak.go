package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// goleak proves every goroutine the concurrent subsystems spawn has a
// shutdown path. A leaked goroutine is the quietest failure the serving
// stack can have: the daemon drains, the test passes, and a worker
// parked on a channel nobody will ever close holds its stack, its
// captured buffers, and — under load — a file descriptor, forever.
//
// The checker builds a per-package spawn graph: every `go` statement is
// an edge from its spawning function to the function it runs (a
// function literal, or a named same-package function or method whose
// body it resolves). A spawn is accepted when either termination
// discipline holds:
//
//   - join: a sync.WaitGroup counter is Add'ed lexically before the
//     spawn in the spawning function, the spawned body calls Done on
//     the same counter (deferred or direct), and the same counter is
//     Wait'ed somewhere in the package — the Server/Daemon
//     Close/Drain/Shutdown pattern, or a local wg.Wait() in the
//     spawning function.
//   - signal: the spawned body (or a same-package function it calls)
//     receives from a ctx.Done() channel or from a channel whose name
//     marks it a lifecycle channel (done, quit, stop, closing,
//     shutdown, ...), ranges over one, or waits on a sync.WaitGroup
//     that the package drains (the drain-watcher pattern:
//     go func() { wg.Wait(); close(done) }()).
//
// Everything else — including spawning a function from another package,
// whose body the per-package graph cannot see — is an orphaned
// goroutine, reported with the spawn site and which termination edge is
// missing. Deliberate detachments carry //hetvet:ignore goleak waivers.
type goleakChecker struct{}

// goleakScope lists the packages whose goroutines must be provably
// collectable: the serving stack, the data plane, and the harnesses
// that spawn work on their behalf.
var goleakScope = []string{
	"internal/serve",
	"internal/exec",
	"internal/directory",
	"internal/wire",
	"internal/comm",
	"internal/obs",
	"internal/faults",
	"internal/experiments",
	"internal/calib",
}

func (goleakChecker) Name() string { return "goleak" }
func (goleakChecker) Desc() string {
	return "every goroutine spawned in the concurrent packages is joined by a WaitGroup or selects on a ctx/done channel"
}

// shutdownChanName matches identifier names that conventionally carry a
// lifecycle signal. "clos" covers closing/closed, "shut" shutdown,
// "term" terminate/terminated, "cancel" cancelation channels.
var shutdownChanName = regexp.MustCompile(`(?i)(done|quit|stop|clos|shut|exit|term|cancel)`)

func (goleakChecker) Run(pkg *Package) []Diagnostic {
	if !scoped(pkg, goleakScope...) {
		return nil
	}
	g := &goleakPass{
		pkg:    pkg,
		decls:  map[*types.Func]*ast.FuncDecl{},
		waited: map[*types.Var]bool{},
		signal: map[*types.Func]int{},
	}
	// Index the package's function bodies and the WaitGroups it drains.
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				g.decls[obj] = fd
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if v := g.waitGroupMethod(call, "Wait"); v != nil {
					g.waited[v] = true
				}
			}
			return true
		})
	}
	// Walk every function body looking for spawns, tracking the
	// innermost enclosing function body so Add-before-spawn is scoped
	// to the function that performs the spawn.
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g.spawns(fd.Name.Name, fd.Body, fd.Body)
		}
	}
	return g.out
}

type goleakPass struct {
	pkg    *Package
	decls  map[*types.Func]*ast.FuncDecl // same-package function bodies
	waited map[*types.Var]bool           // WaitGroups the package Wait()s on
	signal map[*types.Func]int           // memo for calleeHasSignal: 0 unvisited, 1 in progress/no, 2 yes
	out    []Diagnostic
}

// spawns walks body (the statements of enclosing) and reports orphaned
// go statements. When it meets a nested function literal it recurses
// with that literal as the new enclosing body: an Add in the outer
// function does not license a spawn inside a worker closure.
func (g *goleakPass) spawns(owner string, enclosing *ast.BlockStmt, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			g.spawns(owner, x.Body, x.Body)
			return false
		case *ast.GoStmt:
			g.checkSpawn(owner, enclosing, x)
			// The spawned literal's own body may itself spawn.
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				g.spawns(owner, lit.Body, lit.Body)
			}
			return false
		}
		return true
	})
}

// checkSpawn applies the join/signal disciplines to one go statement.
func (g *goleakPass) checkSpawn(owner string, enclosing *ast.BlockStmt, stmt *ast.GoStmt) {
	body, calleeName := g.spawnedBody(stmt.Call)
	adds := g.addsBefore(enclosing, stmt.Pos())
	if body == nil {
		// A spawn we cannot see into: external function or dynamic call.
		for v := range adds {
			if g.waited[v] {
				// The counter is joined; trust the convention that the
				// callee pairs the Done (it cannot be verified here).
				return
			}
		}
		g.out = append(g.out, diag(g.pkg, stmt.Pos(), "goleak",
			"goroutine spawned in %s runs %s, whose body this package cannot analyze, with no Add/Done/Wait'd sync.WaitGroup join; wrap it in a joined closure or waive with //hetvet:ignore goleak <reason>", owner, calleeName))
		return
	}
	for v := range adds {
		if g.waited[v] && g.bodyCallsDone(body, v) {
			return // joined
		}
	}
	if g.hasSignal(body) {
		return // terminates on a lifecycle channel or group drain
	}
	g.out = append(g.out, diag(g.pkg, stmt.Pos(), "goleak",
		"goroutine spawned in %s has no provable shutdown path: no Add-before-spawn/Done/Wait sync.WaitGroup join and no receive on a ctx.Done()/lifecycle channel; add one or waive with //hetvet:ignore goleak <reason>", owner))
}

// spawnedBody resolves the body the go statement runs: a function
// literal's own body, or the declaration body of a same-package
// function or method. The second result names the callee for messages.
func (g *goleakPass) spawnedBody(call *ast.CallExpr) (*ast.BlockStmt, string) {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body, "func literal"
	case *ast.Ident:
		if fn, ok := g.pkg.Info.Uses[fun].(*types.Func); ok {
			if fd := g.decls[fn]; fd != nil {
				return fd.Body, fn.Name()
			}
			return nil, fn.FullName()
		}
		return nil, fun.Name
	case *ast.SelectorExpr:
		if fn, ok := g.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if fd := g.decls[fn]; fd != nil {
				return fd.Body, fn.Name()
			}
			return nil, fn.FullName()
		}
		return nil, exprString(fun)
	}
	return nil, "a dynamic call"
}

// addsBefore collects the WaitGroup variables Add'ed in enclosing at a
// position before pos, without descending into nested function
// literals (their Adds happen on another goroutine's schedule).
func (g *goleakPass) addsBefore(enclosing *ast.BlockStmt, pos token.Pos) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	walkNoFuncLit(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		if v := g.waitGroupMethod(call, "Add"); v != nil {
			out[v] = true
		}
		return true
	})
	return out
}

// bodyCallsDone reports whether body calls Done on v, including inside
// deferred closures.
func (g *goleakPass) bodyCallsDone(body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if g.waitGroupMethod(call, "Done") == v {
				found = true
			}
		}
		return true
	})
	return found
}

// waitGroupMethod resolves call as method(...) on a sync.WaitGroup
// variable or field and returns that variable, or nil.
func (g *goleakPass) waitGroupMethod(call *ast.CallExpr, method string) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	t := g.pkg.Info.Types[sel.X].Type
	if t == nil || !isWaitGroup(t) {
		return nil
	}
	return g.varOf(sel.X)
}

// varOf resolves an expression to the variable object it names: a plain
// identifier, or the terminal field of a selector chain.
func (g *goleakPass) varOf(e ast.Expr) *types.Var {
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := g.pkg.Info.Uses[x].(*types.Var); ok {
			return v
		}
		if v, ok := g.pkg.Info.Defs[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if s := g.pkg.Info.Selections[x]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := g.pkg.Info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	case *ast.ParenExpr:
		return g.varOf(x.X)
	case *ast.StarExpr:
		return g.varOf(x.X)
	}
	return nil
}

// isWaitGroup reports whether t is sync.WaitGroup (possibly behind a
// pointer).
func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// hasSignal reports whether body contains a termination edge: a receive
// from (or range over, or select case on) a lifecycle channel, a wait
// on a WaitGroup the package drains, or a call to a same-package
// function whose body has one. Nested function literals are not
// entered — a signal inside a closure the body launches elsewhere says
// nothing about this goroutine's own loop.
func (g *goleakPass) hasSignal(body *ast.BlockStmt) bool {
	found := false
	walkNoFuncLit(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && g.isLifecycleChan(x.X) {
				found = true
			}
		case *ast.RangeStmt:
			if g.isLifecycleChan(x.X) {
				found = true
			}
		case *ast.CallExpr:
			if v := g.waitGroupMethod(x, "Wait"); v != nil {
				found = true // drain-watcher: terminates when the group drains
				return false
			}
			if g.calleeHasSignal(x) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isLifecycleChan reports whether e is a channel-typed expression that
// carries a shutdown signal: ctx.Done() (any context.Context), or a
// variable/field whose name matches the lifecycle convention.
func (g *goleakPass) isLifecycleChan(e ast.Expr) bool {
	t := g.pkg.Info.Types[e].Type
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if rt := g.pkg.Info.Types[sel.X].Type; rt != nil && isContextType(rt) {
				return true
			}
		}
	case *ast.Ident:
		return shutdownChanName.MatchString(x.Name)
	case *ast.SelectorExpr:
		return shutdownChanName.MatchString(x.Sel.Name)
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// calleeHasSignal reports whether call targets a same-package function
// whose body contains a termination edge (transitively, cycle-guarded).
func (g *goleakPass) calleeHasSignal(call *ast.CallExpr) bool {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = g.pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = g.pkg.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return false
	}
	switch g.signal[fn] {
	case 2:
		return true
	case 1:
		return false // in progress (cycle) or already known negative
	}
	fd := g.decls[fn]
	if fd == nil {
		return false
	}
	g.signal[fn] = 1
	if g.hasSignal(fd.Body) {
		g.signal[fn] = 2
		return true
	}
	return false
}
