package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockio enforces PR 2's liveness contract for the networked layers:
// internal/directory and internal/comm must never block a sync mutex on
// network I/O, a sleep, or a channel operation. A mutex held across a
// 2-second dial turns every concurrent caller — including pure
// bookkeeping like Counters() — into a 2-second stall, which is exactly
// the failure mode the fallback ladder and resilient client exist to
// avoid.
//
// The analysis is lexical and function-local, with one level of
// intra-package call summaries: first every function in the package is
// scanned for *direct* blocking operations (net.Conn / net.Listener
// method calls, net dial/listen calls, time.Sleep, channel sends,
// receives, and selects); then each function body is walked in source
// order tracking which mutexes are lexically held — `mu.Lock()` begins
// a critical section, `mu.Unlock()` ends it, `defer mu.Unlock()`
// extends it to the end of the function — and any blocking operation,
// or call to a same-package function summarized as blocking, inside a
// critical section is reported. Function literals are not entered:
// their bodies run on their own schedule.
//
// Deliberate exceptions (the raw Client serializing its one connection
// under its mutex) carry //hetvet:ignore lockio annotations explaining
// why they are safe.
type lockioChecker struct{}

// lockioScope lists the packages under the no-I/O-under-lock contract.
var lockioScope = []string{
	"internal/directory",
	"internal/wire",
	"internal/comm",
	"internal/exec",
	"internal/serve",
	"cmd/hetpland",
	"cmd/hcload",
}

func (lockioChecker) Name() string { return "lockio" }
func (lockioChecker) Desc() string {
	return "no network I/O, time.Sleep, or channel operations while a mutex is held in the networked packages (directory, wire, comm, exec, serve) and their daemons"
}

func (lockioChecker) Run(pkg *Package) []Diagnostic {
	if !scoped(pkg, lockioScope...) {
		return nil
	}
	lc := &lockioPass{pkg: pkg, blocking: map[*types.Func]string{}}
	// Pass 1: summarize which package functions directly block.
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if op := lc.directBlockingOp(fd.Body); op != "" {
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					lc.blocking[obj] = op
				}
			}
		}
	}
	// Pass 2: walk critical sections.
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lc.stmts(fd.Body.List, map[string]bool{})
		}
	}
	return lc.out
}

type lockioPass struct {
	pkg      *Package
	blocking map[*types.Func]string // package funcs that directly block, with the op description
	out      []Diagnostic
}

// directBlockingOp returns a description of the first direct blocking
// operation in n ("" if none), ignoring function literals. A select
// with a default clause never blocks, so only its clause bodies are
// inspected — not its communication cases.
func (lc *lockioPass) directBlockingOp(n ast.Node) string {
	op := ""
	var walk func(ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if op != "" {
				return false
			}
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				if !selectHasDefault(x) {
					op = "select"
					return false
				}
				for _, c := range x.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s)
						}
					}
				}
				return false
			}
			op = lc.blockingOp(n, false)
			return op == ""
		})
	}
	walk(n)
	return op
}

// selectHasDefault reports whether the select has a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingOp classifies a single node as a blocking operation. When
// summaries is true, calls to same-package functions summarized as
// blocking are included.
func (lc *lockioPass) blockingOp(n ast.Node, summaries bool) string {
	info := lc.pkg.Info
	switch x := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			return "select"
		}
	case *ast.RangeStmt:
		if t := info.Types[x.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel"
			}
		}
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok {
			// Plain same-package calls f(...): consult the summaries.
			if summaries {
				if id, ok := x.Fun.(*ast.Ident); ok {
					if fn, ok := info.Uses[id].(*types.Func); ok {
						if op, ok := lc.blocking[fn]; ok {
							return "call to " + fn.Name() + " (which does " + op + ")"
						}
					}
				}
			}
			return ""
		}
		// Package-level functions: time.Sleep, net.Dial*, net.Listen.
		if obj := pkgFuncObject(lc.pkg, sel); obj != nil {
			if _, isFunc := obj.(*types.Func); !isFunc || obj.Pkg() == nil {
				return ""
			}
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "time.Sleep", "net.Dial", "net.DialTimeout", "net.DialTCP", "net.DialUDP", "net.DialIP", "net.DialUnix",
				"net.Listen", "net.ListenTCP", "net.ListenPacket":
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return ""
		}
		// Method calls on net.Conn / net.Listener values.
		if recvT := info.Types[sel.X].Type; recvT != nil && isNetIOType(recvT) {
			return "net connection " + sel.Sel.Name
		}
		// Calls to same-package functions that directly block.
		if summaries {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
				if op, ok := lc.blocking[fn]; ok {
					return "call to " + fn.Name() + " (which does " + op + ")"
				}
			}
		}
	}
	return ""
}

// pkgFuncObject resolves a selector to a package-level function or
// variable object (nil for field/method selections).
func pkgFuncObject(pkg *Package, sel *ast.SelectorExpr) types.Object {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, isPkgName := pkg.Info.Uses[id].(*types.PkgName); !isPkgName {
		return nil
	}
	return pkg.Info.Uses[sel.Sel]
}

// isNetIOType reports whether t (possibly behind pointers) is net.Conn,
// net.Listener, or a named type implementing net.Conn from package net.
func isNetIOType(t types.Type) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	if obj.Pkg().Path() != "net" {
		return false
	}
	switch obj.Name() {
	case "Conn", "Listener", "TCPConn", "UDPConn", "UnixConn", "IPConn", "TCPListener", "UnixListener", "PacketConn":
		return true
	}
	return false
}

// lockExpr returns the printed receiver of a sync.Mutex/RWMutex
// Lock/RLock/Unlock/RUnlock call, or "" when the call is not one.
func (lc *lockioPass) lockExpr(call *ast.CallExpr) (recv, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	t := lc.pkg.Info.Types[sel.X].Type
	if t == nil || !isSyncMutex(t) {
		return "", ""
	}
	return exprString(sel.X), sel.Sel.Name
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// exprString renders a receiver expression as a stable key ("c.mu").
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	}
	return "?"
}

// stmts walks a statement list in source order, tracking the lexically
// held lock set. Nested blocks get a copy of the set, so an unlock
// inside a branch does not end the critical section after it.
func (lc *lockioPass) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		switch x := s.(type) {
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				if recv, method := lc.lockExpr(call); recv != "" {
					switch method {
					case "Lock", "RLock":
						held[recv] = true
					case "Unlock", "RUnlock":
						delete(held, recv)
					}
					continue
				}
			}
			lc.check(s, held)
		case *ast.DeferStmt:
			if recv, method := lc.lockExpr(x.Call); recv != "" && (method == "Unlock" || method == "RUnlock") {
				// defer mu.Unlock(): the section runs to function end —
				// held stays set; nothing to do.
				continue
			}
			// Deferred work itself runs at return; skip.
		case *ast.GoStmt:
			// A spawned goroutine does not block the section.
		case *ast.BlockStmt:
			lc.stmts(x.List, copyHeld(held))
		case *ast.IfStmt:
			lc.checkExpr(x.Init, held)
			lc.checkExprNode(x.Cond, held)
			lc.stmts(x.Body.List, copyHeld(held))
			if x.Else != nil {
				lc.stmts([]ast.Stmt{x.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			lc.checkExpr(x.Init, held)
			lc.checkExprNode(x.Cond, held)
			lc.checkExpr(x.Post, held)
			lc.stmts(x.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			lc.check(s, held) // flags range-over-channel itself
			lc.stmts(x.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			lc.checkExpr(x.Init, held)
			lc.checkExprNode(x.Tag, held)
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					lc.stmts(cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			lc.checkExpr(x.Init, held)
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					lc.stmts(cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			lc.check(s, held) // the select itself blocks
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					lc.stmts(cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			lc.stmts([]ast.Stmt{x.Stmt}, held)
		default:
			lc.check(s, held)
		}
	}
}

// check reports every blocking operation lexically inside s while any
// lock is held. The select statement is reported once, at its own
// position, without descending (its clauses are handled by stmts);
// a select with a default clause never parks, so it is not reported.
func (lc *lockioPass) check(s ast.Stmt, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	switch x := s.(type) {
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			lc.report(s, "select", held)
		}
		return
	case *ast.RangeStmt:
		if op := lc.blockingOp(s, true); op == "range over channel" {
			lc.report(s, op, held)
		}
		return
	}
	walkNoFuncLit(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.SelectStmt); ok {
			return false // nested select handled when stmts reaches it
		}
		if op := lc.blockingOp(n, true); op != "" {
			lc.report(n, op, held)
			if _, isCall := n.(*ast.CallExpr); isCall {
				return false // don't double-report the call's selector
			}
		}
		return true
	})
}

// checkExpr checks an optional init/post statement.
func (lc *lockioPass) checkExpr(s ast.Stmt, held map[string]bool) {
	if s != nil {
		lc.check(s, held)
	}
}

// checkExprNode checks an optional expression.
func (lc *lockioPass) checkExprNode(e ast.Expr, held map[string]bool) {
	if e == nil || len(held) == 0 {
		return
	}
	walkNoFuncLit(e, func(n ast.Node) bool {
		if op := lc.blockingOp(n, true); op != "" {
			lc.report(n, op, held)
			if _, isCall := n.(*ast.CallExpr); isCall {
				return false
			}
		}
		return true
	})
}

// report emits one finding naming the held lock(s).
func (lc *lockioPass) report(n ast.Node, op string, held map[string]bool) {
	locks := ""
	for k := range held {
		if locks == "" || k < locks {
			locks = k // deterministic: report the lexically smallest name
		}
	}
	lc.out = append(lc.out, diag(lc.pkg, n.Pos(), "lockio",
		"%s while %s is held; never block a mutex on network I/O, sleeps, or channel operations", op, locks))
}

// copyHeld clones the held-lock set for a nested lexical scope.
func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
