package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath is the static half of the zero-alloc contract the runtime
// AllocsPerRun tests pin from the other side. A function annotated
//
//	//hetvet:hotpath [note]
//
// (in its doc comment) is a hot root: its body, and the body of every
// module function it transitively calls — across packages, resolved
// over the whole program — must contain no allocating constructs:
//
//   - make / new, map and slice composite literals, &T{...}
//     (a struct literal whose address escapes its statement);
//   - function literals (closures capture their variables on the
//     heap), except a directly deferred literal outside a loop, which
//     the compiler open-codes;
//   - defer inside a loop (each iteration heap-allocates the record);
//   - fmt calls and string concatenation / string<->[]byte
//     conversions;
//   - interface boxing: a non-constant value that is not
//     pointer-shaped (struct, int, float, string, slice) passed or
//     converted to an interface type allocates its box;
//   - go statements (a goroutine per plan defeats the point).
//
// Two escape hatches keep the contract honest rather than theatrical:
// constructing an error that is immediately returned (fmt.Errorf /
// errors.New inside a return statement, or a panic argument) is cold by
// definition — the steady state never executes it — and a function
// annotated //hetvet:coldpath <reason> (growth paths, dump paths) is
// pruned from the traversal, with the reason mandatory.
//
// Calls the type checker cannot resolve to a module function — through
// interfaces, func values, or into the standard library beyond the
// denylist above — are not followed; the race-gated AllocsPerRun
// tests remain the runtime backstop for those.
type hotpathChecker struct {
	decls map[*types.Func]hotDecl
	hot   map[*types.Func]*types.Func // hot function → its annotated root
	cold  map[*types.Func]bool
}

type hotDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

func newHotpathChecker() *hotpathChecker {
	return &hotpathChecker{
		decls: map[*types.Func]hotDecl{},
		hot:   map[*types.Func]*types.Func{},
		cold:  map[*types.Func]bool{},
	}
}

func (*hotpathChecker) Name() string { return "hotpath" }
func (*hotpathChecker) Desc() string {
	return "//hetvet:hotpath functions and their transitive module callees contain no allocating constructs"
}

// Prepare indexes every module function, reads the hotpath/coldpath
// annotations, and computes the transitive hot set over the
// whole-program call graph.
func (h *hotpathChecker) Prepare(pkgs []*Package) {
	var roots []*types.Func
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				h.decls[fn] = hotDecl{pkg: pkg, decl: fd}
				switch funcAnnotation(fd) {
				case verbHotpath:
					roots = append(roots, fn)
				case verbColdpath:
					h.cold[fn] = true
				}
			}
		}
	}
	// BFS from the roots; each hot function remembers the annotated
	// root that pulled it in, for messages.
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if h.cold[r] {
			continue
		}
		h.hot[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		hd := h.decls[fn]
		root := h.hot[fn]
		for _, callee := range h.callees(hd) {
			if _, seen := h.hot[callee]; seen || h.cold[callee] {
				continue
			}
			if _, inModule := h.decls[callee]; !inModule {
				continue
			}
			h.hot[callee] = root
			queue = append(queue, callee)
		}
	}
}

// callees resolves the named module functions hd's body calls.
// Function literals are not entered: a closure in a hot body is itself
// a finding, and its body runs on its own schedule.
func (h *hotpathChecker) callees(hd hotDecl) []*types.Func {
	var out []*types.Func
	walkNoFuncLit(hd.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var fn *types.Func
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			fn, _ = hd.pkg.Info.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = hd.pkg.Info.Uses[fun.Sel].(*types.Func)
		}
		if fn != nil {
			out = append(out, fn)
		}
		return true
	})
	return out
}

// funcAnnotation returns the hetvet verb annotating fd's doc comment
// ("" when unannotated). Malformed annotations are reported by the
// directive scan in ignore.go, not here.
func funcAnnotation(fd *ast.FuncDecl) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		if d, _, problems := parseDirective(c.Text); len(problems) == 0 {
			switch d.Verb {
			case verbHotpath, verbColdpath:
				return d.Verb
			}
		}
	}
	return ""
}

// Run reports the allocating constructs in the hot functions declared
// in pkg.
func (h *hotpathChecker) Run(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for fn, root := range h.hot {
		hd := h.decls[fn]
		if hd.pkg != pkg {
			continue
		}
		out = append(out, h.scanBody(hd, fn, root)...)
	}
	return out
}

// scanBody flags every allocating construct in one hot function body.
func (h *hotpathChecker) scanBody(hd hotDecl, fn, root *types.Func) []Diagnostic {
	s := &hotScan{pkg: hd.pkg, where: describeHot(fn, root)}
	s.collectExemptions(hd.decl.Body)
	s.stmts(hd.decl.Body, 0)
	return s.out
}

// describeHot renders "PlanInto" or "emitStep (hot via PlanInto)".
func describeHot(fn, root *types.Func) string {
	if fn == root {
		return fn.Name()
	}
	return fn.Name() + " (hot via " + root.Name() + ")"
}

// hotScan walks one body with enough context to apply the exemptions:
// cold error-construction ranges and open-coded defers.
type hotScan struct {
	pkg         *Package
	where       string
	coldRanges  []posRange   // fmt.Errorf/errors.New in returns, panic args
	openDefers  map[ast.Node]bool // defer funcLit() outside loops
	out         []Diagnostic
}

type posRange struct{ lo, hi token.Pos }

func (s *hotScan) exempt(pos token.Pos) bool {
	for _, r := range s.coldRanges {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

// collectExemptions records the cold ranges: error constructors inside
// return statements and panic arguments — failure paths the steady
// state never executes.
func (s *hotScan) collectExemptions(body *ast.BlockStmt) {
	s.openDefers = map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				ast.Inspect(res, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && s.isErrorCtor(call) {
						s.coldRanges = append(s.coldRanges, posRange{call.Pos(), call.End()})
					}
					return true
				})
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := s.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					s.coldRanges = append(s.coldRanges, posRange{x.Pos(), x.End()})
				}
			}
		}
		return true
	})
}

// isErrorCtor recognizes fmt.Errorf and errors.New.
func (s *hotScan) isErrorCtor(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pkgFuncObject(s.pkg, sel)
	return isPkgFunc(obj, "fmt", "Errorf") || isPkgFunc(obj, "errors", "New")
}

// stmts walks statements tracking loop depth (for the defer-in-loop
// rule) and marking open-coded defers before the expression scan sees
// their literals.
func (s *hotScan) stmts(n ast.Node, loopDepth int) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if !s.openDefers[x] && !s.exempt(x.Pos()) {
				s.flag(x.Pos(), "function literal (closures capture variables on the heap)")
			}
			return false // its body runs on its own schedule
		case *ast.ForStmt:
			s.scanLoopHeader(x.Init, x.Cond, x.Post)
			s.stmts(x.Body, loopDepth+1)
			return false
		case *ast.RangeStmt:
			s.scanExprOnly(x.X)
			s.stmts(x.Body, loopDepth+1)
			return false
		case *ast.DeferStmt:
			if loopDepth > 0 {
				s.flag(x.Pos(), "defer inside a loop (each iteration heap-allocates the defer record)")
			} else if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				s.openDefers[lit] = true // open-coded; not a heap closure
			}
			return true
		case *ast.GoStmt:
			s.flag(x.Pos(), "go statement (goroutine spawn on the hot path)")
			return true
		default:
			s.scanNode(n)
			return true
		}
	})
}

// scanLoopHeader scans a for-loop's header at the current loop depth.
func (s *hotScan) scanLoopHeader(init ast.Stmt, cond ast.Expr, post ast.Stmt) {
	if init != nil {
		s.stmts(init, 0)
	}
	if cond != nil {
		s.scanExprOnly(cond)
	}
	if post != nil {
		s.stmts(post, 0)
	}
}

func (s *hotScan) scanExprOnly(e ast.Expr) {
	if e != nil {
		s.stmts(e, 0)
	}
}

// scanNode applies the per-node allocation rules.
func (s *hotScan) scanNode(n ast.Node) {
	if n == nil {
		return
	}
	if s.exempt(n.Pos()) {
		return
	}
	switch x := n.(type) {
	case *ast.CompositeLit:
		t := s.pkg.Info.Types[x].Type
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map:
			s.flag(x.Pos(), "map literal")
		case *types.Slice:
			s.flag(x.Pos(), "slice literal")
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if lit, ok := x.X.(*ast.CompositeLit); ok {
				s.flag(lit.Pos(), "address of composite literal (&T{...} escapes)")
			}
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			if tv, ok := s.pkg.Info.Types[x]; ok && tv.Value == nil {
				if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
					s.flag(x.Pos(), "string concatenation")
				}
			}
		}
	case *ast.CallExpr:
		s.scanCall(x)
	}
}

// scanCall handles builtins, conversions, the denylisted allocating
// standard-library calls, and interface boxing at the call boundary.
func (s *hotScan) scanCall(call *ast.CallExpr) {
	// Conversions: T(x).
	if tv, ok := s.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		s.scanConversion(call, tv.Type)
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isBuiltin := s.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				s.flag(call.Pos(), "make")
			case "new":
				s.flag(call.Pos(), "new")
			}
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := pkgFuncObject(s.pkg, sel); obj != nil {
			switch {
			case obj.Pkg() != nil && obj.Pkg().Path() == "fmt":
				s.flag(call.Pos(), "fmt."+obj.Name()+" call")
				return
			case isPkgFunc(obj, "errors", "New"):
				s.flag(call.Pos(), "errors.New outside a return statement")
				return
			case obj.Pkg() != nil && obj.Pkg().Path() == "strings" && allocatingStringsFunc(obj.Name()):
				s.flag(call.Pos(), "strings."+obj.Name()+" call")
				return
			case obj.Pkg() != nil && obj.Pkg().Path() == "strconv" && isFunc(obj):
				s.flag(call.Pos(), "strconv."+obj.Name()+" call")
				return
			}
		}
	}
	s.scanBoxing(call)
}

// allocatingStringsFunc lists the strings functions that build new
// strings (Compare/Contains/Index and friends do not).
func allocatingStringsFunc(name string) bool {
	switch name {
	case "Join", "Repeat", "Replace", "ReplaceAll", "ToUpper", "ToLower",
		"TrimSpace", "Split", "SplitN", "Fields", "Map", "Title", "Clone":
		return true
	}
	return false
}

// scanConversion flags allocating conversions: string <-> []byte/[]rune
// and boxing into an interface type.
func (s *hotScan) scanConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	argT := s.pkg.Info.Types[arg].Type
	if argT == nil {
		return
	}
	tu, au := target.Underlying(), argT.Underlying()
	if isStringType(tu) && isByteOrRuneSlice(au) {
		s.flag(call.Pos(), "[]byte/[]rune-to-string conversion")
		return
	}
	if isByteOrRuneSlice(tu) && isStringType(au) {
		s.flag(call.Pos(), "string-to-slice conversion")
		return
	}
	if _, isIface := tu.(*types.Interface); isIface {
		if s.boxes(arg) {
			s.flag(call.Pos(), "interface conversion of a non-pointer value (boxing)")
		}
	}
}

// scanBoxing flags non-pointer-shaped, non-constant arguments passed to
// interface-typed parameters (including variadic ...any).
func (s *hotScan) scanBoxing(call *ast.CallExpr) {
	sigT := s.pkg.Info.Types[call.Fun].Type
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				continue
			}
			slice, isSlice := params.At(params.Len() - 1).Type().Underlying().(*types.Slice)
			if !isSlice {
				continue // f(xs...) pass-through
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if s.boxes(arg) {
			s.flag(arg.Pos(), "interface boxing of a non-pointer argument")
		}
	}
}

// boxes reports whether passing arg to an interface allocates: the
// value is non-constant, not already an interface, and not
// pointer-shaped (pointers, maps, chans, funcs, unsafe.Pointer ride in
// the data word for free).
func (s *hotScan) boxes(arg ast.Expr) bool {
	tv, ok := s.pkg.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil {
		return false // constants are backed by static data
	}
	if tv.IsNil() {
		return false
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Interface:
		return false
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	if isZeroSize(tv.Type.Underlying()) {
		return false // zero-size values box to the runtime's shared zerobase
	}
	return true // structs, arrays, slices, strings behind named types
}

// isZeroSize reports whether every value of the type occupies zero
// bytes — empty structs, zero-length arrays, and compositions thereof.
// Boxing such a value never allocates (context keys like
// ctx.Value(key{}) rely on this).
func isZeroSize(u types.Type) bool {
	switch t := u.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if !isZeroSize(t.Field(i).Type().Underlying()) {
				return false
			}
		}
		return true
	case *types.Array:
		return t.Len() == 0 || isZeroSize(t.Elem().Underlying())
	}
	return false
}

func (s *hotScan) flag(pos token.Pos, what string) {
	s.out = append(s.out, diag(s.pkg, pos, "hotpath",
		"%s allocates in hot-path function %s; hoist it to scratch/setup, mark the function //hetvet:coldpath <reason>, or waive with //hetvet:ignore hotpath <reason>", what, s.where))
}

// isStringType reports whether u (an underlying type) is string.
func isStringType(u types.Type) bool {
	b, ok := u.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether u is []byte or []rune.
func isByteOrRuneSlice(u types.Type) bool {
	sl, ok := u.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
