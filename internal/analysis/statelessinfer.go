package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StatelessInfer enforces the concurrency contract of DESIGN.md §7:
// inference is stateless. Any method reachable from a stateless root
// (nn.Network.Infer, every implementation of nn.Layer.Apply, the vae/usad
// score paths, the dsos query paths) must not write model state — neither
// by assigning receiver fields, nor by calling an in-place helper on a
// value aliased to the receiver, nor by writing a package-level variable.
//
// The analyzer computes, for every function in the module, a summary of
// which inputs (receiver, parameters) it may mutate and which its results
// may alias, iterated to a fixpoint across the whole call graph. It then
// walks the graph from each root carrying a taint set: values derived from
// a tainted receiver stay tainted through field selection, indexing,
// slicing, range, and alias-returning calls (mat.Matrix.Row returning a
// view of receiver data is tracked; a call that builds a fresh value
// launders taint, matching the mat package's fresh-value convention).
//
// Two deliberate escape hatches, both documented in DESIGN.md §9:
// methods whose name ends in "Locked" assert that their caller holds the
// owning lock (the dsos lazy-sort convention) and are skipped — the race
// detector, not this analyzer, guards lock discipline; and a finding can
// be silenced with //lint:ignore statelessinfer <reason>.
type StatelessInfer struct {
	// Roots selects the stateless entry points by receiver (or interface)
	// type name and method name. An interface root pulls in every module
	// implementation of that method.
	Roots []RootSpec
}

// DefaultStatelessRoots covers the DESIGN.md §7 stateless bullets — the
// shared-model forward passes and the dsos query paths the serving layer
// calls on every request — plus Network.InferInto, which data-parallel
// training (DESIGN.md §11) runs concurrently against a root network from
// every shard worker while that root is being trained: it must stay as
// stateless as the serving path, with all scratch in the caller's
// workspace.
func DefaultStatelessRoots() []RootSpec {
	return []RootSpec{
		{"Network", "Infer"},
		{"Network", "InferInto"},
		{"Layer", "Apply"},
		{"VAE", "Encode"},
		{"VAE", "Decode"},
		{"VAE", "Reconstruct"},
		{"VAE", "Scores"},
		{"USAD", "Scores"},
		{"Ensemble", "Scores"},
		{"Store", "QuerySampler"},
		{"Store", "QueryJob"},
	}
}

// Name implements Analyzer.
func (a *StatelessInfer) Name() string { return "statelessinfer" }

// Doc implements Analyzer.
func (a *StatelessInfer) Doc() string {
	return "methods reachable from stateless inference roots must not mutate receiver or global state (DESIGN.md §7)"
}

// slot bit 0 is the receiver; bit i (1-based) is parameter i-1. Parameters
// beyond the bitset width are conservatively untracked.
const maxSlots = 63

// siState layers the taint-trace machinery over the shared call-graph
// index (callgraph.go).
type siState struct {
	a      *StatelessInfer
	unit   *Unit
	report Reporter
	*callGraph
}

// Run implements Analyzer.
func (a *StatelessInfer) Run(u *Unit, report Reporter) {
	s := &siState{a: a, unit: u, report: report, callGraph: newCallGraph(u)}
	s.fixpoint()
	for _, root := range s.resolveRoots(a.Roots) {
		s.trace(root)
	}
}

// caller-holds-lock convention: *Locked methods mutate under a lock their
// caller owns; lock discipline is the race detector's jurisdiction.
func lockedByConvention(fd *ast.FuncDecl) bool {
	return strings.HasSuffix(fd.Name.Name, "Locked")
}

// fixpoint recomputes mutation/alias summaries until they stabilize.
func (s *siState) fixpoint() {
	for iter := 0; iter < 32; iter++ {
		changed := false
		for obj, sum := range s.funcs {
			if lockedByConvention(sum.decl) {
				continue
			}
			w := newWalker(s, sum.pkg, sum.decl, nil)
			w.walkBody()
			if w.mut != sum.mut || w.ret != sum.ret || w.writesGlobal != sum.writesGlobal {
				sum.mut, sum.ret, sum.writesGlobal = w.mut, w.ret, w.writesGlobal
				changed = true
			}
			_ = obj
		}
		if !changed {
			return
		}
	}
}

// traceCtx is one BFS work item: analyze fn with the given tainted input
// slots, attributing findings to root.
type traceCtx struct {
	fn   *types.Func
	bits uint64
	root *types.Func
}

// trace walks the call graph from one root, reporting any mutation of
// taint-reachable state.
func (s *siState) trace(root *types.Func) {
	visited := make(map[*types.Func]uint64)
	reported := make(map[token.Pos]bool)
	queue := []traceCtx{{fn: root, bits: 1, root: root}}
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		if prev, seen := visited[item.fn]; seen && prev&item.bits == item.bits {
			continue
		}
		visited[item.fn] |= item.bits
		sum := s.funcs[item.fn]
		if sum == nil || lockedByConvention(sum.decl) {
			continue
		}
		w := newWalker(s, sum.pkg, sum.decl, &taintTrace{
			ctx: item, reported: reported, enqueue: func(next traceCtx) {
				if prev, seen := visited[next.fn]; !seen || prev&next.bits != next.bits {
					queue = append(queue, next)
				}
			}})
		w.walkBody()
	}
}

type taintTrace struct {
	ctx      traceCtx
	reported map[token.Pos]bool
	enqueue  func(traceCtx)
}

// walker performs one pass over a function body, propagating provenance
// bitsets through local bindings. In summary mode (trace == nil) the
// bitsets identify which input slot a value derives from; in trace mode
// only the tainted slots of the current context are seeded, so any
// non-zero bitset means "derived from state shared through the root".
type walker struct {
	s     *siState
	pkg   *Package
	decl  *ast.FuncDecl
	trace *taintTrace

	prov         map[types.Object]uint64
	params       []types.Object // receiver then parameters, by slot
	mut, ret     uint64
	writesGlobal bool
}

func newWalker(s *siState, pkg *Package, decl *ast.FuncDecl, trace *taintTrace) *walker {
	w := &walker{s: s, pkg: pkg, decl: decl, trace: trace, prov: make(map[types.Object]uint64)}
	slot := 0
	bind := func(name *ast.Ident) {
		if slot >= maxSlots {
			return
		}
		if obj := pkg.Info.Defs[name]; obj != nil {
			w.params = append(w.params, obj)
			bits := uint64(1) << uint(slot)
			if trace == nil || trace.ctx.bits&bits != 0 {
				w.prov[obj] = bits
			}
		}
		slot++
	}
	if decl.Recv != nil {
		for _, field := range decl.Recv.List {
			for _, name := range field.Names {
				bind(name)
			}
			if len(field.Names) == 0 {
				slot++ // unnamed receiver still occupies slot 0
			}
		}
	} else {
		slot++ // keep parameter slots 1-based for plain functions too
	}
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				bind(name)
			}
			if len(field.Names) == 0 {
				slot++
			}
		}
	}
	return w
}

func (w *walker) walkBody() {
	// Two passes so provenance assigned late in the body (loops) reaches
	// earlier uses; summaries additionally iterate to a global fixpoint.
	w.walkStmt(w.decl.Body)
	w.walkStmt(w.decl.Body)
}

// reportMutation records a finding (trace mode) for a write whose target
// derives from tainted state.
func (w *walker) reportMutation(pos token.Pos, what string) {
	if w.trace == nil || w.trace.reported[pos] {
		return
	}
	w.trace.reported[pos] = true
	root := w.trace.ctx.root
	recv := ""
	if sig, ok := root.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(root.Pkg())) + ")."
	}
	w.s.report(pos, "%s mutates state shared through stateless root %s%s; inference must not write model state (DESIGN.md §7)",
		what, recv, root.Name())
}

// mutate records a write through a value with the given provenance.
func (w *walker) mutate(pos token.Pos, bits uint64, what string) {
	if bits == 0 {
		return
	}
	w.mut |= bits
	w.reportMutation(pos, what)
}

func (w *walker) walkStmt(stmt ast.Stmt) {
	if stmt == nil {
		return
	}
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		for _, s := range st.List {
			w.walkStmt(s)
		}
	case *ast.AssignStmt:
		w.walkAssign(st)
	case *ast.IncDecStmt:
		w.walkWriteTarget(st.X, st.Pos())
		w.walkExpr(st.X)
	case *ast.ExprStmt:
		w.walkExpr(st.X)
	case *ast.IfStmt:
		w.walkStmt(st.Init)
		w.walkExpr(st.Cond)
		w.walkStmt(st.Body)
		w.walkStmt(st.Else)
	case *ast.ForStmt:
		w.walkStmt(st.Init)
		w.walkExpr(st.Cond)
		w.walkStmt(st.Post)
		w.walkStmt(st.Body)
	case *ast.RangeStmt:
		bits := w.walkExpr(st.X)
		for _, lhs := range []ast.Expr{st.Key, st.Value} {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				w.bind(id, bits)
			} else if lhs != nil {
				w.walkWriteTarget(lhs, lhs.Pos())
			}
		}
		w.walkStmt(st.Body)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.ret |= w.walkExpr(r)
		}
	case *ast.SwitchStmt:
		w.walkStmt(st.Init)
		w.walkExpr(st.Tag)
		w.walkStmt(st.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(st.Init)
		var bits uint64
		if as, ok := st.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			bits = w.walkExpr(as.Rhs[0])
		} else if es, ok := st.Assign.(*ast.ExprStmt); ok {
			bits = w.walkExpr(es.X)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			// The implicit per-clause variable aliases the switched value.
			if obj := w.pkg.Info.Implicits[cc]; obj != nil && bits != 0 {
				w.prov[obj] |= bits
			}
			for _, s := range cc.Body {
				w.walkStmt(s)
			}
		}
	case *ast.CaseClause:
		for _, e := range st.List {
			w.walkExpr(e)
		}
		for _, s := range st.Body {
			w.walkStmt(s)
		}
	case *ast.SelectStmt:
		w.walkStmt(st.Body)
	case *ast.CommClause:
		w.walkStmt(st.Comm)
		for _, s := range st.Body {
			w.walkStmt(s)
		}
	case *ast.GoStmt:
		w.walkExpr(st.Call)
	case *ast.DeferStmt:
		w.walkExpr(st.Call)
	case *ast.SendStmt:
		w.walkExpr(st.Chan)
		w.walkExpr(st.Value)
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						var bits uint64
						if i < len(vs.Values) {
							bits = w.walkExpr(vs.Values[i])
						}
						w.bind(name, bits)
					}
				}
			}
		}
	}
}

// bind merges provenance into a local variable binding.
func (w *walker) bind(id *ast.Ident, bits uint64) {
	obj := w.pkg.Info.Defs[id]
	if obj == nil {
		obj = w.pkg.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if bits != 0 {
		w.prov[obj] |= bits
	}
}

// walkAssign handles bindings (ident targets) and mutations (everything
// else), including assignments to package-level variables.
func (w *walker) walkAssign(st *ast.AssignStmt) {
	var rhsBits []uint64
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// x, y := call(): every result shares the call's alias bits.
		bits := w.walkExpr(st.Rhs[0])
		for range st.Lhs {
			rhsBits = append(rhsBits, bits)
		}
	} else {
		for _, r := range st.Rhs {
			rhsBits = append(rhsBits, w.walkExpr(r))
		}
	}
	for i, lhs := range st.Lhs {
		var bits uint64
		if i < len(rhsBits) {
			bits = rhsBits[i]
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			obj := w.pkg.Info.Defs[id]
			if obj == nil {
				obj = w.pkg.Info.Uses[id]
			}
			if v, ok := obj.(*types.Var); ok && !isLocal(v, w.decl, w.pkg) {
				// Assigning a package-level variable: global state.
				w.writesGlobal = true
				w.reportMutation(id.Pos(), "assignment to package-level variable "+id.Name)
				continue
			}
			if obj != nil && bits != 0 {
				w.prov[obj] |= bits
			}
			continue
		}
		w.walkWriteTarget(lhs, lhs.Pos())
		w.walkExpr(lhs)
	}
}

// isLocal reports whether v is declared inside the function being walked
// (or is one of its parameters/results) rather than at package level.
func isLocal(v *types.Var, decl *ast.FuncDecl, pkg *Package) bool {
	if v.Pkg() == nil {
		return true
	}
	scope := v.Pkg().Scope()
	// A package-scope variable's parent scope is the package scope.
	return scope.Lookup(v.Name()) != v
}

// walkWriteTarget handles a write through a non-ident lvalue: the mutated
// object is whatever the base expression aliases.
func (w *walker) walkWriteTarget(lhs ast.Expr, pos token.Pos) {
	switch e := lhs.(type) {
	case *ast.Ident:
		// x++ / x-- on a package-level variable is a global-state write;
		// on a local it only rebinds and is harmless.
		obj := w.pkg.Info.Uses[e]
		if obj == nil {
			obj = w.pkg.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok && !isLocal(v, w.decl, w.pkg) {
			w.writesGlobal = true
			w.reportMutation(pos, "write to package-level variable "+e.Name)
		}
	case *ast.SelectorExpr:
		w.mutate(pos, w.walkExpr(e.X), "write to "+exprString(e))
	case *ast.IndexExpr:
		w.mutate(pos, w.walkExpr(e.X), "write to "+exprString(e))
	case *ast.StarExpr:
		w.mutate(pos, w.walkExpr(e.X), "write through "+exprString(lhs))
	case *ast.ParenExpr:
		w.walkWriteTarget(e.X, pos)
	}
}

// walkExpr returns the provenance bits of an expression, recording any
// mutations performed by calls inside it. Provenance flows only through
// values that can alias memory: a scalar copied out of a tainted struct
// (a.Rows) carries nothing, so fresh values built from tainted dimensions
// stay untainted — the property that keeps mat's fresh-value constructors
// from cascading taint.
func (w *walker) walkExpr(e ast.Expr) uint64 {
	bits := w.walkExprRaw(e)
	if bits == 0 || e == nil {
		return bits
	}
	if tv, ok := w.pkg.Info.Types[e]; ok && tv.Type != nil && !canAlias(tv.Type) {
		return 0
	}
	return bits
}

// canAlias reports whether a value of type t can share mutable memory
// with another value. Scalars and strings cannot (strings are immutable);
// everything referency can.
func canAlias(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Array:
		return canAlias(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if canAlias(u.Field(i).Type()) {
				return true
			}
		}
		return false
	}
	return true // pointers, slices, maps, chans, funcs, interfaces
}

func (w *walker) walkExprRaw(e ast.Expr) uint64 {
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		obj := w.pkg.Info.Uses[e]
		if obj == nil {
			obj = w.pkg.Info.Defs[e]
		}
		return w.prov[obj]
	case *ast.SelectorExpr:
		// Qualified identifiers (pkg.Name) carry no local provenance.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := w.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				return 0
			}
		}
		return w.walkExpr(e.X)
	case *ast.IndexExpr:
		w.walkExpr(e.Index)
		return w.walkExpr(e.X)
	case *ast.SliceExpr:
		w.walkExpr(e.Low)
		w.walkExpr(e.High)
		w.walkExpr(e.Max)
		return w.walkExpr(e.X)
	case *ast.StarExpr:
		return w.walkExpr(e.X)
	case *ast.ParenExpr:
		return w.walkExpr(e.X)
	case *ast.UnaryExpr:
		return w.walkExpr(e.X)
	case *ast.TypeAssertExpr:
		return w.walkExpr(e.X)
	case *ast.CompositeLit:
		var bits uint64
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				bits |= w.walkExpr(kv.Value)
			} else {
				bits |= w.walkExpr(el)
			}
		}
		return bits
	case *ast.BinaryExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Y)
		return 0
	case *ast.FuncLit:
		// The closure body runs with access to captured locals; walk it
		// inline so mutations through captures are seen.
		w.walkStmt(e.Body)
		return 0
	case *ast.CallExpr:
		return w.walkCall(e)
	default:
		return 0
	}
}

// walkCall propagates provenance through a call: callee summaries say
// which inputs it mutates and which its results alias; dynamic interface
// calls union every module implementation and enqueue them in trace mode.
func (w *walker) walkCall(call *ast.CallExpr) uint64 {
	// Type conversions pass provenance straight through.
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return w.walkExpr(call.Args[0])
		}
		return 0
	}

	// Builtins: copy and delete mutate their first operand; append's
	// result may alias its first operand.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			var argBits []uint64
			for _, arg := range call.Args {
				argBits = append(argBits, w.walkExpr(arg))
			}
			switch b.Name() {
			case "copy", "delete":
				if len(argBits) > 0 {
					w.mutate(call.Pos(), argBits[0], b.Name()+" through "+exprString(call.Args[0]))
				}
			case "append":
				var bits uint64
				for _, ab := range argBits {
					bits |= ab
				}
				return bits
			}
			return 0
		}
	}

	// Resolve the callee and the receiver expression, if any.
	var recvExpr ast.Expr
	var callees []*types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := w.pkg.Info.Uses[fun].(*types.Func); ok {
			callees = []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recvExpr = fun.X
			fn := sel.Obj().(*types.Func)
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				callees = w.s.implementations(iface, fn.Name())
			} else {
				callees = []*types.Func{fn}
			}
		} else if fn, ok := w.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			// Qualified package function: pkg.F(...).
			callees = []*types.Func{fn}
		} else {
			w.walkExpr(fun.X)
		}
	default:
		w.walkExpr(call.Fun)
	}

	var recvBits uint64
	if recvExpr != nil {
		recvBits = w.walkExpr(recvExpr)
	}
	argBits := make([]uint64, len(call.Args))
	for i, arg := range call.Args {
		argBits[i] = w.walkExpr(arg)
	}

	slotBits := func(fn *types.Func, slot int) uint64 {
		if slot == 0 {
			return recvBits
		}
		i := slot - 1
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Variadic() && i >= sig.Params().Len()-1 {
			// Variadic slot: union of all trailing arguments.
			var bits uint64
			for j := sig.Params().Len() - 1; j < len(argBits); j++ {
				bits |= argBits[j]
			}
			return bits
		}
		if i < len(argBits) {
			return argBits[i]
		}
		return 0
	}

	var out uint64
	for _, fn := range callees {
		sum := w.s.funcs[fn]
		if sum == nil || lockedByConvention(sum.decl) {
			continue // no body in the module (stdlib): assumed non-mutating
		}
		for slot := 0; slot < maxSlots; slot++ {
			bit := uint64(1) << uint(slot)
			if sum.mut&bit != 0 {
				w.mutate(call.Pos(), slotBits(fn, slot), "call to "+fn.Name()+", which mutates its input, on "+calleeOperand(call, recvExpr, slot))
			}
			if sum.ret&bit != 0 {
				out |= slotBits(fn, slot)
			}
		}
		// Trace mode: follow the call with the tainted slots of the callee.
		if w.trace != nil {
			var next uint64
			if recvBits != 0 {
				next |= 1
			}
			sig, _ := fn.Type().(*types.Signature)
			nparams := 0
			if sig != nil {
				nparams = sig.Params().Len()
			}
			for i := 0; i < nparams && i+1 < maxSlots; i++ {
				if slotBits(fn, i+1) != 0 {
					next |= uint64(1) << uint(i+1)
				}
			}
			// Enqueue even with no tainted slots: an untainted callee can
			// still write package-level state, which is a finding anywhere
			// in the reachable graph.
			w.trace.enqueue(traceCtx{fn: fn, bits: next, root: w.trace.ctx.root})
		}
	}
	return out
}

// calleeOperand names the operand a mutating callee writes through, for
// diagnostics.
func calleeOperand(call *ast.CallExpr, recvExpr ast.Expr, slot int) string {
	if slot == 0 && recvExpr != nil {
		return exprString(recvExpr)
	}
	if i := slot - 1; i >= 0 && i < len(call.Args) {
		return exprString(call.Args[i])
	}
	return "its argument"
}

// exprString renders an expression compactly for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "expression"
	}
}
