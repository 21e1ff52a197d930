package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrderAnalyzer builds a lock-acquisition-order graph across every
// sync.Mutex/sync.RWMutex class in the module — the engine's striped
// shard locks, the telemetry registry mutex, the serve daemon's mutex —
// and reports two defect classes:
//
//   - a cycle in the order graph: two call paths that acquire the same
//     locks in opposite orders can deadlock under concurrency even
//     though every individual path is correct;
//   - a telemetry call (histogram observation, timer, registry
//     get-or-create) made while a hot-path lock is held, outside the
//     sampled-tick pattern (`if sampled { ... }`) the engine uses to
//     keep instrumentation off the per-observation critical section.
//     Counter and Gauge operations are exempt — they are single atomic
//     adds.
//
// Lock classes are keyed structurally, (package, type, field) for field
// mutexes and (package, var) for package-level ones, so every instance
// of a striped lock (each engine shard) is one class. Edges come from
// three sources: a lock acquired while another is held in the same
// body, a call made while a lock is held (the callee's transitive
// acquire set), and callbacks invoked under a lock — a function value
// passed to a callee that acquires L induces L → acquires(callback),
// which is how the registry's GaugeFunc snapshot evaluation is modelled
// despite being a dynamic call.
//
// The TryLock-then-Lock contention idiom (`if !mu.TryLock() { ...;
// mu.Lock() }`) is recognised: the failed TryLock does not hold the
// lock inside the if body, so the contention counter there is not "under
// the lock". A branch that ends in `return` never falls through, so the
// locks held after it are those held before it: an early-return
// `mu.Unlock(); return` releases mu inside its branch only.
//
// A `go` statement's call, a named function or a literal, runs on a new
// goroutine, which holds none of the spawner's locks: what it acquires
// adds no edge from them, and is not in the spawner's may-acquire set.
// The statement's function value and arguments are evaluated by the
// spawner, under its locks, so calls among them still count.
var LockOrderAnalyzer = &Analyzer{
	Name:      "lockorder",
	Doc:       "builds the lock-acquisition-order graph (shard stripes, registry, daemon) and reports cycles and unsampled telemetry under hot locks",
	RunModule: runLockOrder,
}

// lockEvent is one position-ordered occurrence inside a function body.
type lockEvent struct {
	pos  token.Pos
	kind int // evAcquire, evRelease, evCall, evTelemetry, evBranch, evBranchEnd
	// class is the lock class for acquire/release.
	class string
	// callee is the static callee for evCall.
	callee *FuncNode
	// callbacks are function-valued arguments at an evCall site.
	callbacks []ast.Expr
	// spawned marks an evCall that a go statement runs on a new
	// goroutine.
	spawned bool
	// desc names the telemetry call for evTelemetry.
	desc string
	// guarded marks events inside an `if sampled { ... }` block.
	guarded bool
}

const (
	evAcquire = iota
	evRelease
	evCall
	evTelemetry
	// evBranch and evBranchEnd bracket a branch that ends in return:
	// the held set at evBranchEnd reverts to the one at evBranch.
	evBranch
	evBranchEnd
)

// lockedge is one order edge with its witness position.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(mp *ModulePass) error {
	prog := mp.Prog
	lo := &lockOrder{
		prog:     prog,
		acquires: make(map[*FuncNode]map[string]bool),
		visiting: make(map[*FuncNode]bool),
		edges:    make(map[[2]string]token.Pos),
	}

	for _, node := range prog.Nodes() {
		lo.scanFunction(mp, node)
	}

	lo.reportCycles(mp)
	return nil
}

// lockOrder carries the module-wide analysis state.
type lockOrder struct {
	prog *Program
	// acquires memoises the transitive may-acquire set per function.
	acquires map[*FuncNode]map[string]bool
	visiting map[*FuncNode]bool
	// edges maps (from, to) to the first witness position.
	edges map[[2]string]token.Pos
}

// addEdge records an order edge, keeping the first witness and skipping
// self-edges (re-acquiring the same class is the TryLock idiom, not an
// order violation this analyzer models).
func (lo *lockOrder) addEdge(from, to string, pos token.Pos) {
	if from == to {
		return
	}
	k := [2]string{from, to}
	if _, ok := lo.edges[k]; !ok {
		lo.edges[k] = pos
	}
}

// scanFunction simulates node's body as a position-ordered event
// sequence, emitting order edges and telemetry-under-lock findings.
func (lo *lockOrder) scanFunction(mp *ModulePass, node *FuncNode) {
	events := lo.collectLockEvents(node, false)
	if len(events) == 0 {
		return
	}
	var held []string
	// before stacks the held sets at the open evBranch events.
	var before [][]string
	holding := func(c string) bool {
		for _, h := range held {
			if h == c {
				return true
			}
		}
		return false
	}
	for _, ev := range events {
		switch ev.kind {
		case evAcquire:
			if holding(ev.class) {
				continue
			}
			for _, h := range held {
				lo.addEdge(h, ev.class, ev.pos)
			}
			held = append(held, ev.class)
		case evRelease:
			for i, h := range held {
				if h == ev.class {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case evBranch:
			before = append(before, append([]string(nil), held...))
		case evBranchEnd:
			held = before[len(before)-1]
			before = before[:len(before)-1]
		case evCall:
			if len(held) > 0 && ev.callee != nil && !ev.spawned {
				for c := range lo.funcAcquires(ev.callee) {
					for _, h := range held {
						lo.addEdge(h, c, ev.pos)
					}
				}
			}
			// Callback-under-lock: a function value handed to a callee
			// that acquires L runs (possibly later) with L held.
			if ev.callee != nil && len(ev.callbacks) > 0 {
				calleeLocks := lo.funcAcquires(ev.callee)
				if len(calleeLocks) > 0 {
					for _, cb := range ev.callbacks {
						for a := range lo.exprAcquires(node, cb) {
							for l := range calleeLocks {
								lo.addEdge(l, a, ev.pos)
							}
						}
					}
				}
			}
		case evTelemetry:
			if ev.guarded {
				continue
			}
			for _, h := range held {
				if hotLockClass(mp.Cfg, h) && mp.requested(node.Pkg) {
					mp.Reportf(ev.pos,
						"telemetry call %s under hot lock %s outside the sampled-tick guard; wrap in `if sampled { ... }` or move it off the critical section",
						ev.desc, h)
					break
				}
			}
		}
	}
}

// hotLockClass reports whether class matches the configured hot-path
// lock set (substring match, like analyzer scoping).
func hotLockClass(cfg Config, class string) bool {
	for _, s := range cfg.HotPathLocks {
		if strings.Contains(class, s) {
			return true
		}
	}
	return false
}

// funcAcquires returns the transitive set of lock classes node may
// acquire on the goroutine that calls it: direct acquires anywhere in
// its body (function literals included — a closure may run with its
// creator's locks live) plus its static callees', except what a go
// statement runs. Cycles in the call graph are cut by the visiting set.
func (lo *lockOrder) funcAcquires(node *FuncNode) map[string]bool {
	if s, ok := lo.acquires[node]; ok {
		return s
	}
	if lo.visiting[node] {
		return nil
	}
	lo.visiting[node] = true
	defer delete(lo.visiting, node)

	out := make(map[string]bool)
	lo.addAcquires(out, lo.collectLockEvents(node, true))
	lo.acquires[node] = out
	return out
}

// addAcquires adds to out the lock classes events acquire directly and
// through the static callees of their calls, leaving out spawned calls.
func (lo *lockOrder) addAcquires(out map[string]bool, events []lockEvent) {
	for _, ev := range events {
		switch {
		case ev.kind == evAcquire:
			out[ev.class] = true
		case ev.kind == evCall && ev.callee != nil && !ev.spawned:
			for c := range lo.funcAcquires(ev.callee) {
				out[c] = true
			}
		}
	}
}

// exprAcquires resolves the may-acquire set of a function-valued
// expression: a literal's body (direct acquires plus its static
// callees'), or a referenced function/method's transitive set.
func (lo *lockOrder) exprAcquires(node *FuncNode, e ast.Expr) map[string]bool {
	info := node.Pkg.Info
	out := make(map[string]bool)
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		lo.addAcquires(out, lo.collectEventsIn(node, e.Body, true))
	default:
		if fn := funcValueOf(info, e); fn != nil {
			if callee, ok := lo.prog.Funcs[fn]; ok {
				for c := range lo.funcAcquires(callee) {
					out[c] = true
				}
			}
		}
	}
	return out
}

// funcValueOf resolves a function-typed value expression (method value,
// named function reference) to its object.
func funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// collectLockEvents gathers node's events in position order.
// includeLits also descends into function literals (for may-acquire
// sets); the linear simulation excludes them, since a literal's body
// runs at an unknown time.
func (lo *lockOrder) collectLockEvents(node *FuncNode, includeLits bool) []lockEvent {
	return lo.collectEventsIn(node, node.Decl.Body, includeLits)
}

func (lo *lockOrder) collectEventsIn(node *FuncNode, body ast.Node, includeLits bool) []lockEvent {
	info := node.Pkg.Info
	var events []lockEvent

	// Pre-pass: the body ranges of `if sampled { ... }` guards.
	type posRange struct{ lo, hi token.Pos }
	var guards []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			if id, ok := ast.Unparen(ifs.Cond).(*ast.Ident); ok && id.Name == "sampled" {
				guards = append(guards, posRange{ifs.Body.Pos(), ifs.Body.End()})
			}
		}
		return true
	})
	guarded := func(p token.Pos) bool {
		for _, g := range guards {
			if g.lo <= p && p < g.hi {
				return true
			}
		}
		return false
	}

	// negTryLock matches `if !x.TryLock() { ... }`: the acquire takes
	// effect after the if statement, not inside its body.
	negTry := make(map[*ast.CallExpr]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		un, ok := ast.Unparen(ifs.Cond).(*ast.UnaryExpr)
		if !ok || un.Op != token.NOT {
			return true
		}
		if call, ok := ast.Unparen(un.X).(*ast.CallExpr); ok {
			if _, name, ok := lockMethod(info, call); ok && strings.HasPrefix(name, "Try") {
				negTry[call] = ifs.End()
			}
		}
		return true
	})

	var deferred = make(map[*ast.CallExpr]bool)
	// spawned holds the calls go statements run on new goroutines, and
	// spawnedLits the literals among them, whose bodies run there too.
	spawned := make(map[*ast.CallExpr]bool)
	spawnedLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			spawned[n.Call] = true
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				spawnedLits[lit] = true
			}
		}
		return true
	})

	// branch brackets stmts, a branch spanning [from, to), when it ends
	// in return. The body itself is not a branch: nothing follows it.
	branch := func(from, to token.Pos, stmts []ast.Stmt) {
		if len(stmts) == 0 {
			return
		}
		if _, ok := stmts[len(stmts)-1].(*ast.ReturnStmt); ok {
			events = append(events,
				lockEvent{pos: from, kind: evBranch},
				lockEvent{pos: to, kind: evBranchEnd})
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return includeLits && !spawnedLits[n]
		case *ast.BlockStmt:
			if n != body {
				branch(n.Lbrace, n.End(), n.List)
			}
		case *ast.CaseClause:
			branch(n.Colon, n.End(), n.Body)
		case *ast.CommClause:
			branch(n.Colon, n.End(), n.Body)
		case *ast.CallExpr:
			if spawned[n] {
				// Only the callback rule applies: a callee's locks order
				// before its callbacks' on the new goroutine as well.
				if ev := lo.callEvent(info, n); ev.callee != nil && len(ev.callbacks) > 0 {
					ev.spawned = true
					events = append(events, ev)
				}
				return true
			}
			if class, name, ok := lockMethod(info, n); ok {
				switch name {
				case "Lock", "RLock", "TryLock", "TryRLock":
					pos := n.Pos()
					if p, neg := negTry[n]; neg {
						pos = p
					}
					events = append(events, lockEvent{pos: pos, kind: evAcquire, class: class})
				case "Unlock", "RUnlock":
					if !deferred[n] {
						events = append(events, lockEvent{pos: n.Pos(), kind: evRelease, class: class})
					}
				}
				return true
			}
			if desc, ok := telemetryCall(info, n); ok {
				events = append(events, lockEvent{pos: n.Pos(), kind: evTelemetry, desc: desc, guarded: guarded(n.Pos())})
			}
			if ev := lo.callEvent(info, n); ev.callee != nil || len(ev.callbacks) > 0 {
				events = append(events, ev)
			}
		}
		return true
	})

	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// callEvent is the evCall event of call: its static callee, if the
// program declares one, and its function-valued arguments.
func (lo *lockOrder) callEvent(info *types.Info, call *ast.CallExpr) lockEvent {
	ev := lockEvent{pos: call.Pos(), kind: evCall}
	if fn := StaticCallee(info, call); fn != nil {
		ev.callee = lo.prog.Funcs[fn]
	}
	for _, arg := range call.Args {
		if isFuncValued(info, arg) {
			ev.callbacks = append(ev.callbacks, arg)
		}
	}
	return ev
}

// isFuncValued reports whether arg is a function literal, a method
// value, or a named function reference.
func isFuncValued(info *types.Info, arg ast.Expr) bool {
	if _, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
		return true
	}
	return funcValueOf(info, arg) != nil
}

// lockMethod matches a call to a sync.Mutex / sync.RWMutex method and
// returns the receiver's lock class and the method name.
func lockMethod(info *types.Info, call *ast.CallExpr) (class, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection == nil {
		return "", "", false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	rn := recvTypeName(recv.Type())
	if rn != "Mutex" && rn != "RWMutex" {
		return "", "", false
	}
	return lockClassOf(info, sel.X), fn.Name(), true
}

// lockClassOf derives the structural class name of a lock expression:
// "pkg.Type.field" for field mutexes, "pkg.var" for package-level vars,
// and a typed fallback otherwise.
func lockClassOf(info *types.Info, x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		// owner.field — key by the owner's named type.
		field := x.Sel.Name
		t := typeOf(info, x.X)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + field
		}
		return "?." + field
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
			return v.Pkg().Name() + ".(local)." + v.Name()
		}
	}
	// Embedded mutex: pkg.Type itself.
	t := typeOf(info, x)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return "?"
}

// telemetryCall matches method calls into the telemetry package whose
// receivers are not the lock-free atomic kinds: Histogram observations,
// Timer start/stop, and Registry get-or-create all do work (CAS loops,
// wall-clock reads, map lookups under the registry mutex) that belongs
// outside a hot critical section unless sampled.
func telemetryCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection == nil {
		return "", false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	if path != "telemetry" && !strings.HasSuffix(path, "/telemetry") {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	switch recvTypeName(recv.Type()) {
	case "Histogram", "Timer", "Registry":
		return recvTypeName(recv.Type()) + "." + fn.Name(), true
	}
	return "", false
}

// reportCycles finds strongly connected components of the order graph
// and reports each cycle once, with the witness positions of its edges.
func (lo *lockOrder) reportCycles(mp *ModulePass) {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for k := range lo.edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	var names []string
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for n := range adj {
		sort.Strings(adj[n])
	}

	// Tarjan's SCC, deterministic by sorted roots and neighbours.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}

	for _, scc := range sccs {
		sort.Strings(scc)
		// Render the cycle as the sorted class ring and list each
		// intra-SCC edge with its witness position.
		inSCC := make(map[string]bool, len(scc))
		for _, c := range scc {
			inSCC[c] = true
		}
		var parts []string
		var first token.Pos
		var keys [][2]string
		for k := range lo.edges {
			if inSCC[k[0]] && inSCC[k[1]] {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			pos := lo.edges[k]
			p := lo.prog.Fset.Position(pos)
			parts = append(parts, fmt.Sprintf("%s → %s at %s:%d", k[0], k[1], filepath.Base(p.Filename), p.Line))
			if first == token.NoPos {
				first = pos
			}
		}
		mp.Reportf(first, "lock order cycle between %s (potential deadlock): %s; acquire these locks in one global order",
			strings.Join(scc, ", "), strings.Join(parts, "; "))
	}
}
