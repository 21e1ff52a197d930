package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// DetTaintAnalyzer propagates nondeterminism taint interprocedurally over
// the module call graph and reports every exported entry point of the
// deterministic pipeline packages that can reach a nondeterminism source:
// a time.Now written directly inside internal/netsim and the same call
// hidden two helpers deep in a utility package alike, because what must
// hold is a property of the whole call chain feeding the EXPERIMENTS.md
// artifacts, not of one file.
//
// Taint kinds and their sources:
//
//   - clock: time.Now, time.Since, time.Until
//   - rand: the package-level math/rand and math/rand/v2 functions backed
//     by the shared global seed
//   - env: os.Getenv, os.LookupEnv, os.Environ
//   - maporder: ranging over a map while appending to a slice in a
//     function that never canonicalises with a sort
//
// Sanitizers stop propagation: the keyed netsim.Stream API (DerivedRand,
// MixSeed, NewStream, Stream.Derive) is trusted by fiat — taint never
// escapes those declarations — and a caller that sorts blocks maporder
// taint flowing up from its callees (clock/rand/env taint still flows; a
// sort cannot un-read a wall clock). A source whose line carries an
// "lmvet:ignore dettaint <reason>" directive seeds no taint at all.
//
// Sinks are the exported functions and methods of the packages named by
// Config.TaintSinks. Each finding is reported at the sink's declaration
// with a witness call chain (sink ← f ← g ← source) and the source
// position, so the fix site is explicit.
var DetTaintAnalyzer = &Analyzer{
	Name:      "dettaint",
	Doc:       "propagates nondeterminism taint (clock, global rand, env, map order) through the call graph to exported pipeline entry points",
	RunModule: runDetTaint,
}

// taintKind enumerates the independent flavours of nondeterminism tracked.
type taintKind int

const (
	taintClock taintKind = iota
	taintRand
	taintEnv
	taintMapOrder
	numTaintKinds
)

// advice is the fix guidance appended to a finding of each kind.
var taintAdvice = [numTaintKinds]string{
	taintClock:    "thread a clock or timestamp parameter in explicitly",
	taintRand:     "draw from a keyed netsim.Stream or an explicitly seeded *rand.Rand",
	taintEnv:      "plumb configuration through parameters",
	taintMapOrder: "sort before accumulating",
}

// taintSource describes a direct nondeterminism source in a function body.
type taintSource struct {
	kind taintKind
	desc string // e.g. "time.Now", "unsorted map iteration"
	pos  token.Pos
}

// taintWitness records how taint reached a function: either a direct
// source in its own body (src != nil) or a call edge to a tainted callee.
type taintWitness struct {
	src  *taintSource
	from *FuncNode
}

func runDetTaint(mp *ModulePass) error {
	prog := mp.Prog

	// sortsMemo caches the per-function sort-canonicalisation check; it is
	// both an intraprocedural maporder sanitizer (inside directSources) and
	// an interprocedural one (blocking propagation into sorting callers).
	sortsMemo := make(map[*FuncNode]bool)
	sorts := func(n *FuncNode) bool {
		v, ok := sortsMemo[n]
		if !ok {
			v = funcCallsSort(n.Decl)
			sortsMemo[n] = v
		}
		return v
	}

	// Seed: direct sources per function, in deterministic node order.
	var taint [numTaintKinds]map[*FuncNode]taintWitness
	var queues [numTaintKinds][]*FuncNode
	for k := range taint {
		taint[k] = make(map[*FuncNode]taintWitness)
	}
	for _, node := range prog.Nodes() {
		if isTaintSanitizer(node) {
			continue
		}
		for _, src := range directTaintSources(mp, node, sorts(node)) {
			if _, dup := taint[src.kind][node]; dup {
				continue
			}
			s := src
			taint[src.kind][node] = taintWitness{src: &s}
			queues[src.kind] = append(queues[src.kind], node)
		}
	}

	// Propagate each kind up the call graph, breadth-first, so witness
	// chains are shortest paths. Queue and edge order are deterministic,
	// so ties break identically run to run.
	for k := taintKind(0); k < numTaintKinds; k++ {
		queue := queues[k]
		for len(queue) > 0 {
			g := queue[0]
			queue = queue[1:]
			for _, e := range g.CalledBy {
				f := e.Caller
				if _, seen := taint[k][f]; seen {
					continue
				}
				if isTaintSanitizer(f) {
					continue
				}
				if k == taintMapOrder && sorts(f) {
					continue // the caller canonicalises order
				}
				taint[k][f] = taintWitness{from: g}
				queue = append(queue, f)
			}
		}
	}

	// Report tainted sinks.
	for _, node := range prog.Nodes() {
		if !mp.requested(node.Pkg) || !isTaintSink(node, mp.Cfg.TaintSinks) {
			continue
		}
		for k := taintKind(0); k < numTaintKinds; k++ {
			w, ok := taint[k][node]
			if !ok {
				continue
			}
			chain, src := witnessChain(node, w, taint[k])
			pos := prog.Fset.Position(src.pos)
			mp.Reportf(node.Decl.Name.Pos(),
				"exported entry point %s reaches %s: %s (%s:%d); %s",
				node.Func.Name(), src.desc, chain,
				filepath.Base(pos.Filename), pos.Line, taintAdvice[k])
		}
	}
	return nil
}

// witnessChain walks the witness links from a tainted sink down to the
// direct source and renders "sink ← f ← g ← source".
func witnessChain(node *FuncNode, w taintWitness, taint map[*FuncNode]taintWitness) (string, *taintSource) {
	names := []string{node.DisplayName()}
	for w.src == nil {
		node = w.from
		names = append(names, node.DisplayName())
		w = taint[node]
	}
	return strings.Join(names, " ← ") + " ← " + w.src.desc, w.src
}

// directTaintSources scans one declaration for nondeterminism sources.
// Sources on lines carrying an "lmvet:ignore dettaint" directive are
// skipped — the author has accepted them, so nothing downstream taints.
func directTaintSources(mp *ModulePass, node *FuncNode, sorts bool) []taintSource {
	var out []taintSource
	info := node.Pkg.Info
	suppressed := func(pos token.Pos) bool {
		p := mp.Prog.Fset.Position(pos)
		return mp.ignores.suppresses(Diagnostic{Analyzer: "dettaint", Pos: p})
	}
	add := func(kind taintKind, desc string, pos token.Pos) {
		if !suppressed(pos) {
			out = append(out, taintSource{kind: kind, desc: desc, pos: pos})
		}
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			pkgPath, name, ok := resolvePkgFunc(info, n)
			if !ok {
				return true
			}
			switch {
			case pkgPath == "time" && (name == "Now" || name == "Since" || name == "Until"):
				add(taintClock, "time."+name, n.Pos())
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFuncs[name]:
				add(taintRand, "global "+pkgPath+"."+name, n.Pos())
			case pkgPath == "os" && (name == "Getenv" || name == "LookupEnv" || name == "Environ"):
				add(taintEnv, "os."+name, n.Pos())
			}
		case *ast.RangeStmt:
			if !sorts && mapRangeAppends(info, n) {
				add(taintMapOrder, "unsorted map iteration", n.Pos())
			}
		}
		return true
	})
	return out
}

// isTaintSanitizer reports whether the declaration is deterministic by
// construction, so taint never propagates out of it. Two APIs qualify:
// the keyed netsim randomness API (all draws derive from (seed, entity,
// time) tuples) and the telemetry package (observation-only by contract —
// the wall-clock reads inside its timers feed metrics, never results, a
// guarantee the core/stream metrics-equivalence tests pin bit-for-bit).
func isTaintSanitizer(n *FuncNode) bool {
	path := n.Pkg.Path
	if path == "telemetry" || strings.HasSuffix(path, "/telemetry") {
		return true
	}
	if path != "netsim" && !strings.HasSuffix(path, "/netsim") {
		return false
	}
	switch n.Func.Name() {
	case "DerivedRand", "MixSeed", "NewStream":
		return n.Decl.Recv == nil
	case "Derive":
		return n.Decl.Recv != nil
	}
	return false
}

// isTaintSink reports whether the node is an exported entry point of a
// sink package: an exported function, or an exported method on an exported
// receiver type, in a package whose import path contains one of the
// configured substrings.
func isTaintSink(n *FuncNode, sinkPkgs []string) bool {
	inSink := false
	for _, s := range sinkPkgs {
		if strings.Contains(n.Pkg.Path, s) {
			inSink = true
			break
		}
	}
	if !inSink || !n.Decl.Name.IsExported() {
		return false
	}
	if n.Decl.Recv != nil {
		recv := n.Func.Type().(*types.Signature).Recv()
		name := recvTypeName(recv.Type())
		if name != "" && !token.IsExported(name) {
			return false
		}
	}
	return true
}

// recvTypeName extracts the named type behind a receiver type, "" if none.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared, globally seeded source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true,
}

// funcCallsSort reports whether fd calls into package sort or slices'
// sort helpers, or any function whose name starts with "Sort" or ends
// with "Sorted" — evidence the author canonicalises iteration order.
func funcCallsSort(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
				found = true
				return false
			}
		}
		if len(name) >= 4 && (name[:4] == "Sort" || name[:4] == "sort") {
			found = true
			return false
		}
		if len(name) >= 6 && name[len(name)-6:] == "Sorted" {
			found = true
			return false
		}
		return true
	})
	return found
}

// mapRangeAppends reports whether rng iterates a map while appending to a
// slice — the accumulation pattern whose element order differs run to run.
func mapRangeAppends(info *types.Info, rng *ast.RangeStmt) bool {
	t := typeOf(info, rng.X)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return false
	}
	appends := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					appends = true
					return false
				}
			}
		}
		return true
	})
	return appends
}
