package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Program is the whole-module view a module-wide analyzer runs over: every
// package the loader has pulled in (requested directories plus everything
// they import inside the module), with a static call graph connecting their
// function declarations.
//
// The graph resolves direct calls (pkg.F, F), method calls through concrete
// receiver types (v.M where v's type is a named type or pointer, including
// promoted methods through embedding), and explicitly instantiated generic
// calls (F[T], v.M[T]); the edge target is the generic origin declaration.
// Calls through interface values, function-typed variables, and fields hold
// no static callee and produce no edge — a deliberate under-approximation
// that keeps every reported witness chain a real, compilable path.
type Program struct {
	// Fset resolves positions for every node in every package.
	Fset *token.FileSet
	// Packages are all loaded module-local packages, sorted by import path.
	Packages []*Package
	// Funcs maps a declared function or method to its graph node.
	Funcs map[*types.Func]*FuncNode

	nodes []*FuncNode
}

// FuncNode is one function or method declaration in the call graph.
type FuncNode struct {
	// Func is the type-checker's object for the declaration (the generic
	// origin for generic functions and methods).
	Func *types.Func
	// Decl is the declaration, body included.
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Calls are the outgoing static call edges, in source order.
	Calls []Edge
	// CalledBy are the incoming edges, ordered by caller, then call site.
	CalledBy []Edge
	// Refs are outgoing reference edges: sites where this function takes
	// another declared function's value without calling it — a method
	// value (x.M) or a function identifier passed, assigned, or stored as
	// a value. The referenced function may run later with the referrer's
	// obligations, so reachability analyses (allocguard) traverse
	// Calls ∪ Refs.
	Refs []Edge
}

// Edge is one static call edge; Pos is the call site in the caller.
type Edge struct {
	Caller *FuncNode
	Callee *FuncNode
	Pos    token.Pos
}

// BuildProgram constructs the call graph over the given packages. Node and
// edge order is deterministic: packages are sorted by import path and
// declarations visited in source order, so analyses that walk the graph in
// that order emit identical output run to run.
func BuildProgram(fset *token.FileSet, pkgs []*Package) *Program {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	prog := &Program{
		Fset:     fset,
		Packages: sorted,
		Funcs:    make(map[*types.Func]*FuncNode),
	}
	// Pass 1: a node per function declaration with a body.
	for _, pkg := range sorted {
		for _, fd := range pkg.funcDecls() {
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{Func: obj, Decl: fd, Pkg: pkg}
			prog.Funcs[obj] = node
			prog.nodes = append(prog.nodes, node)
		}
	}
	// Pass 2: edges. Calls inside function literals are attributed to the
	// enclosing declaration: a closure runs with its creator's determinism
	// obligations.
	for _, node := range prog.nodes {
		caller := node
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := StaticCallee(node.Pkg.Info, call)
			if fn == nil {
				return true
			}
			if callee, ok := prog.Funcs[fn]; ok {
				e := Edge{Caller: caller, Callee: callee, Pos: call.Pos()}
				caller.Calls = append(caller.Calls, e)
				callee.CalledBy = append(callee.CalledBy, e)
			}
			return true
		})
	}
	// Pass 3: reference edges. An expression position is a reference when
	// it resolves to a declared function but is not the callee of a call —
	// method values and function idents used as values. Selector `Sel`
	// idents are claimed by their parent selector so a method value is one
	// edge, not two.
	for _, node := range prog.nodes {
		caller := node
		info := node.Pkg.Info
		calleeExpr := make(map[ast.Expr]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun := ast.Unparen(call.Fun)
			switch ix := fun.(type) {
			case *ast.IndexExpr:
				fun = ast.Unparen(ix.X)
			case *ast.IndexListExpr:
				fun = ast.Unparen(ix.X)
			}
			calleeExpr[fun] = true
			return true
		})
		addRef := func(fn *types.Func, pos token.Pos) {
			if callee, ok := prog.Funcs[fn.Origin()]; ok {
				caller.Refs = append(caller.Refs, Edge{Caller: caller, Callee: callee, Pos: pos})
			}
		}
		claimed := make(map[*ast.Ident]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				claimed[e.Sel] = true
				if calleeExpr[e] {
					return true
				}
				if sel, ok := info.Selections[e]; ok && sel != nil {
					if fn, ok := sel.Obj().(*types.Func); ok {
						addRef(fn, e.Pos())
					}
					return true
				}
				if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
					addRef(fn, e.Pos())
				}
			case *ast.Ident:
				if calleeExpr[e] || claimed[e] {
					return true
				}
				if fn, ok := info.Uses[e].(*types.Func); ok {
					addRef(fn, e.Pos())
				}
			}
			return true
		})
	}
	// CalledBy edges accumulated in node order are already deterministic,
	// but callers were appended as encountered; normalise to caller source
	// position so the order is independent of map-free implementation
	// details.
	for _, node := range prog.nodes {
		sort.SliceStable(node.CalledBy, func(i, j int) bool {
			return node.CalledBy[i].Pos < node.CalledBy[j].Pos
		})
	}
	return prog
}

// Nodes returns every function node in deterministic order: package import
// path, then source position.
func (p *Program) Nodes() []*FuncNode { return p.nodes }

// funcDecls yields the package's function declarations with bodies in
// source order.
func (p *Package) funcDecls() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// StaticCallee resolves the function or method a call expression invokes
// statically, or nil when the callee is dynamic (interface method, function
// value, builtin, conversion). Generic instantiations resolve to their
// origin declaration.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit type instantiation: F[T](...) / v.M[T](...).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel != nil {
			// Method or method-value call. Interface methods have no
			// body in the program; the node lookup filters them out.
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// DisplayName renders the node for witness chains: "pkg.Func" for
// functions, "pkg.(Recv).Method" for methods.
func (n *FuncNode) DisplayName() string {
	pkgName := n.Func.Pkg().Name()
	sig := n.Func.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		local := func(p *types.Package) string { return "" }
		return pkgName + ".(" + types.TypeString(recv.Type(), local) + ")." + n.Func.Name()
	}
	return pkgName + "." + n.Func.Name()
}
