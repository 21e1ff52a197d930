package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkFlowSrc type-checks an import-free snippet and returns the
// FuncFlow of the named function plus the shared type info.
func checkFlowSrc(t *testing.T, src, fnName string) (*FuncFlow, *types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "flow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	if _, err := conf.Check("flow", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fnName {
			return BuildFuncFlow(info, fd), info, fd
		}
	}
	t.Fatalf("no function %q in snippet", fnName)
	return nil, nil, nil
}

// localOf finds a variable by name among the function's defs/params.
func localOf(t *testing.T, flow *FuncFlow, info *types.Info, fd *ast.FuncDecl, name string) *types.Var {
	t.Helper()
	var found *types.Var
	ast.Inspect(fd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		if v, ok := info.Defs[id].(*types.Var); ok {
			found = v
		}
		return true
	})
	if found == nil {
		t.Fatalf("no variable %q in %s", name, fd.Name.Name)
	}
	return found
}

func TestHasHotPathDirective(t *testing.T) {
	src := `package flow

// Hot is annotated.
//
//lmvet:hotpath
func Hot() {}

// Cold mentions lmvet:hotpath in prose but carries no directive line,
// and an ignore directive is not a hotpath one.
//lmvet:ignore errclose not a hotpath marker
func Cold() {}
`
	_, _, hot := checkFlowSrc(t, src, "Hot")
	if !HasHotPathDirective(hot) {
		t.Error("Hot: directive not detected")
	}
	_, _, cold := checkFlowSrc(t, src, "Cold")
	if HasHotPathDirective(cold) {
		t.Error("Cold: false directive detection")
	}
}

// TestEscapeLattice drives each sink class: returns and closure
// captures reach heap, call arguments reach arg, frame-local values
// stay none, and aliasing propagates the class backwards.
func TestEscapeLattice(t *testing.T) {
	src := `package flow

func use(p *int) {}

var published *int

func f(n int) *int {
	local := new(int)   // stays local until aliased below
	arg := new(int)     // flows into a call
	kept := new(int)    // never leaves
	ret := local        // alias of local; returned
	use(arg)
	_ = kept
	cap1 := new(int)
	go func() { _ = cap1 }()
	pub := new(int)
	published = pub
	return ret
}
`
	flow, info, fd := checkFlowSrc(t, src, "f")
	cases := []struct {
		name string
		want EscapeClass
	}{
		{"local", EscHeap}, // via the ret alias
		{"arg", EscArg},
		{"kept", EscNone},
		{"ret", EscHeap},
		{"cap1", EscHeap},
		{"pub", EscHeap}, // stored into a package-level var
	}
	for _, c := range cases {
		v := localOf(t, flow, info, fd, c.name)
		if got := flow.Escape(v); got != c.want {
			t.Errorf("Escape(%s) = %s, want %s", c.name, got, c.want)
		}
	}
	if n := localOf(t, flow, info, fd, "n"); !flow.IsParam(n) {
		t.Error("n not classified as a parameter")
	}
}

// TestProvenance drives the def-chain resolution: make with and without
// capacity, reslices, parameters, self-append preservation, and the
// conflicting-defs degradation.
func TestProvenance(t *testing.T) {
	src := `package flow

func g(param []int, pick bool) []int {
	sized := make([]int, 0, 8)
	sized = append(sized, 1) // self-append keeps make(cap)
	unsized := make([]int, 4)
	scratch := param[:0]
	lit := []int{1, 2}
	either := sized
	if pick {
		either = lit
	}
	_ = unsized
	_ = scratch
	return either
}
`
	flow, info, fd := checkFlowSrc(t, src, "g")
	expr := func(name string) ast.Expr {
		var id *ast.Ident
		ast.Inspect(fd, func(n ast.Node) bool {
			if e, ok := n.(*ast.Ident); ok && e.Name == name && info.Uses[e] != nil && id == nil {
				id = e
			}
			return true
		})
		if id == nil {
			t.Fatalf("no use of %q", name)
		}
		return id
	}
	cases := []struct {
		name string
		want Provenance
	}{
		{"sized", ProvMakeCap},
		{"unsized", ProvMakeNoCap},
		{"scratch", ProvReslice},
		{"param", ProvParam},
		{"lit", ProvComposite},
		{"either", ProvUnknown}, // sized vs lit: conflicting defs
	}
	for _, c := range cases {
		if got := flow.ProvenanceOf(expr(c.name)); got != c.want {
			t.Errorf("ProvenanceOf(%s) = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestDefUseChains pins the def and use bookkeeping the analyzers
// resolve provenance through.
func TestDefUseChains(t *testing.T) {
	src := `package flow

func h() int {
	x := 1
	x = 2
	y := x + x
	return y
}
`
	flow, info, fd := checkFlowSrc(t, src, "h")
	x := localOf(t, flow, info, fd, "x")
	if got := len(flow.Defs(x)); got != 2 {
		t.Errorf("len(Defs(x)) = %d, want 2", got)
	}
	// Three uses: the plain-assignment LHS counts as a use in
	// types.Info.Uses, plus the two reads in x + x.
	if got := len(flow.Uses(x)); got != 3 {
		t.Errorf("len(Uses(x)) = %d, want 3", got)
	}
	y := localOf(t, flow, info, fd, "y")
	if got := len(flow.Defs(y)); got != 1 {
		t.Errorf("len(Defs(y)) = %d, want 1", got)
	}
}
