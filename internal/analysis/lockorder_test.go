package analysis

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lockOrderFixtureDirs are the package directories of the lockorder
// golden fixture.
func lockOrderFixtureDirs(t *testing.T) (*Loader, []string) {
	t.Helper()
	root := filepath.Join("testdata", "src", "lockorder")
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l, []string{root, filepath.Join(root, "telemetry")}
}

// lockOrderConfig is the default policy with the fixture's shard lock as
// the hot class.
func lockOrderConfig() Config {
	cfg := DefaultConfig()
	cfg.HotPathLocks = []string{"locks.shard.mu"}
	return cfg
}

// TestLockOrderGolden drives the order-graph construction over the
// fixture: the direct alpha/beta cycle, the delta/epsilon cycle closed
// through a callback run under a lock, acyclic interprocedural edges
// staying silent, the TryLock contention idiom, the sampled-tick guard,
// and inline suppressions.
func TestLockOrderGolden(t *testing.T) {
	l, dirs := lockOrderFixtureDirs(t)
	diags, err := runAnalyzers(l, dirs, lockOrderConfig(), []*Analyzer{LockOrderAnalyzer})
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	checkWants(t, l.Loaded(), diags)
}

// TestLockOrderCycleDetail pins the shape of the direct cycle's message:
// both opposing edges with their witness sites, and the advice.
func TestLockOrderCycleDetail(t *testing.T) {
	l, dirs := lockOrderFixtureDirs(t)
	diags, err := runAnalyzers(l, dirs, lockOrderConfig(), []*Analyzer{LockOrderAnalyzer})
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	var msg string
	for _, d := range diags {
		if strings.Contains(d.Message, "locks.alpha.mu, locks.beta.mu") {
			msg = d.Message
		}
	}
	if msg == "" {
		t.Fatalf("no alpha/beta cycle diagnostic in %d findings", len(diags))
	}
	want := regexp.MustCompile(`^lock order cycle between locks\.alpha\.mu, locks\.beta\.mu \(potential deadlock\): ` +
		`locks\.alpha\.mu → locks\.beta\.mu at locks\.go:\d+; ` +
		`locks\.beta\.mu → locks\.alpha\.mu at locks\.go:\d+; ` +
		`acquire these locks in one global order$`)
	if !want.MatchString(msg) {
		t.Errorf("cycle message %q does not match %q", msg, want)
	}
}

// TestLockOrderRepoEdges pins two real dynamic edges the callback
// modelling exists for: the registry mutex orders before the engine
// shard lock and before the daemon mutex, because Snapshot evaluates
// GaugeFunc closures under the registry lock and the engine's and the
// daemon's closures take those locks. It also pins that the repo graph
// stays cycle-free. The other callback shape, a lock held across a
// caller-supplied function, is pinned by the withDelta fixture.
func TestLockOrderRepoEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := l.ResolvePatterns(l.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatalf("ResolvePatterns: %v", err)
	}
	for _, dir := range dirs {
		if _, err := l.Load(dir); err != nil {
			t.Fatalf("Load(%s): %v", dir, err)
		}
	}
	prog := BuildProgram(l.Fset(), l.Loaded())
	lo := &lockOrder{
		prog:     prog,
		acquires: make(map[*FuncNode]map[string]bool),
		visiting: make(map[*FuncNode]bool),
		edges:    make(map[[2]string]token.Pos),
	}
	var diags []Diagnostic
	mp := &ModulePass{
		Prog:          prog,
		Cfg:           DefaultConfig(),
		analyzer:      LockOrderAnalyzer,
		diags:         &diags,
		requestedPkgs: map[string]bool{},
	}
	for _, node := range prog.Nodes() {
		lo.scanFunction(mp, node)
	}
	lo.reportCycles(mp)
	for _, d := range diags {
		if strings.Contains(d.Message, "cycle") {
			t.Errorf("repo lock graph has a cycle: %s", d)
		}
	}
	wantEdges := [][2]string{
		{"telemetry.Registry.mu", "engine.shard.mu"},
		{"telemetry.Registry.mu", "serve.Daemon.mu"},
	}
	for _, w := range wantEdges {
		if _, ok := lo.edges[w]; !ok {
			t.Errorf("expected lock-order edge %s → %s not found; edges: %v", w[0], w[1], edgeKeys(lo))
		}
	}
}

func edgeKeys(lo *lockOrder) [][2]string {
	var out [][2]string
	for k := range lo.edges {
		out = append(out, k)
	}
	return out
}
