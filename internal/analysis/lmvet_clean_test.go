package analysis

import "testing"

// TestRepoIsClean runs the full lmvet suite, with the repo's default
// configuration, over every package in the module. It is the regression
// gate that keeps the codebase free of the defect classes the analyzers
// target: a dropped Close error, an allocation on a hot path, a lock
// taken in two orders, or an exported simulation entry point that
// reaches a nondeterminism source through any call chain (dettaint,
// which runs module-wide here and prints the witness chain) fails
// `go test ./...` with the exact finding.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := l.ResolvePatterns(l.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatalf("ResolvePatterns: %v", err)
	}
	if len(dirs) < 10 {
		t.Fatalf("suspiciously few package dirs resolved: %d", len(dirs))
	}
	diags, err := RunSuite(l, dirs)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
