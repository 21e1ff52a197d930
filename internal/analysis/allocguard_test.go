package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// allocGuardFixtureDirs are the package directories of the multi-package
// allocguard golden fixture.
func allocGuardFixtureDirs(t *testing.T) (*Loader, []string) {
	t.Helper()
	root := filepath.Join("testdata", "src", "allocguard")
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l, []string{root, filepath.Join(root, "dep")}
}

// allocGuardOnly is the suite with just the allocguard analyzer.
var allocGuardOnly = []*Analyzer{AllocGuardAnalyzer}

// TestAllocGuardGolden drives the hot-set reachability and every
// allocation class over the fixture: call edges, reference edges,
// cross-package chains, capacity/reslice provenance, the escape
// lattice's stack-vs-heap answer, and inline suppressions.
func TestAllocGuardGolden(t *testing.T) {
	l, dirs := allocGuardFixtureDirs(t)
	diags, err := runAnalyzers(l, dirs, DefaultConfig(), allocGuardOnly)
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	checkWants(t, l.Loaded(), diags)
}

// TestAllocGuardWitnessDetail pins the exact shape of one cross-package
// witness message: chain order, allocation description, and advice.
func TestAllocGuardWitnessDetail(t *testing.T) {
	l, dirs := allocGuardFixtureDirs(t)
	diags, err := runAnalyzers(l, dirs, DefaultConfig(), allocGuardOnly)
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	var msg string
	for _, d := range diags {
		if strings.Contains(d.Message, "dep.Note") {
			msg = d.Message
		}
	}
	if msg == "" {
		t.Fatalf("no dep.Note diagnostic in %d findings", len(diags))
	}
	want := "hot path allocates: allocguard.Ingest ← dep.Note ← " +
		"boxes int into any; store a pointer or keep the variable concrete"
	if msg != want {
		t.Errorf("witness message:\n got %q\nwant %q", msg, want)
	}
}
