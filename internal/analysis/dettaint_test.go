package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// detTaintFixtureDirs are the package directories of the multi-package
// dettaint golden fixture, in the order the suite receives them.
func detTaintFixtureDirs(t *testing.T) (*Loader, []string) {
	t.Helper()
	root := filepath.Join("testdata", "src", "dettaint")
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs := []string{
		filepath.Join(root, "helper"),
		filepath.Join(root, "helper", "clock"),
		filepath.Join(root, "internal", "experiments"),
		filepath.Join(root, "internal", "netsim"),
	}
	return l, dirs
}

// detTaintOnly is the suite with just the dettaint analyzer; it runs
// with the repo's default sink selection.
var detTaintOnly = []*Analyzer{DetTaintAnalyzer}

// TestDetTaintGolden drives the taint engine over the multi-package
// fixture and asserts the witness-chain diagnostics via // want comments:
// tainted chains (through helpers, methods, and directly) are flagged
// with their full sink ← f ← g ← source chain, while sanitized chains
// (keyed netsim API, sort canonicalisation, inline suppressions,
// unexported functions) stay silent.
func TestDetTaintGolden(t *testing.T) {
	l, dirs := detTaintFixtureDirs(t)
	diags, err := runAnalyzers(l, dirs, DefaultConfig(), detTaintOnly)
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	checkWants(t, l.Loaded(), diags)
}

// TestDetTaintWitnessDetail pins the exact shape of one witness message:
// chain order, source position, and advice.
func TestDetTaintWitnessDetail(t *testing.T) {
	l, dirs := detTaintFixtureDirs(t)
	diags, err := runAnalyzers(l, dirs, DefaultConfig(), detTaintOnly)
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	var msg string
	for _, d := range diags {
		if strings.Contains(d.Message, "entry point TaintedClock ") {
			msg = d.Message
		}
	}
	if msg == "" {
		t.Fatalf("no TaintedClock diagnostic in %d findings", len(diags))
	}
	want := "exported entry point TaintedClock reaches time.Now: " +
		"experiments.TaintedClock ← helper.Stamp ← clock.Unix ← time.Now (clock.go:9); " +
		"thread a clock or timestamp parameter in explicitly"
	if msg != want {
		t.Errorf("witness message:\n got %q\nwant %q", msg, want)
	}
}
