package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
)

// wantRE matches the golden expectation syntax: // want "substring",
// with several quoted substrings per comment allowed.
var wantRE = regexp.MustCompile(`want "([^"]+)"`)

// testGolden loads the fixture package in testdata/src/<name> and checks
// the analyzer's diagnostics against the // want comments: every want
// must be matched by a diagnostic on its line, and every diagnostic must
// be covered by a want.
func testGolden(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	diags, err := RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatalf("RunAnalyzer: %v", err)
	}
	checkWants(t, []*Package{pkg}, diags)
}

// checkWants compares diagnostics against the // want comments across all
// fixture packages: every want must be matched by a diagnostic on its
// line, and every diagnostic must be covered by a want.
func checkWants(t *testing.T, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						pos := pkg.Fset.Position(c.Pos())
						k := lineKey{filepath.Base(pos.Filename), pos.Line}
						wants[k] = append(wants[k], m[1])
					}
				}
			}
		}
	}

	matched := make(map[lineKey][]bool)
	for k, subs := range wants {
		matched[k] = make([]bool, len(subs))
	}
	for _, d := range diags {
		k := lineKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		ok := false
		for i, sub := range wants[k] {
			if regexp.MustCompile(regexp.QuoteMeta(sub)).MatchString(d.Message) {
				matched[k][i] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, subs := range wants {
		for i, sub := range subs {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, sub)
			}
		}
	}
	if t.Failed() {
		for _, d := range diags {
			fmt.Println("  got:", d)
		}
	}
}

func TestErrCloseGolden(t *testing.T) { testGolden(t, ErrCloseAnalyzer, "errclose") }
