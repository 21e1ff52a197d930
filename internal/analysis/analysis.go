// Package analysis implements lmvet, a repo-specific static-analysis
// suite for the last-mile congestion pipeline. It is built purely on the
// standard library's go/ast, go/parser, and go/types packages — no
// external analysis framework — so the module stays dependency-free.
//
// The defect classes it targets are the ones that change output or
// allocate on the ingest hot path without failing any test:
// nondeterminism reaching the simulation entry points that must
// reproduce EXPERIMENTS.md bit-for-bit (dettaint), dropped
// Close/Flush/Sync/Write errors on the ingest/report paths (errclose),
// hidden allocations on //lmvet:hotpath-annotated ingest paths
// (allocguard), and lock-acquisition-order cycles or unsampled telemetry
// under hot locks (lockorder). Each analyzer is kept because a seeded
// bug that changes output or breaks 0 allocs/op escapes go vet, the
// -race test run and the zero-alloc benchmark gates but not the analyzer
// (DESIGN.md §8).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Pass carries one loaded, type-checked package through an analyzer.
type Pass struct {
	// Fset resolves token positions for every file of the package.
	Fset *token.FileSet
	// Files are the package's parsed non-test files.
	Files []*ast.File
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries the whole-program view through a module-wide
// analyzer (one with RunModule set): every loaded package plus the static
// call graph over them.
type ModulePass struct {
	// Prog is the call graph over every package the loader pulled in.
	Prog *Program
	// Cfg is the suite configuration (sink package selection, scoping).
	Cfg Config

	analyzer      *Analyzer
	diags         *[]Diagnostic
	requestedPkgs map[string]bool
	ignores       *ignoreIndex
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// requested reports whether pkg was one of the directories the suite was
// asked to analyze (rather than a dependency pulled in for the graph).
// Module analyzers report findings only into requested packages.
func (p *ModulePass) requested(pkg *Package) bool {
	return p.requestedPkgs[pkg.Path]
}

// Analyzer is one named check over a package or over the whole module.
type Analyzer struct {
	// Name is the identifier findings and lmvet:ignore directives use
	// (e.g. "errclose").
	Name string
	// Doc is a one-line description, the rule text of the SARIF report.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	// Exactly one of Run and RunModule is set.
	Run func(pass *Pass) error
	// RunModule inspects the whole loaded module at once — analyzers that
	// need the cross-package call graph (dettaint) set this instead of Run.
	RunModule func(pass *ModulePass) error
}

// Diagnostic is one finding, resolved to a file position. Every finding
// is an error: it fails the lmvet run.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic in the canonical file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns every analyzer in the suite, sorted by name.
func All() []*Analyzer {
	as := []*Analyzer{
		DetTaintAnalyzer,
		ErrCloseAnalyzer,
		AllocGuardAnalyzer,
		LockOrderAnalyzer,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// RunAnalyzer applies one per-package analyzer to one loaded package and
// returns its diagnostics sorted by position. Module-wide analyzers (Run
// nil) yield nothing here; they run through RunSuite.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	if a.Run == nil {
		return nil, nil
	}
	var diags []Diagnostic
	pass := &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Info:     pkg.Info,
		analyzer: a,
		diags:    &diags,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
