package analysis

import "strings"

// Config says where the analyzers' findings apply.
type Config struct {
	// Scope maps analyzer name -> import-path substrings the analyzer is
	// confined to. Analyzers without an entry apply everywhere. Scope
	// applies to per-package analyzers; module-wide analyzers see the
	// whole program and confine their reporting themselves (see
	// TaintSinks).
	Scope map[string][]string
	// TaintSinks are the import-path substrings whose exported entry
	// points the dettaint analyzer treats as sinks.
	TaintSinks []string
	// HotPathLocks are lock-class substrings (see lockorder's structural
	// "pkg.Type.field" naming) treated as hot-path critical sections:
	// telemetry calls while one is held must sit inside the sampled-tick
	// guard.
	HotPathLocks []string
}

// DefaultConfig returns the repo's lmvet policy: errclose confined to
// the ingest/report paths, the experiment artifact writers and the
// binaries, and dettaint guarding the exported surface of every package
// that feeds the EXPERIMENTS.md artifacts.
func DefaultConfig() Config {
	return Config{
		Scope: map[string][]string{
			"errclose": {
				"internal/ioutil",
				"internal/traceroute",
				"internal/report",
				"internal/experiments",
				"/cmd/",
			},
		},
		TaintSinks: []string{
			"internal/netsim",
			"internal/scenario",
			"internal/dsp",
			"internal/experiments",
		},
		HotPathLocks: []string{
			"engine.shard.mu",
		},
	}
}

// inScope reports whether the analyzer applies to the package path.
func (c Config) inScope(name, pkgPath string) bool {
	subs := c.Scope[name]
	if len(subs) == 0 {
		return true
	}
	for _, s := range subs {
		if strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}

// RunSuite loads every package directory and applies every analyzer
// under the repo's policy (DefaultConfig), returning all findings sorted
// by position. Load and type-check failures abort the run.
func RunSuite(l *Loader, dirs []string) ([]Diagnostic, error) {
	return runAnalyzers(l, dirs, DefaultConfig(), All())
}

// runAnalyzers is RunSuite over the given analyzers: the per-package
// ones run on each package in scope, the module-wide ones (dettaint,
// allocguard, lockorder) once over the call graph of everything loaded.
// Finally lmvet:ignore suppressions are applied; a malformed or unknown
// directive is itself a finding.
func runAnalyzers(l *Loader, dirs []string, cfg Config, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs := make([]*Package, len(dirs))
	for i, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs[i] = pkg
	}

	var all []Diagnostic
	var moduleWide []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			moduleWide = append(moduleWide, a)
			continue
		}
		for _, pkg := range pkgs {
			if !cfg.inScope(a.Name, pkg.Path) {
				continue
			}
			diags, err := RunAnalyzer(a, pkg)
			if err != nil {
				return nil, err
			}
			all = append(all, diags...)
		}
	}

	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	loaded := l.Loaded()
	ignores, malformed := buildIgnoreIndex(loaded, known)

	if len(moduleWide) > 0 {
		prog := BuildProgram(l.Fset(), loaded)
		requested := make(map[string]bool, len(pkgs))
		for _, p := range pkgs {
			requested[p.Path] = true
		}
		for _, a := range moduleWide {
			mp := &ModulePass{
				Prog:          prog,
				Cfg:           cfg,
				analyzer:      a,
				diags:         &all,
				requestedPkgs: requested,
				ignores:       ignores,
			}
			if err := a.RunModule(mp); err != nil {
				return nil, err
			}
		}
	}

	all = ignores.filter(all)
	all = append(all, malformed...)
	sortDiagnostics(all)
	return all, nil
}
