// Command lmvet runs the repo-specific static-analysis suite over the
// last-mile congestion codebase: nondeterminism reaching the simulation
// entry points through the module call graph (dettaint), dropped
// Close/Flush errors on the ingest/report paths (errclose), hidden
// allocations reachable from //lmvet:hotpath roots (allocguard, over the
// intraprocedural escape/provenance dataflow lattice), and
// lock-acquisition-order cycles plus unsampled telemetry under hot locks
// (lockorder, over the module-wide lock graph).
//
// Usage:
//
//	lmvet [-sarif PATH] [packages]
//
// Packages follow the usual pattern syntax ("./...", "./internal/stats").
// With no arguments, ./... is analysed. -sarif also writes a SARIF 2.1.0
// report to PATH ("-" = stdout, in place of the plain findings).
//
// Findings can be suppressed inline with a
// "//lmvet:ignore <analyzer> <reason>" comment on (or directly above) the
// offending line.
//
// Exit codes: 0 — no findings; 1 — findings reported; 2 — usage, load,
// or type-check error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/last-mile-congestion/lastmile/internal/analysis"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lmvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifPath := fs.String("sarif", "", "write a SARIF 2.1.0 report to this path (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "lmvet:", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "lmvet:", err)
		return 2
	}
	dirs, err := loader.ResolvePatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "lmvet:", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "lmvet: no packages matched", patterns)
		return 2
	}

	diags, err := analysis.RunSuite(loader, dirs)
	if err != nil {
		fmt.Fprintln(stderr, "lmvet:", err)
		return 2
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, stdout, diags, loader.ModuleDir); err != nil {
			fmt.Fprintln(stderr, "lmvet:", err)
			return 2
		}
	}
	if *sarifPath != "-" {
		// With -sarif=- the report owns stdout.
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lmvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// writeSARIF writes the SARIF report to path, or stdout for "-".
func writeSARIF(path string, stdout io.Writer, diags []analysis.Diagnostic, moduleDir string) error {
	if path == "-" {
		return analysis.WriteSARIF(stdout, diags, moduleDir)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := analysis.WriteSARIF(f, diags, moduleDir); err != nil {
		ioutil.CloseQuiet(f)
		return err
	}
	return f.Close()
}
