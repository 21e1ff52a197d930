// Command lmexp regenerates the paper's tables and figures from the
// simulated measurement world.
//
// Usage:
//
//	lmexp -fig 1            # reproduce Figure 1
//	lmexp -fig 5 -clients 4000
//	lmexp -table headline   # reproduce the §3 survey numbers
//	lmexp -all              # everything (slow: full 646-AS surveys)
//	lmexp -all -ases 160 -fleet 60   # reduced-scale smoke run
//	GOMAXPROCS=1 lmexp -all          # the fully serial run
//
// Surveys, figure simulations, and ablations fan out over GOMAXPROCS
// goroutines. The deterministic keyed-RNG design makes the output
// byte-identical at any GOMAXPROCS; GOMAXPROCS=1 reproduces the fully
// serial run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/experiments"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "figure number to reproduce (1-9)")
		table   = flag.String("table", "", "table to reproduce (headline, ablations, v6delay, sensitivity)")
		all     = flag.Bool("all", false, "reproduce every figure and table")
		seed    = flag.Uint64("seed", 2020, "simulation seed")
		ases    = flag.Int("ases", 0, "survey world size (default 646)")
		fleet   = flag.Int("fleet", 0, "fig 1/2/8 fleet size (default 340)")
		clients = flag.Int("clients", 0, "CDN clients per Tokyo ISP (default 2000)")
		perBin  = flag.Int("perbin", 0, "traceroutes per 30-min bin (default 6)")
		saveDir = flag.String("save", "", "directory to persist survey JSON after running them")
		loadDir = flag.String("load", "", "directory to load persisted survey JSON from (skips the measurement step)")
		csvDir  = flag.String("csv", "", "directory to dump the selected figure's data series as CSV")
		metrics = flag.String("metrics", "", "write an end-of-run telemetry snapshot (Prometheus text) to this file (- for stdout)")
	)
	flag.Parse()

	o := experiments.Options{
		Seed:              *seed,
		WorldASes:         *ases,
		FleetSize:         *fleet,
		CDNClients:        *clients,
		TraceroutesPerBin: *perBin,
	}
	err := run(o, *fig, *table, *all, *saveDir, *loadDir, *csvDir)
	if *metrics != "" {
		// The process-wide registry carries the dsp cache and worker-pool
		// series accumulated across whatever the run exercised.
		if derr := lastmile.DefaultMetrics().DumpFile(*metrics); derr != nil {
			fmt.Fprintln(os.Stderr, "lmexp: metrics dump:", derr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmexp:", err)
		os.Exit(1)
	}
}

// surveySet obtains the survey set: from disk when loadDir is given,
// otherwise by running the surveys (persisting them when saveDir is
// given).
func surveySet(o experiments.Options, saveDir, loadDir string) (*experiments.SurveySet, error) {
	if loadDir != "" {
		return experiments.LoadSurveys(o, loadDir)
	}
	set, err := experiments.RunSurveys(o)
	if err != nil {
		return nil, err
	}
	if saveDir != "" {
		if err := experiments.SaveSurveys(set, saveDir); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// renderable is what every figure result provides; csvWriter is the
// optional CSV dump.
type renderable interface{ Render(io.Writer) error }
type csvWriter interface{ WriteCSV(string) error }

// emit renders r and, when csvDir is set and the result supports it,
// dumps its CSV series.
func emit(w io.Writer, r renderable, csvDir string) error {
	if err := r.Render(w); err != nil {
		return err
	}
	if csvDir == "" {
		return nil
	}
	cw, ok := r.(csvWriter)
	if !ok {
		return nil
	}
	if err := cw.WriteCSV(csvDir); err != nil {
		return err
	}
	fmt.Fprintf(w, "(CSV series written to %s)\n", csvDir)
	return nil
}

func run(o experiments.Options, fig int, table string, all bool, saveDir, loadDir, csvDir string) error {
	w := os.Stdout
	if all {
		return experiments.RenderAll(w, o)
	}
	switch {
	case table == "ablations":
		return experiments.RenderAblations(w, o)
	case table == "sensitivity":
		r, err := experiments.ProbeSensitivity(o)
		if err != nil {
			return err
		}
		return r.Render(w)
	case table == "v6delay":
		r, err := experiments.ExtensionV6Delay(o)
		if err != nil {
			return err
		}
		return r.Render(w)
	case table == "headline":
		set, err := surveySet(o, saveDir, loadDir)
		if err != nil {
			return err
		}
		return experiments.HeadlineFrom(set).Render(w)
	case fig == 1:
		r, err := experiments.Fig1(o)
		if err != nil {
			return err
		}
		return emit(w, r, csvDir)
	case fig == 2:
		r, err := experiments.Fig2(o)
		if err != nil {
			return err
		}
		return emit(w, r, csvDir)
	case fig == 3 || fig == 4:
		set, err := surveySet(o, saveDir, loadDir)
		if err != nil {
			return err
		}
		if fig == 3 {
			return emit(w, experiments.Fig3From(set), csvDir)
		}
		return emit(w, experiments.Fig4From(set), csvDir)
	case fig >= 5 && fig <= 7 || fig == 9:
		ts, err := experiments.RunTokyo(o)
		if err != nil {
			return err
		}
		switch fig {
		case 5:
			return emit(w, experiments.Fig5From(ts), csvDir)
		case 6:
			return emit(w, experiments.Fig6From(ts), csvDir)
		case 7:
			return emit(w, experiments.Fig7From(ts), csvDir)
		default:
			return emit(w, experiments.Fig9From(ts), csvDir)
		}
	case fig == 8:
		r, err := experiments.Fig8(o)
		if err != nil {
			return err
		}
		return emit(w, r, csvDir)
	default:
		return fmt.Errorf("nothing selected: use -fig 1..9, -table headline, or -all")
	}
}
