// Command bench is the repository's benchmark: one seeded campaign run
// through the lmsurvey binary and the lmserved daemon (internal/serve)
// under four workloads, with every output checked against a reference
// computation. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                                  # every workload, seed 2020
//	bash bench/run.sh --workload survey-wire --seed 7  # one workload
//	bash bench/run.sh --workload serve-live --trace 1  # the traced per-layer run
//	bash bench/run.sh compare old.jsonl new.jsonl      # compare recorded runs
//
// Every metric prints as "workload metric value unit"; the last line of
// standard output is one JSON object with the run's correctness,
// operation counts and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// workloads in the order a full run executes them.
var workloads = []string{"survey-wire", "survey-json", "serve-live", "serve-backfill"}

// kind says where a metric is reported.
type kind int

const (
	// endToEnd metrics are what a user sees; they are reported with
	// --trace 0 and gated by BENCHMARK.json's bounds.
	endToEnd kind = iota
	// perLayer metrics come from the traced run (--trace 1).
	perLayer
	// diagnostic metrics are printed as text only: workload-specific
	// numbers no other workload can report, and load-generator validity.
	diagnostic
)

type metric struct {
	name, unit string
	kind       kind
	value      float64
	samples    []float64
}

// result is one workload run.
type result struct {
	workload          string
	correct           bool
	attempted, failed int
	err               error // why correct is false
	metrics           []metric
}

func (r *result) add(k kind, name, unit string, value float64, samples []float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, kind: k, value: value, samples: samples})
}

// fail marks the run incorrect.
func (r *result) fail(err error) *result {
	r.correct, r.err = false, err
	return r
}

// env is what a run needs from its surroundings.
type env struct {
	work     string // this run's scratch directory
	lmsurvey string // lmsurvey binary built from the repository
	traceOut string // where the traced run writes its spans
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "gen":
			exitOn(runGen(os.Args[2:]))
			return
		case "compare":
			exitOn(runCompare(os.Args[2:], os.Stdout))
			return
		}
	}
	var (
		workload = flag.String("workload", "all", "workload to run: all, "+fmt.Sprint(workloads))
		seed     = flag.Uint64("seed", 2020, "campaign seed (2020 is the default seed, 7 the hold-out)")
		seconds  = flag.Float64("seconds", 15, "how long each workload measures")
		trace    = flag.Int("trace", 0, "1 = the traced per-layer run instead of the end-to-end run")
		traceOut = flag.String("trace-out", "", "where the traced run writes its spans (default: trace.json in the cache)")
		record   = flag.String("record", "", "append each run's metrics, samples and machine stamp to this JSONL file")
	)
	flag.Parse()
	names := workloads
	if *workload != "all" {
		if !slices.Contains(workloads, *workload) {
			exitOn(fmt.Errorf("unknown workload %q", *workload))
		}
		names = []string{*workload}
	}
	if *trace != 0 && *trace != 1 {
		exitOn(errors.New("--trace takes 0 or 1"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := run(ctx, names, *seed, *seconds, *trace == 1, *traceOut)
	if err != nil {
		exitOn(err)
	}
	if *record != "" {
		if err := appendRecords(*record, *seed, *seconds, *trace == 1, results); err != nil {
			exitOn(err)
		}
	}
	if !printResults(os.Stdout, results, *trace == 1) {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run prepares the environment and campaign, then runs each workload.
// The working directory is the repository root.
func run(ctx context.Context, names []string, seed uint64, seconds float64, traced bool, traceOut string) ([]*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "lmsurvey")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	cache := filepath.Join(os.TempDir(), "lmbench")
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return nil, err
	}
	e := &env{traceOut: traceOut}
	if e.work, err = os.MkdirTemp(cache, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	if e.traceOut == "" {
		e.traceOut = filepath.Join(cache, "trace.json")
	}
	if e.lmsurvey, err = buildLMSurvey(ctx, root, cache); err != nil {
		return nil, err
	}
	c, err := openCampaign(cache, root, seed, defaultParams, childGenerator(seed, defaultParams))
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, name := range names {
		var res *result
		if traced {
			res, err = runTraced(ctx, e, c, name)
		} else {
			res, err = runWorkload(ctx, e, c, name, seconds)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

func runWorkload(ctx context.Context, e *env, c *campaign, name string, seconds float64) (*result, error) {
	switch name {
	case "survey-wire", "survey-json":
		return runSurvey(ctx, e, c, name, seconds)
	case "serve-live":
		return runLive(ctx, e, c, seconds)
	default:
		return runBackfill(ctx, e, c, seconds)
	}
}

// buildLMSurvey compiles cmd/lmsurvey from the tree under test.
func buildLMSurvey(ctx context.Context, root, cache string) (string, error) {
	bin := filepath.Join(cache, "bin", "lmsurvey")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/lmsurvey")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build lmsurvey: %w\n%s", err, out)
	}
	return bin, nil
}

// printResults prints every metric as "workload metric value unit" and
// then the JSON result line. A run with a failed gate or a non-finite
// metric prints no metrics at all. It returns whether every run was
// correct.
func printResults(w io.Writer, results []*result, traced bool) bool {
	want := endToEnd
	if traced {
		want = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if !r.correct {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "bench: %s: incorrect output: %v\n", r.workload, r.err)
		}
		for _, m := range r.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				out.Correct = false
				fmt.Fprintf(os.Stderr, "bench: %s: metric %s is %v\n", r.workload, m.name, m.value)
			}
		}
	}
	for _, r := range results {
		if !out.Correct {
			break
		}
		for _, m := range r.metrics {
			fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
			if m.kind != want {
				continue
			}
			key := m.name
			if len(results) > 1 {
				key = r.workload + "." + m.name
			}
			out.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		fmt.Fprintf(w, "%s error_ratio %s ratio\n", r.workload,
			strconv.FormatFloat(float64(r.failed)/float64(max(r.attempted, 1)), 'g', -1, 64))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return out.Correct
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timedSetups runs setUp n times and returns each run's wall time in
// seconds.
func timedSetups(n int, setUp func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setUp(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}
