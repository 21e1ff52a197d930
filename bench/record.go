package main

// Recording runs and comparing two sets of them. A record is one JSON
// line per workload run: every metric with its samples and quartiles,
// and a stamp of the machine and tree it was measured on. compare
// applies BENCHMARK.json's bounds to two files of records.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/report"
)

// stamp identifies where a run was measured.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

// machineStamp describes this machine and the commit checked out in the
// working directory, when it is a git checkout.
func machineStamp() stamp {
	s := stamp{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown",
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				s.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	return s
}

// record is one workload run.
type record struct {
	Stamp     stamp                `json:"stamp"`
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]recMetric `json:"metrics"`
}

// recMetric is one metric of a run. A metric measured once has no
// samples and its quartiles equal its value.
type recMetric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
}

// appendRecords appends one line per result to path.
func appendRecords(path string, seed uint64, seconds float64, traced bool, results []*result) (err error) {
	st := machineStamp()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	enc := json.NewEncoder(f)
	for _, r := range results {
		rec := record{
			Stamp: st, Workload: r.workload, Seed: seed, Seconds: seconds, Trace: traced,
			Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]recMetric{},
		}
		for _, m := range r.metrics {
			rm := recMetric{Value: m.value, Unit: m.unit, Samples: m.samples, Q1: m.value, Median: m.value, Q3: m.value}
			if len(m.samples) > 0 {
				rm.Q1, rm.Q3 = quartiles(m.samples)
				rm.Median = median(m.samples)
			}
			rec.Metrics[m.name] = rm
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer ioutil.CloseQuiet(f)
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace && r.Correct {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// Verdicts of a comparison.
const (
	better      = "better"
	worse       = "worse"
	withinBound = "within bound"
	unresolved  = "unresolved"
)

// runCompare is "compare OLD NEW", run from the repository root: for
// every end-to-end metric and workload in BENCHMARK.json it compares the
// runs recorded in NEW with those in OLD. It fails when any pairing is
// worse or unresolved.
func runCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: compare OLD.jsonl NEW.jsonl")
	}
	b, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		return err
	}
	oldRuns, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	newRuns, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	tb := report.NewTable("workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict")
	failed := 0
	for _, wl := range b.Workloads {
		for _, m := range b.EndToEnd {
			oldVals, newVals, pairs := collect(oldRuns, newRuns, wl.Name, m.Name)
			if len(oldVals) == 0 && len(newVals) == 0 {
				continue
			}
			v := judge(oldVals, newVals, pairs, m.Bound, m.Better == "higher")
			if v.verdict == worse || v.verdict == unresolved {
				failed++
			}
			tb.AddRowf(wl.Name, m.Name, v.old, v.new, v.change, fmt.Sprintf("%.0f%%", m.Bound*100), v.verdict)
		}
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d metric-workload pairing(s) worse or unresolved", failed)
	}
	return nil
}

// collect returns a metric's values in both sets and the (old, new)
// pairs of runs on the same seed.
func collect(oldRuns, newRuns []record, workload, metric string) (oldVals, newVals []float64, pairs [][2]float64) {
	bySeed := map[uint64]float64{}
	for _, r := range oldRuns {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			oldVals = append(oldVals, m.Value)
			bySeed[r.Seed] = m.Value
		}
	}
	for _, r := range newRuns {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			newVals = append(newVals, m.Value)
			if o, ok := bySeed[r.Seed]; ok {
				pairs = append(pairs, [2]float64{o, m.Value})
			}
		}
	}
	return oldVals, newVals, pairs
}

type judgement struct {
	old, new, change, verdict string
}

// judge applies the benchmark's rules to one metric on one workload:
//   - unresolved when either set's spread (quartile distance over
//     median) exceeds the bound, unless every new run beats every old
//     one;
//   - worse when the new median is worse than the old by more than the
//     bound;
//   - better only when the new run wins at least nine tenths of the
//     same-seed pairs and the medians differ by more than the old set's
//     quartile distance;
//   - within bound otherwise.
func judge(oldVals, newVals []float64, pairs [][2]float64, bound float64, higherIsBetter bool) judgement {
	describe := func(xs []float64) string {
		if len(xs) == 0 {
			return "-"
		}
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
	}
	j := judgement{old: describe(oldVals), new: describe(newVals), change: "-", verdict: unresolved}
	if len(oldVals) < 2 || len(newVals) < 2 {
		return j
	}
	improves := func(from, to float64) bool {
		if higherIsBetter {
			return to > from
		}
		return to < from
	}
	oldMed, newMed := median(oldVals), median(newVals)
	oq1, oq3 := quartiles(oldVals)
	nq1, nq3 := quartiles(newVals)
	change := (newMed - oldMed) / oldMed
	j.change = fmt.Sprintf("%+.1f%%", change*100)
	worsening := change
	if higherIsBetter {
		worsening = -change
	}
	allBetter := true
	for _, o := range oldVals {
		for _, n := range newVals {
			allBetter = allBetter && improves(o, n)
		}
	}
	wins := 0
	for _, p := range pairs {
		if improves(p[0], p[1]) {
			wins++
		}
	}
	switch {
	case (oq3-oq1)/oldMed > bound || (nq3-nq1)/newMed > bound:
		if allBetter {
			j.verdict = better
		}
	case worsening > bound:
		j.verdict = worse
	case len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) && math.Abs(newMed-oldMed) > oq3-oq1:
		j.verdict = better
	default:
		j.verdict = withinBound
	}
	return j
}
