package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
)

// tinyParams is the self-test campaign: the world's minimum of 77 ASes,
// one probe each, 5 days, 3 traceroutes per probe per bin.
var tinyParams = params{ASes: 77, ProbesPerAS: 1, Days: 5, CutDay: 3, Msm: 3}

// fixture is the tiny campaign and lmsurvey binary every test shares.
var fixture struct {
	e *env
	c *campaign
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lmbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := func() int {
		defer os.RemoveAll(dir)
		if err := setUp(dir); err != nil {
			fmt.Fprintln(os.Stderr, "set-up:", err)
			return 1
		}
		return m.Run()
	}()
	os.Exit(code)
}

func setUp(dir string) error {
	root, err := filepath.Abs("..")
	if err != nil {
		return err
	}
	e := &env{work: filepath.Join(dir, "work"), traceOut: filepath.Join(dir, "trace.json")}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	if e.lmsurvey, err = buildLMSurvey(context.Background(), root, dir); err != nil {
		return err
	}
	const seed = 2020
	c, err := openCampaign(dir, root, seed, tinyParams, func(d string) error { return generate(d, seed, tinyParams) })
	if err != nil {
		return err
	}
	fixture.e, fixture.c = e, c
	return nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkEmitted asserts a correct run emits exactly the declared metrics
// of kind k, each well named, with a unit and a finite value.
func checkEmitted(t *testing.T, res *result, k kind, declared map[string]string) {
	t.Helper()
	if !res.correct {
		t.Fatalf("%s: gate failed: %v", res.workload, res.err)
	}
	if res.attempted < 1 || res.failed != 0 {
		t.Errorf("%s: %d of %d operations failed", res.workload, res.failed, res.attempted)
	}
	got := map[string]bool{}
	for _, m := range res.metrics {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("%s: metric %q has a malformed name or unit %q", res.workload, m.name, m.unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: metric %s = %v", res.workload, m.name, m.value)
		}
		if m.kind != k {
			continue
		}
		if got[m.name] {
			t.Errorf("%s: metric %s emitted twice", res.workload, m.name)
		}
		got[m.name] = true
		if unit, ok := declared[m.name]; !ok || unit != m.unit {
			t.Errorf("%s: metric %s [%s] is not declared in BENCHMARK.json (declared unit %q)", res.workload, m.name, m.unit, unit)
		}
	}
	for name := range declared {
		if !got[name] {
			t.Errorf("%s: declared metric %s not emitted", res.workload, name)
		}
	}
}

// TestWorkloads runs every workload, and the traced run, on the tiny
// campaign: each gate must pass and each run must emit exactly the
// metrics BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	endToEndUnits, layerUnits := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if fmt.Sprint(declared) != fmt.Sprint(workloads) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, workloads)
	}

	start := time.Now()
	ctx := context.Background()
	for _, name := range workloads {
		res, err := runWorkload(ctx, fixture.e, fixture.c, name, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEmitted(t, res, endToEnd, endToEndUnits)
	}
	// The traced run replays the same replicas under every workload name.
	res, err := runTraced(ctx, fixture.e, fixture.c, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, perLayer, layerUnits)
	if _, err := os.Stat(fixture.e.traceOut); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
	t.Logf("all workloads and the traced run took %v", time.Since(start))
}

// TestGateRejectsPerturbedReference perturbs one reference verdict: the
// survey gate must fail the run, and the daemon gate must tell the
// fingerprints apart.
func TestGateRejectsPerturbedReference(t *testing.T) {
	bad := *fixture.c
	bad.Reference = append([]surveyRow(nil), fixture.c.Reference...)
	if bad.Reference[0].Class == "None" {
		bad.Reference[0].Class = "Severe"
	} else {
		bad.Reference[0].Class = "None"
	}
	res, err := runSurvey(context.Background(), fixture.e, &bad, "survey-wire", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct {
		t.Fatal("survey gate passed against a perturbed reference")
	}

	v := &verdictBits{amp: math.Float64bits(1.5), values: []uint64{math.Float64bits(0.25)}}
	w := *v
	w.values = []uint64{math.Float64bits(math.Nextafter(0.25, 1))}
	if sameBits(map[bgp.ASN]*verdictBits{1: v}, map[bgp.ASN]*verdictBits{1: &w}) == nil {
		t.Fatal("daemon gate missed a one-ulp signal difference")
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(xs, n=4), which the spread rule is stated in.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // two values extrapolate, as in Python
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestJudge covers compare's four verdicts.
func TestJudge(t *testing.T) {
	seq := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + float64(i)*0.01*base/10
		}
		return xs
	}
	pairs := func(a, b []float64) [][2]float64 {
		var out [][2]float64
		for i := range a {
			out = append(out, [2]float64{a[i], b[i]})
		}
		return out
	}
	wide := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"same", seq(100), seq(100), withinBound},
		{"faster", seq(100), seq(80), better},
		{"slower", seq(100), seq(120), worse},
		{"noisy", wide, wide, unresolved},
	} {
		got := judge(tc.old, tc.new, pairs(tc.old, tc.new), 0.1, false).verdict
		if got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := judge(seq(100), seq(80), nil, 0.1, true).verdict; got != worse {
		t.Errorf("a drop in a higher-is-better metric: verdict %q, want %q", got, worse)
	}
}
