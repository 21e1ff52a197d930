package experiments

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// These tests are the determinism contract that makes the parallel path
// safe: a serial run (GOMAXPROCS 1) and a wide run (GOMAXPROCS 8) must
// agree bit for bit on every survey verdict and every Tokyo series.
// Signals carry NaN gap bins, so floats are compared by bit pattern.

func sameF64s(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func sameSeries(t *testing.T, label string, a, b *timeseries.Series) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch (serial %v, parallel %v)", label, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if !a.Start.Equal(b.Start) || a.Step != b.Step {
		t.Fatalf("%s: axis differs: (%v, %v) vs (%v, %v)", label, a.Start, a.Step, b.Start, b.Step)
	}
	sameF64s(t, label, a.Values, b.Values)
}

func sameSurvey(t *testing.T, label string, a, b *core.Survey) {
	t.Helper()
	if a.Period != b.Period {
		t.Fatalf("%s: period %q vs %q", label, a.Period, b.Period)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: AS count %d vs %d", label, len(a.Results), len(b.Results))
	}
	for asn, ra := range a.Results {
		rb := b.Results[asn]
		if rb == nil {
			t.Fatalf("%s: AS%v present serially, missing in parallel run", label, asn)
		}
		if ra.Probes != rb.Probes || ra.Class != rb.Class || ra.IsDaily != rb.IsDaily {
			t.Fatalf("%s: AS%v verdict differs: {%d, %v, %v} vs {%d, %v, %v}", label, asn,
				ra.Probes, ra.Class, ra.IsDaily, rb.Probes, rb.Class, rb.IsDaily)
		}
		if math.Float64bits(ra.DailyAmplitude) != math.Float64bits(rb.DailyAmplitude) {
			t.Fatalf("%s: AS%v daily amplitude %v vs %v", label, asn, ra.DailyAmplitude, rb.DailyAmplitude)
		}
		if fmt.Sprintf("%#v", ra.Peak) != fmt.Sprintf("%#v", rb.Peak) {
			t.Fatalf("%s: AS%v peak %#v vs %#v", label, asn, ra.Peak, rb.Peak)
		}
		sameSeries(t, fmt.Sprintf("%s AS%v signal", label, asn), ra.Signal, rb.Signal)
	}
}

// equivOpts is reduced further than smallOpts: both tests here run their
// whole experiment twice. 77 ASes is the smallest world scenario.Build
// accepts (the reported archetypes plus ten), and 3 traceroutes per bin
// the lowest cadence it keeps.
var equivOpts = Options{
	Seed:              2020,
	WorldASes:         77,
	FleetSize:         24,
	CDNClients:        100,
	TraceroutesPerBin: 3,
}

// atProcs runs the experiment at GOMAXPROCS procs on equivOpts and
// restores the previous setting.
func atProcs[T any](t *testing.T, procs int, run func(Options) (T, error)) T {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	v, err := run(equivOpts)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	return v
}

func TestRunSurveysWorkerEquivalence(t *testing.T) {
	serial, wide := atProcs(t, 1, RunSurveys), atProcs(t, 8, RunSurveys)
	if len(serial.Longitudinal) != len(wide.Longitudinal) {
		t.Fatalf("longitudinal count %d vs %d", len(serial.Longitudinal), len(wide.Longitudinal))
	}
	for i := range serial.Longitudinal {
		sameSurvey(t, serial.Longitudinal[i].Period, serial.Longitudinal[i], wide.Longitudinal[i])
	}
	sameSurvey(t, "COVID", serial.COVID, wide.COVID)
}

func TestRunTokyoWorkerEquivalence(t *testing.T) {
	serial, wide := atProcs(t, 1, RunTokyo), atProcs(t, 8, RunTokyo)
	for _, d := range []struct {
		name string
		a, b *timeseries.Series
		an   int
		bn   int
	}{
		{"DelayA", serial.DelayA.Signal, wide.DelayA.Signal, serial.DelayA.Probes, wide.DelayA.Probes},
		{"DelayB", serial.DelayB.Signal, wide.DelayB.Signal, serial.DelayB.Probes, wide.DelayB.Probes},
		{"DelayC", serial.DelayC.Signal, wide.DelayC.Signal, serial.DelayC.Probes, wide.DelayC.Probes},
	} {
		if d.an != d.bn {
			t.Fatalf("%s probes %d vs %d", d.name, d.an, d.bn)
		}
		sameSeries(t, d.name, d.a, d.b)
	}
	for _, s := range []struct {
		name string
		a, b *timeseries.Series
	}{
		{"ThrA", serial.ThrA, wide.ThrA},
		{"ThrB", serial.ThrB, wide.ThrB},
		{"ThrC", serial.ThrC, wide.ThrC},
		{"ThrAMobile", serial.ThrAMobile, wide.ThrAMobile},
		{"ThrBMobile", serial.ThrBMobile, wide.ThrBMobile},
		{"ThrCMobile", serial.ThrCMobile, wide.ThrCMobile},
		{"ThrA30", serial.ThrA30, wide.ThrA30},
		{"ThrC30", serial.ThrC30, wide.ThrC30},
		{"ThrA4", serial.ThrA4, wide.ThrA4},
		{"ThrA6", serial.ThrA6, wide.ThrA6},
		{"ThrB4", serial.ThrB4, wide.ThrB4},
		{"ThrB6", serial.ThrB6, wide.ThrB6},
		{"ThrC4", serial.ThrC4, wide.ThrC4},
		{"ThrC6", serial.ThrC6, wide.ThrC6},
	} {
		sameSeries(t, s.name, s.a, s.b)
	}
	if serial.UniqueIPs != wide.UniqueIPs {
		t.Fatalf("UniqueIPs %d vs %d", serial.UniqueIPs, wide.UniqueIPs)
	}
}
