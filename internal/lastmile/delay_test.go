package lastmile_test

// The §2.1 arithmetic after estimation — 30-minute per-probe medians,
// the <3-traceroute discard rule, per-probe min-subtraction and the
// median across probes — is internal/engine's. These tests drive
// Estimate's samples through it.

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

const asn bgp.ASN = 64500

var t0 = time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)

// observe estimates r and observes its samples, as a survey feed does.
func observe(e *engine.Engine, r *traceroute.Result) {
	if samples, _, ok := lastmile.Estimate(r); ok {
		e.Observe(asn, r.ProbeID, r.Timestamp, samples)
	}
}

// traces observes n traceroutes of probe, one a minute from at, whose
// last mile is delta ms.
func traces(e *engine.Engine, probe int, at time.Time, n int, delta float64) {
	for i := 0; i < n; i++ {
		observe(e, lastmile.MakeTrace(probe, at.Add(time.Duration(i)*time.Minute), []float64{0.5}, []float64{0.5 + delta}))
	}
}

func TestQueuingDelayPinsMinimumAtZero(t *testing.T) {
	e := engine.New(engine.Options{})
	traces(e, 7, t0, 3, 2)
	traces(e, 7, t0.Add(30*time.Minute), 3, 4)
	qds, err := e.ProbeDelays(asn, t0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(qds) != 1 {
		t.Fatalf("%d probe series, want 1", len(qds))
	}
	if qds[0].Values[0] != 0 {
		t.Fatalf("quiet bin = %v, want 0", qds[0].Values[0])
	}
	if qds[0].Values[1] != 2.0 {
		t.Fatalf("busy bin = %v, want 2.0", qds[0].Values[1])
	}
}

func TestQueuingDelayNoUsableBins(t *testing.T) {
	e := engine.New(engine.Options{})
	if _, err := e.ProbeDelays(asn, t0, 2); err == nil {
		t.Fatal("want error with no data")
	}
	// Two traceroutes per bin fall under the discard rule.
	traces(e, 7, t0, 2, 2)
	traces(e, 7, t0.Add(30*time.Minute), 2, 2)
	if _, err := e.ProbeDelays(asn, t0, 2); err == nil {
		t.Fatal("want error with no usable bin")
	}
}

func TestPopulationDelay(t *testing.T) {
	// 5 probes, all with a 1 ms peak-hour bump; the population median
	// must show the bump.
	e := engine.New(engine.Options{})
	for p := 0; p < 5; p++ {
		base := 2.0 + 0.1*float64(p)
		traces(e, p, t0, 3, base)
		traces(e, p, t0.Add(30*time.Minute), 3, base+1)
	}
	agg, n, err := e.Signal(asn, t0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("contributing probes = %d", n)
	}
	if agg.Values[0] != 0 || math.Abs(agg.Values[1]-1.0) > 1e-9 {
		t.Fatalf("aggregate = %v", agg.Values)
	}
}

func TestPopulationDelaySkipsEmptyProbes(t *testing.T) {
	e := engine.New(engine.Options{})
	traces(e, 1, t0, 3, 2)
	// Probe 2 has no usable bin: two traceroutes, under the discard rule.
	traces(e, 2, t0, 2, 9)
	agg, n, err := e.Signal(asn, t0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("contributing = %d, want 1", n)
	}
	if agg.Values[0] != 0 || !math.IsNaN(agg.Values[1]) {
		t.Fatalf("aggregate = %v, want probe 1 alone", agg.Values)
	}
}

func TestPopulationDelayEmpty(t *testing.T) {
	e := engine.New(engine.Options{})
	if _, _, err := e.Signal(asn, t0, 2); err == nil {
		t.Fatal("want error for empty population")
	}
	traces(e, 2, t0, 2, 2)
	if _, _, err := e.Signal(asn, t0, 2); err == nil {
		t.Fatal("want error when no probe contributes")
	}
}

// Property: a probe fed k>=3 identical-delta traceroutes per bin
// recovers exactly that delta in every bin above its quietest one, for
// any delta > 0, and a probe at a constant delta has zero queuing delay
// everywhere.
func TestAccumulatorRecoversDelta(t *testing.T) {
	start := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	f := func(rawDelta float64, rawBins uint8) bool {
		delta := math.Mod(math.Abs(rawDelta), 50)
		if math.IsNaN(delta) || delta == 0 {
			delta = 1
		}
		bins := int(rawBins%20) + 2
		e := engine.New(engine.Options{})
		for b := 0; b < bins; b++ {
			step := delta
			if b == 0 {
				step = 0 // probe 1's quietest bin
			}
			for k := 0; k < 3; k++ {
				ts := start.Add(time.Duration(b)*lastmile.DefaultBinWidth + time.Duration(k)*time.Minute)
				e.Observe(asn, 1, ts, []float64{step, step, step})
				e.Observe(asn, 2, ts, []float64{delta, delta, delta})
			}
		}
		qds, err := e.ProbeDelays(asn, start, bins)
		if err != nil || len(qds) != 2 {
			return false
		}
		for b := 0; b < bins; b++ {
			want := delta
			if b == 0 {
				want = 0
			}
			if qds[0].Values[b] != want || qds[1].Values[b] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
