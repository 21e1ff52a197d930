package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

var t0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

// feed ingests a diurnal delay pattern: nProbes probes sending one
// 9-sample traceroute every 10 minutes for the given number of days,
// with a bump during 12:00-18:00.
func feed(e *Engine, asn bgp.ASN, nProbes, days int, bumpMs float64) {
	end := t0.AddDate(0, 0, days)
	samples := make([]float64, 9)
	for ts := t0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
		delta := 2.0
		if h := ts.Hour(); h >= 12 && h < 18 {
			delta += bumpMs
		}
		for i := range samples {
			samples[i] = delta
		}
		for p := 1; p <= nProbes; p++ {
			e.Observe(asn, p, ts, samples)
		}
	}
}

func sameValues(t *testing.T, label string, a, b *timeseries.Series) {
	t.Helper()
	if a.Len() != b.Len() || !a.Start.Equal(b.Start) || a.Step != b.Step {
		t.Fatalf("%s: axis differs", label)
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("%s[%d]: %v vs %v", label, i, a.Values[i], b.Values[i])
		}
	}
}

func TestEngineSignalBasic(t *testing.T) {
	e := New(Options{})
	feed(e, 64500, 3, 2, 5)
	start := t0
	nBins := int(48 * time.Hour / e.Options().BinWidth)
	signal, probes, err := e.Signal(64500, start, nBins)
	if err != nil {
		t.Fatal(err)
	}
	if probes != 3 {
		t.Fatalf("probes = %d, want 3", probes)
	}
	if signal.Len() != nBins {
		t.Fatalf("len = %d, want %d", signal.Len(), nBins)
	}
	// Quiet bins sit at 0 after min-subtraction, bump bins at ~5.
	if v := signal.Values[0]; v != 0 {
		t.Fatalf("quiet bin = %v, want 0", v)
	}
	bump := signal.Values[25] // 12:30
	if math.Abs(bump-5) > 1e-9 {
		t.Fatalf("bump bin = %v, want 5", bump)
	}
}

func TestEngineShardCountEquivalence(t *testing.T) {
	// The same observations at 1 and 8 shards must yield identical
	// ASNs, stats, and bit-for-bit identical signals.
	e1 := New(Options{Shards: 1})
	e8 := New(Options{Shards: 8})
	for _, e := range []*Engine{e1, e8} {
		for asn := bgp.ASN(100); asn < 120; asn++ {
			feed(e, asn, 3, 2, float64(asn%7))
		}
	}
	a1, a8 := e1.ASNs(), e8.ASNs()
	if len(a1) != len(a8) {
		t.Fatalf("ASN count %d vs %d", len(a1), len(a8))
	}
	s1, s8 := e1.Stats(), e8.Stats()
	if s1 != s8 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s8)
	}
	nBins := int(48 * time.Hour / e1.Options().BinWidth)
	for i, asn := range a1 {
		if asn != a8[i] {
			t.Fatalf("ASNs[%d] = %v vs %v", i, asn, a8[i])
		}
		sig1, n1, err1 := e1.Signal(asn, t0, nBins)
		sig8, n8, err8 := e8.Signal(asn, t0, nBins)
		if (err1 == nil) != (err8 == nil) {
			t.Fatalf("%v: err %v vs %v", asn, err1, err8)
		}
		if err1 != nil {
			continue
		}
		if n1 != n8 {
			t.Fatalf("%v: probes %d vs %d", asn, n1, n8)
		}
		sameValues(t, asn.String(), sig1, sig8)
	}
}

func TestEngineMinTraceroutesRule(t *testing.T) {
	e := New(Options{})
	// Two traceroutes per bin: below the default threshold of 3.
	samples := []float64{2, 2, 2}
	for ts := t0; ts.Before(t0.Add(24 * time.Hour)); ts = ts.Add(15 * time.Minute) {
		e.Observe(64500, 1, ts, samples)
	}
	if _, _, err := e.Signal(64500, t0, 48); err == nil {
		t.Fatal("2 traceroutes/bin must not be usable under min=3")
	}
}

func TestEngineUnknownAS(t *testing.T) {
	e := New(Options{})
	if _, _, err := e.Signal(999, t0, 48); err == nil {
		t.Fatal("want error for unknown AS")
	}
}

func TestEngineWatermarkEviction(t *testing.T) {
	e := New(Options{Window: 2 * 24 * time.Hour, MaxLateness: time.Hour})
	feed(e, 64500, 2, 1, 0)
	full := e.Stats()
	if full.Bins == 0 || full.Samples == 0 || full.Probes != 2 || full.ASes != 1 {
		t.Fatalf("gauges after feed: %+v", full)
	}
	// Jump 10 days ahead: everything resident must be swept on the next
	// observation touching the shard.
	late := t0.AddDate(0, 0, 10)
	e.Observe(64500, 1, late, []float64{1})
	st := e.Stats()
	if st.EvictedBins != full.Bins {
		t.Fatalf("evicted %d bins, want %d", st.EvictedBins, full.Bins)
	}
	if st.Bins != 1 || st.Probes != 1 {
		t.Fatalf("resident after sweep: %+v", st)
	}
	// A result behind the lateness horizon is dropped and counted.
	if e.Observe(64500, 1, t0, []float64{1}) {
		t.Fatal("beyond-horizon result must be dropped")
	}
	if st := e.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
}

func TestEngineEvictionSweepIsAmortized(t *testing.T) {
	e := New(Options{Window: 24 * time.Hour})
	// Two observations inside one bin must trigger at most one sweep;
	// crossing into the next bin triggers exactly one more.
	e.Observe(1, 1, t0, []float64{1})
	sweeps0 := e.shards[0].swept
	e.Observe(1, 1, t0.Add(time.Minute), []float64{1})
	if e.shards[0].swept != sweeps0 {
		t.Fatal("sweep ran twice within one bin")
	}
	e.Observe(1, 1, t0.Add(31*time.Minute), []float64{1})
	if e.shards[0].swept == sweeps0 {
		t.Fatal("sweep did not run after crossing a bin boundary")
	}
}

func TestEngineUnboundedNeverDropsOrEvicts(t *testing.T) {
	e := New(Options{})
	e.Observe(1, 1, t0.AddDate(0, 0, 30), []float64{1})
	if !e.Observe(1, 1, t0, []float64{1}) {
		t.Fatal("unbounded engine must accept arbitrarily old results")
	}
	st := e.Stats()
	if st.Dropped != 0 || st.EvictedBins != 0 || st.Ingested != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEngineWindowBounds(t *testing.T) {
	e := New(Options{Window: 24 * time.Hour})
	if _, _, ok := e.WindowBounds(); ok {
		t.Fatal("bounds before any observation")
	}
	e.Observe(1, 1, t0.Add(90*time.Minute+7*time.Second), []float64{1})
	start, n, ok := e.WindowBounds()
	if !ok {
		t.Fatal("no bounds after observation")
	}
	if n != 48 {
		t.Fatalf("nBins = %d, want 48", n)
	}
	wantStart := t0.Add(2 * time.Hour).Add(-24 * time.Hour)
	if !start.Equal(wantStart) {
		t.Fatalf("start = %v, want %v", start, wantStart)
	}
	if _, _, ok := New(Options{}).WindowBounds(); ok {
		t.Fatal("unbounded engine must not derive bounds")
	}
}

// TestEngineWindowBoundsOnBinKeys uses 7-minute bins, a width that does
// not divide the span from year 1 to the Unix epoch, so time.Truncate
// and the engine's epoch-aligned keys disagree. The window must start on
// a bin key, and a record must land in the series slot whose time is
// its bin key.
func TestEngineWindowBoundsOnBinKeys(t *testing.T) {
	const w = 7 * time.Minute
	e := New(Options{BinWidth: w, MinTraceroutes: 1, Window: 24 * time.Hour})
	at := t0.Add(5*time.Hour + 3*time.Minute + 11*time.Second)
	e.Observe(1, 1, at, []float64{4})
	e.Observe(1, 1, at.Add(-2*time.Hour), []float64{1})
	start, n, ok := e.WindowBounds()
	if !ok || n != int(24*time.Hour/w) {
		t.Fatalf("bounds ok=%v nBins=%d", ok, n)
	}
	if start.Unix()%int64(w/time.Second) != 0 {
		t.Fatalf("window starts at %v, not on a bin key", start)
	}
	if end := start.Add(time.Duration(n) * w); !end.Equal(e.BinStart(at).Add(w)) {
		t.Fatalf("window ends at %v, want the end of the newest bin %v", end, e.BinStart(at).Add(w))
	}
	qds, err := e.ProbeDelays(1, start, n)
	if err != nil {
		t.Fatal(err)
	}
	key := e.BinStart(at)
	i, ok := qds[0].IndexOf(key)
	if !ok || !qds[0].TimeAt(i).Equal(key) || qds[0].Values[i] != 3 {
		t.Fatalf("record at %v: slot %d at %v holds %v, want its bin key %v holding 3", at, i, qds[0].TimeAt(i), qds[0].Values[i], key)
	}
}

// TestMedianSeriesPlacesKeysLikeIndexOf compares medianSeries, which
// places a bin by integer arithmetic on its key, with a reference that
// places it by Series.IndexOf of the key's time, over windows whose
// start is a bin key, falls inside a bin, carries a sub-second part or
// lies before, across or after every key, as caller bounds may.
func TestMedianSeriesPlacesKeysLikeIndexOf(t *testing.T) {
	const w = 7 * time.Minute
	e := New(Options{BinWidth: w, MinTraceroutes: 1})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 600; i++ {
		at := t0.Add(time.Duration(rng.Int63n(int64(36 * time.Hour))))
		e.Observe(64500, 1+rng.Intn(3), at, []float64{rng.Float64() * 10})
	}
	for trial := 0; trial < 300; trial++ {
		start := t0.Add(time.Duration(rng.Int63n(int64(40*time.Hour))) - 2*time.Hour)
		switch trial % 4 {
		case 0:
			start = e.BinStart(start) // a bin key
		case 1:
			start = start.Truncate(time.Second) // whole seconds
		case 2:
			// Inside a key's second: that key lies before start.
			start = e.BinStart(start).Add(1 + time.Duration(rng.Int63n(int64(time.Second-1))))
		}
		nBins := rng.Intn(400)
		got, gotErr := e.medianSeries(64500, start, nBins)
		// The reference: IndexOf of each key's time, medians by stats.Median.
		var want []*timeseries.Series
		aw := e.shards[0].ases[64500]
		for _, id := range sortedProbeIDs(nil, aw) {
			s, err := timeseries.NewSeries(start, w, nBins)
			if err != nil {
				t.Fatal(err)
			}
			usable := false
			for _, c := range aw.probes[id].cells {
				if i, ok := s.IndexOf(time.Unix(c.key, 0).UTC()); ok {
					s.Values[i], _ = stats.Median(c.samples)
					usable = true
				}
			}
			if usable {
				want = append(want, s)
			}
		}
		if (gotErr == nil) != (len(want) > 0) {
			t.Fatalf("start %v, %d bins: error %v, reference has %d probes", start, nBins, gotErr, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("start %v, %d bins: %d probes, reference %d", start, nBins, len(got), len(want))
		}
		for i := range got {
			sameValues(t, fmt.Sprintf("start %v probe series %d", start, i), got[i], want[i])
		}
	}
}

// TestEngineProbeDelaysAscendingProbeID pins the order bootstrap
// resampling sees: one series per usable probe, by ascending probe ID,
// whatever order the probes arrived in. Bins outside the window take no
// part, not even in a probe's minimum.
func TestEngineProbeDelaysAscendingProbeID(t *testing.T) {
	e := New(Options{MinTraceroutes: 1})
	for _, id := range []int{30, 10, 20} {
		// Probe id's second bin sits id/10 ms above its first.
		e.Observe(1, id, t0, []float64{1})
		e.Observe(1, id, t0.Add(30*time.Minute), []float64{1 + float64(id)/10})
		e.Observe(1, id, t0.Add(-time.Minute), []float64{-5})
		e.Observe(1, id, t0.Add(time.Hour), []float64{-5})
	}
	qds, err := e.ProbeDelays(1, t0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if got := qds[i].Values[1]; got != want {
			t.Fatalf("series %d rises %v, want %v (probe %d)", i, got, want, 10*(i+1))
		}
	}
}

func TestEngineConcurrentObserve(t *testing.T) {
	e := New(Options{Window: 3 * 24 * time.Hour, Shards: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ts := t0.Add(time.Duration(i) * 5 * time.Minute)
				e.Observe(bgp.ASN(100+g), g, ts, []float64{1, 2, 3})
			}
		}(g)
	}
	wg.Wait()
	st := e.Stats()
	if st.Ingested != 4000 {
		t.Fatalf("ingested = %d, want 4000", st.Ingested)
	}
	if st.ASes != 8 {
		t.Fatalf("ASes = %d, want 8", st.ASes)
	}
}
