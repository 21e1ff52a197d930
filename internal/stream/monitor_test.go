package stream

import (
	"math"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/dsp"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

var t0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

// mkTrace builds a 2-hop traceroute with the given last-mile delta.
func mkTrace(probeID int, ts time.Time, deltaMs float64) *traceroute.Result {
	priv := netip.MustParseAddr("192.168.1.1")
	pub := netip.MustParseAddr("203.0.113.1")
	r := &traceroute.Result{
		ProbeID: probeID, MsmID: 5004, Timestamp: ts, AF: 4,
		SrcAddr: netip.MustParseAddr("192.168.1.10"),
		DstAddr: netip.MustParseAddr("198.41.0.4"),
	}
	h1 := traceroute.HopResult{Hop: 1}
	h2 := traceroute.HopResult{Hop: 2}
	for i := 0; i < 3; i++ {
		h1.Replies = append(h1.Replies, traceroute.Reply{From: priv, RTT: 0.5, TTL: 64})
		h2.Replies = append(h2.Replies, traceroute.Reply{From: pub, RTT: 0.5 + deltaMs, TTL: 254})
	}
	r.Hops = []traceroute.HopResult{h1, h2}
	return r
}

// diurnalRecords builds days of traceroutes for nProbes with a 6-hour
// daily bump of bumpMs, in time order.
func diurnalRecords(asn bgp.ASN, nProbes, days int, bumpMs float64) []core.AttributedResult {
	var out []core.AttributedResult
	end := t0.AddDate(0, 0, days)
	for ts := t0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
		delta := 2.0
		if h := ts.Hour(); h >= 12 && h < 18 {
			delta += bumpMs
		}
		for p := 1; p <= nProbes; p++ {
			out = append(out, core.AttributedResult{ASN: asn, Result: mkTrace(p, ts, delta)})
		}
	}
	return out
}

// feedDiurnal streams diurnalRecords into m.
func feedDiurnal(t *testing.T, m *Monitor, asn bgp.ASN, nProbes, days int, bumpMs float64) {
	t.Helper()
	for _, ar := range diurnalRecords(asn, nProbes, days, bumpMs) {
		if err := m.Observe(ar.ASN, ar.Result); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMonitorDetectsCongestion(t *testing.T) {
	m := NewMonitor(Options{Window: 10 * 24 * time.Hour})
	feedDiurnal(t, m, 64500, 4, 10, 5)
	v, err := m.ClassifyAS(64500)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != core.Severe {
		t.Fatalf("class = %v (amp %.2f), want Severe", v.Class, v.DailyAmplitude)
	}
	if v.Probes != 4 {
		t.Fatalf("probes = %d", v.Probes)
	}
	if !v.IsDaily {
		t.Fatal("peak should be daily")
	}
	st := m.Stats()
	if st.Ingested == 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Live gauges must reflect the resident window.
	if st.ASes != 1 || st.Probes != 4 || st.Bins == 0 || st.Samples == 0 {
		t.Fatalf("gauges = %+v", st)
	}
}

func TestMonitorFlatASIsNone(t *testing.T) {
	m := NewMonitor(Options{Window: 10 * 24 * time.Hour})
	feedDiurnal(t, m, 64501, 3, 10, 0)
	v, err := m.ClassifyAS(64501)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != core.None {
		t.Fatalf("class = %v, want None", v.Class)
	}
}

func TestMonitorEvictsOldState(t *testing.T) {
	m := NewMonitor(Options{Window: 5 * 24 * time.Hour, MaxLateness: time.Hour})
	// Congested days 0-5, then clean days 5-12: after the window slides
	// past the congestion, the verdict must flip to None.
	end1 := t0.AddDate(0, 0, 5)
	for ts := t0; ts.Before(end1); ts = ts.Add(10 * time.Minute) {
		delta := 2.0
		if h := ts.Hour(); h >= 12 && h < 18 {
			delta += 5
		}
		for p := 1; p <= 3; p++ {
			m.Observe(64500, mkTrace(p, ts, delta))
		}
	}
	v, err := m.ClassifyAS(64500)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Class.Reported() {
		t.Fatalf("congested window class = %v", v.Class)
	}

	end2 := t0.AddDate(0, 0, 12)
	for ts := end1; ts.Before(end2); ts = ts.Add(10 * time.Minute) {
		for p := 1; p <= 3; p++ {
			m.Observe(64500, mkTrace(p, ts, 2.0))
		}
	}
	v, err = m.ClassifyAS(64500)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != core.None {
		t.Fatalf("clean window class = %v (amp %.2f), want None", v.Class, v.DailyAmplitude)
	}
}

func TestMonitorDropsTooLate(t *testing.T) {
	m := NewMonitor(Options{Window: 2 * 24 * time.Hour, MaxLateness: time.Hour})
	m.Observe(1, mkTrace(1, t0.AddDate(0, 0, 10), 2))
	// A result 10 days behind the newest observation must be dropped.
	m.Observe(1, mkTrace(1, t0, 2))
	if st := m.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
}

func TestMonitorIgnoresUnusableTraceroutes(t *testing.T) {
	m := NewMonitor(Options{})
	r := mkTrace(1, t0, 2)
	r.Hops = r.Hops[:1] // no public hop
	if err := m.Observe(1, r); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Ingested != 0 {
		t.Fatalf("ingested = %d, want 0", st.Ingested)
	}
	if err := m.Observe(1, nil); err == nil {
		t.Fatal("nil result must error")
	}
}

func TestMonitorMinTraceroutesFilter(t *testing.T) {
	// A probe contributing a single traceroute per bin never yields a
	// usable series under the default filter.
	m := NewMonitor(Options{Window: 8 * 24 * time.Hour})
	end := t0.AddDate(0, 0, 8)
	for ts := t0; ts.Before(end); ts = ts.Add(30 * time.Minute) {
		m.Observe(64500, mkTrace(1, ts, 2))
	}
	if _, err := m.ClassifyAS(64500); err == nil {
		t.Fatal("1 traceroute/bin should not classify under min=3")
	}
}

func TestMonitorUnknownAS(t *testing.T) {
	m := NewMonitor(Options{})
	if _, err := m.ClassifyAS(999); err == nil {
		t.Fatal("want error for unknown AS")
	}
}

func TestMonitorClassifyAll(t *testing.T) {
	m := NewMonitor(Options{Window: 8 * 24 * time.Hour})
	feedDiurnal(t, m, 100, 3, 8, 5)
	feedDiurnal(t, m, 200, 3, 8, 0)
	// AS 300 never clears the min-traceroutes bar: it must surface in
	// the skipped list with a reason instead of silently vanishing.
	for ts := t0; ts.Before(t0.AddDate(0, 0, 8)); ts = ts.Add(30 * time.Minute) {
		if err := m.Observe(300, mkTrace(7, ts, 2)); err != nil {
			t.Fatal(err)
		}
	}
	asns := m.ASNs()
	if len(asns) != 3 || asns[0] != 100 || asns[1] != 200 || asns[2] != 300 {
		t.Fatalf("asns = %v", asns)
	}
	verdicts, skipped := m.ClassifyAll()
	if len(verdicts) != 2 {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
	if !verdicts[0].Class.Reported() || verdicts[1].Class.Reported() {
		t.Fatalf("classes = %v / %v", verdicts[0].Class, verdicts[1].Class)
	}
	// Signals cover the window with real data.
	if verdicts[0].Signal.GapCount() > verdicts[0].Signal.Len()/2 {
		t.Fatal("signal mostly gaps")
	}
	if len(skipped) != 1 || skipped[0].ASN != 300 || skipped[0].Reason == nil {
		t.Fatalf("skipped = %+v", skipped)
	}
}

func TestMonitorConcurrentObserve(t *testing.T) {
	m := NewMonitor(Options{Window: 3 * 24 * time.Hour})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				ts := t0.Add(time.Duration(i) * 5 * time.Minute)
				m.Observe(bgp.ASN(100+g), mkTrace(g, ts, 2))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if st := m.Stats(); st.Ingested != 2000 {
		t.Fatalf("ingested = %d, want 2000", st.Ingested)
	}
}

func TestVerdictAmplitudeSane(t *testing.T) {
	m := NewMonitor(Options{Window: 10 * 24 * time.Hour})
	feedDiurnal(t, m, 64500, 3, 10, 4)
	v, err := m.ClassifyAS(64500)
	if err != nil {
		t.Fatal(err)
	}
	// A 6h/day 4 ms square bump has daily fundamental p2p ≈ 3.6 ms.
	if math.Abs(v.DailyAmplitude-3.6) > 0.8 {
		t.Fatalf("amplitude = %.2f, want ~3.6", v.DailyAmplitude)
	}
}

// TestMonitorConcurrentReadersAndWriters drives writers and every read
// path at once — Observe against ClassifyAS, ClassifyAll, ASNs, and
// Stats — so `go test -race` exercises the monitor's full locking
// discipline, not just concurrent ingestion.
func TestMonitorConcurrentReadersAndWriters(t *testing.T) {
	m := NewMonitor(Options{Window: 3 * 24 * time.Hour})
	// Seed enough state that classification does real work while
	// writers keep mutating the window.
	feedDiurnal(t, m, 64500, 2, 3, 5)

	const writers, readers, perGoroutine = 4, 4, 300
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				ts := t0.AddDate(0, 0, 3).Add(time.Duration(i) * time.Minute)
				if err := m.Observe(bgp.ASN(64500+g%2), mkTrace(10+g, ts, 2)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				switch i % 4 {
				case 0:
					if _, err := m.ClassifyAS(64500); err != nil {
						t.Error(err)
						return
					}
				case 1:
					m.ClassifyAll()
				case 2:
					if asns := m.ASNs(); len(asns) == 0 {
						t.Error("no ASNs while state is live")
						return
					}
				case 3:
					m.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if want := int64(writers*perGoroutine + 3*24*6*2); st.Ingested+st.Dropped < want {
		t.Fatalf("ingested+dropped = %d, want >= %d", st.Ingested+st.Dropped, want)
	}
}

// TestFrontEndsPassPartialClassifierOptions pins that the survey, the
// monitor and the bootstrap hand a partly set ClassifierOptions to
// core.Classify as set, so each classifies like Classify with the same
// options: Classify gives each zero field its default, and no front end
// may swap the whole value for the defaults instead.
func TestFrontEndsPassPartialClassifierOptions(t *testing.T) {
	const asn = 64500
	records := diurnalRecords(asn, 4, 8, 5)
	for _, tc := range []struct {
		name string
		opts core.ClassifierOptions
	}{
		{"thresholds only", core.ClassifierOptions{Thresholds: core.Thresholds{Low: 50, Mild: 60, Severe: 70}}},
		{"welch only", core.ClassifierOptions{Welch: dsp.WelchOptions{SegmentLength: 96, OverlapFrac: 0.5, Window: dsp.Hann}}},
		{"defaults", core.DefaultClassifierOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMonitor(Options{Window: 8 * 24 * time.Hour, Classifier: tc.opts})
			for _, ar := range records {
				if err := m.Observe(ar.ASN, ar.Result); err != nil {
					t.Fatal(err)
				}
			}
			start, nBins, _ := m.WindowBounds()
			perProbe, err := m.eng.ProbeDelays(asn, start, nBins)
			if err != nil {
				t.Fatal(err)
			}
			signal, err := timeseries.AggregateMedian(perProbe)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Classify(signal, tc.opts)
			if err != nil {
				t.Fatal(err)
			}

			survey, _, err := core.RunSurvey("partial", records, core.SurveyOptions{Classifier: tc.opts})
			if err != nil || survey.Results[asn] == nil {
				t.Fatalf("RunSurvey: no verdict (%v)", err)
			}
			verdicts, _ := m.ClassifyAll()
			if len(verdicts) != 1 {
				t.Fatalf("ClassifyAll: %d verdicts", len(verdicts))
			}
			boot, err := core.BootstrapAmplitude(perProbe, core.BootstrapOptions{Iterations: 3, Classifier: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				frontEnd string
				class    core.Class
				amp      float64
			}{
				{"RunSurvey", survey.Results[asn].Class, survey.Results[asn].DailyAmplitude},
				{"Monitor.ClassifyAll", verdicts[0].Class, verdicts[0].DailyAmplitude},
				{"BootstrapAmplitude", boot.Class, boot.Amplitude},
			} {
				if got.class != want.Class || math.Float64bits(got.amp) != math.Float64bits(want.DailyAmplitude) {
					t.Errorf("%s: %v at %.4f ms, Classify: %v at %.4f ms",
						got.frontEnd, got.class, got.amp, want.Class, want.DailyAmplitude)
				}
			}
		})
	}
}
