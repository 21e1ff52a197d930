package lastmile_test

import (
	"bytes"
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
)

var t0 = time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)

// buildTrace constructs a traceroute with the given last-mile delta.
func buildTrace(probeID int, ts time.Time, deltaMs float64) *lastmile.Result {
	priv := netip.MustParseAddr("192.168.1.1")
	pub := netip.MustParseAddr("203.0.113.1")
	r := &lastmile.Result{
		ProbeID:   probeID,
		MsmID:     5010,
		Timestamp: ts,
		AF:        4,
		SrcAddr:   netip.MustParseAddr("192.168.1.10"),
		FromAddr:  netip.MustParseAddr("203.0.113.99"),
		DstAddr:   netip.MustParseAddr("193.0.14.129"),
		Proto:     "ICMP",
	}
	h1 := lastmile.HopResult{Hop: 1}
	h2 := lastmile.HopResult{Hop: 2}
	for i := 0; i < 3; i++ {
		h1.Replies = append(h1.Replies, lastmile.Reply{From: priv, RTT: 0.5, TTL: 64})
		h2.Replies = append(h2.Replies, lastmile.Reply{From: pub, RTT: 0.5 + deltaMs, TTL: 254})
	}
	r.Hops = []lastmile.HopResult{h1, h2}
	return r
}

// TestEndToEndPipeline exercises the full public API path: JSON in,
// estimation, binning, aggregation, classification.
func TestEndToEndPipeline(t *testing.T) {
	// 15 days of synthetic traceroutes for 5 probes with an evening
	// delay bump: write them as Atlas JSONL first to cover the codec.
	var buf bytes.Buffer
	w := lastmile.NewResultWriter(&buf)
	end := t0.AddDate(0, 0, 15)
	rng := rand.New(rand.NewSource(1))
	for probe := 1; probe <= 5; probe++ {
		for ts := t0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
			delta := 2.0 + rng.Float64()*0.1
			// A 6-hour daily bump of 4 ms: the daily fundamental of this
			// square wave has peak-to-peak (8/π)·sin(π/4)·4/2 ≈ 3.6 ms,
			// comfortably Severe.
			if h := ts.Hour(); h >= 10 && h < 16 {
				delta += 4.0
			}
			if err := w.Write(buildTrace(probe, ts, delta)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Read back and feed the pipeline.
	feed := lastmile.NewSurveyFeed(lastmile.SurveyOptions{Start: t0, End: end})
	sc := lastmile.NewResultScanner(&buf)
	for sc.Scan() {
		if err := feed.Add(64500, sc.Result()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	survey, skipped, err := feed.Survey("e2e")
	if err != nil || len(skipped) != 0 {
		t.Fatalf("survey: %v, skipped %v", err, skipped)
	}
	cls := survey.Results[64500]
	if cls.Probes != 5 {
		t.Fatalf("contributing probes = %d", cls.Probes)
	}
	if cls.Class != lastmile.Severe {
		t.Fatalf("class = %v (amp %.2f), want Severe for a 4 ms daily bump", cls.Class, cls.DailyAmplitude)
	}
	if !cls.IsDaily {
		t.Fatal("peak should be daily")
	}
}

func TestEstimateLastMile(t *testing.T) {
	r := buildTrace(1, t0, 2.0)
	samples, seg, ok := lastmile.EstimateLastMile(r)
	if !ok || len(samples) != 9 {
		t.Fatalf("samples = %v ok=%v", samples, ok)
	}
	if seg.PrivateHop != 0 || seg.PublicHop != 1 {
		t.Fatalf("segment = %+v", seg)
	}
	if _, ok := lastmile.FindSegment(r); !ok {
		t.Fatal("FindSegment should succeed")
	}
}

func TestAtlasJSONRoundTripPublicAPI(t *testing.T) {
	r := buildTrace(7, t0, 1.5)
	data, err := lastmile.MarshalAtlasResult(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := lastmile.ParseAtlasResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ProbeID != 7 {
		t.Fatalf("probe = %d", back.ProbeID)
	}
}

func TestSeriesHelpers(t *testing.T) {
	s, err := lastmile.NewSeries(t0, 30*time.Minute, 4)
	if err != nil {
		t.Fatal(err)
	}
	copy(s.Values, []float64{3, 1, 2, 5})
	qd, err := lastmile.SubtractMin(s)
	if err != nil {
		t.Fatal(err)
	}
	if qd.Values[1] != 0 {
		t.Fatalf("min bin = %v", qd.Values[1])
	}
	agg, err := lastmile.AggregateMedian([]*lastmile.Series{s, s, s})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Values[0] != 3 {
		t.Fatalf("agg = %v", agg.Values)
	}
}

func TestWelchPublicAPI(t *testing.T) {
	xs := make([]float64, 720)
	for i := range xs {
		hours := float64(i) / 2
		xs[i] = 1 + math.Sin(2*math.Pi*hours/24)
	}
	pg, err := lastmile.Welch(xs, 2.0, lastmile.WelchDefaults())
	if err != nil {
		t.Fatal(err)
	}
	amp, _, ok := pg.AmplitudeAt(lastmile.DailyFreq)
	if !ok || math.Abs(amp-2.0) > 0.1 {
		t.Fatalf("daily amplitude = %v, want ~2.0", amp)
	}
}

func TestThroughputEstimatorPublicAPI(t *testing.T) {
	var mobile lastmile.PrefixSet
	if err := mobile.AddString("203.99.0.0/16"); err != nil {
		t.Fatal(err)
	}
	opts := lastmile.DefaultThroughputOptions()
	opts.ExcludeMobile = &mobile
	est, err := lastmile.NewThroughputEstimator(t0, t0.Add(time.Hour), opts)
	if err != nil {
		t.Fatal(err)
	}
	fixed := lastmile.LogEntry{
		Timestamp: t0.Add(time.Minute), ClientIP: netip.MustParseAddr("203.98.0.1"),
		Bytes: 5_000_000, DurationMs: 1000, Status: 200, Cache: lastmile.CacheHit,
	}
	mob := fixed
	mob.ClientIP = netip.MustParseAddr("203.99.0.1")
	est.Add(&fixed)
	est.Add(&mob)
	if est.Accepted != 1 {
		t.Fatalf("accepted = %d, want mobile filtered", est.Accepted)
	}
	s := est.Series(1)
	if math.Abs(s.Values[0]-40) > 1e-9 {
		t.Fatalf("throughput = %v", s.Values[0])
	}
}

func TestLogCSVRoundTripPublicAPI(t *testing.T) {
	var buf bytes.Buffer
	w := lastmile.NewLogWriter(&buf)
	e := lastmile.LogEntry{
		Timestamp: t0, ClientIP: netip.MustParseAddr("203.98.0.1"),
		Bytes: 100, DurationMs: 10, Status: 200, Cache: lastmile.CacheMiss,
	}
	if err := w.Write(&e); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := lastmile.NewLogScanner(&buf)
	if !sc.Scan() {
		t.Fatalf("scan failed: %v", sc.Err())
	}
	if sc.Entry().Cache != lastmile.CacheMiss {
		t.Fatal("cache status lost")
	}
}

func TestRIBAndRankingParsers(t *testing.T) {
	rib, err := lastmile.ParseRIB(strings.NewReader("203.0.113.0/24 64500\n"))
	if err != nil {
		t.Fatal(err)
	}
	asn, err := rib.OriginOf(netip.MustParseAddr("203.0.113.9"))
	if err != nil || asn != lastmile.ASN(64500) {
		t.Fatalf("origin = %v, %v", asn, err)
	}
	rk, err := lastmile.ParseRanking(strings.NewReader("64500 JP 1000\n64501 US 2000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rank, _ := rk.Rank(64501); rank != 1 {
		t.Fatalf("rank = %d", rank)
	}
}

func TestAddressClassifiers(t *testing.T) {
	if !lastmile.IsPrivate(netip.MustParseAddr("10.0.0.1")) {
		t.Fatal("10/8 is private")
	}
	if !lastmile.IsPublic(netip.MustParseAddr("8.8.8.8")) {
		t.Fatal("8.8.8.8 is public")
	}
}

func TestSpearmanPublicAPI(t *testing.T) {
	rho, err := lastmile.Spearman([]float64{1, 2, 3}, []float64{30, 20, 10})
	if err != nil || rho != -1 {
		t.Fatalf("rho = %v, %v", rho, err)
	}
}

func TestSurveyPublicAPI(t *testing.T) {
	s := lastmile.NewSurvey("2019-09")
	s.Add(&lastmile.ASResult{ASN: 1, Classification: lastmile.Classification{Class: lastmile.Mild}})
	s.Add(&lastmile.ASResult{ASN: 2, Classification: lastmile.Classification{Class: lastmile.None}})
	if got := s.CountByClass()[lastmile.Mild]; got != 1 {
		t.Fatalf("mild count = %d", got)
	}
	if len(s.ReportedASes()) != 1 {
		t.Fatal("reported should have 1 AS")
	}
}

func TestProbeRegistryPublicAPI(t *testing.T) {
	raw := `[
	  {"id": 1, "asn_v4": 64500, "country_code": "JP", "city": "Tokyo", "version": 3, "status": "Connected"},
	  {"id": 2, "asn_v4": 64500, "country_code": "JP", "is_anchor": true, "status": "Connected"},
	  {"id": 3, "asn_v4": 64501, "country_code": "US", "version": 1, "status": "Connected"}
	]`
	reg, err := lastmile.ParseProbeRegistry(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ids := reg.Select(lastmile.ProbeSelect{ASN: 64500, ExcludeAnchors: true})
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("ids = %v", ids)
	}
	asns := reg.ASNsWithAtLeast(1, lastmile.ProbeSelect{ExcludeAnchors: true})
	if len(asns) != 2 {
		t.Fatalf("asns = %v", asns)
	}
}

func TestStreamMonitorPublicAPI(t *testing.T) {
	m := lastmile.NewStreamMonitor(lastmile.StreamOptions{Window: 8 * 24 * time.Hour})
	end := t0.AddDate(0, 0, 8)
	for ts := t0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
		delta := 2.0
		if h := ts.Hour(); h >= 10 && h < 16 {
			delta += 4.0
		}
		for p := 1; p <= 3; p++ {
			if err := m.Observe(lastmile.ASN(64500), buildTrace(p, ts, delta)); err != nil {
				t.Fatal(err)
			}
		}
	}
	verdicts, skipped := m.ClassifyAll()
	if len(verdicts) != 1 || len(skipped) != 0 {
		t.Fatalf("verdicts = %d, skipped = %d", len(verdicts), len(skipped))
	}
	if verdicts[0].Class != lastmile.Severe {
		t.Fatalf("class = %v (amp %.2f), want Severe", verdicts[0].Class, verdicts[0].DailyAmplitude)
	}
	var st lastmile.StreamStats = m.Stats()
	if st.Ingested == 0 || st.ASes != 1 || st.Probes != 3 || st.Bins == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunSurveyPublicAPI(t *testing.T) {
	var results []lastmile.AttributedResult
	end := t0.AddDate(0, 0, 8)
	for ts := t0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
		delta := 2.0
		if h := ts.Hour(); h >= 10 && h < 16 {
			delta += 4.0
		}
		for p := 1; p <= 3; p++ {
			results = append(results, lastmile.AttributedResult{ASN: 64500, Result: buildTrace(p, ts, delta)})
		}
	}
	survey, skipped, err := lastmile.RunSurvey("2019-09", results, lastmile.SurveyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v", skipped)
	}
	res := survey.Results[64500]
	if res == nil || res.Class != lastmile.Severe || res.Probes != 3 {
		t.Fatalf("result = %+v", res)
	}
}

func TestGuardAndBootstrapPublicAPI(t *testing.T) {
	// Build a congested population through the facade only.
	var perProbe []*lastmile.Series
	for p := 0; p < 5; p++ {
		s, err := lastmile.NewSeries(t0, 30*time.Minute, 720)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Values {
			hour := (i / 2) % 24
			if hour >= 20 && hour < 23 {
				s.Values[i] = 4
			} else {
				s.Values[i] = 0.05
			}
		}
		perProbe = append(perProbe, s)
	}
	signal, err := lastmile.AggregateMedian(perProbe)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := lastmile.Classify(signal, lastmile.DefaultClassifierOptions())
	if err != nil {
		t.Fatal(err)
	}
	boot, err := lastmile.BootstrapAmplitude(perProbe, lastmile.BootstrapOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if boot.ClassStability < 0.99 {
		t.Fatalf("stability = %v for identical probes", boot.ClassStability)
	}
	mask, err := lastmile.PeakHourMask(signal, cls, lastmile.DefaultGuardOptions())
	if err != nil {
		t.Fatal(err)
	}
	frac := lastmile.MaskedFraction(mask)
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("masked fraction = %v", frac)
	}
}
