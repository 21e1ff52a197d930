package core

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

var surveyT0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

// mkSurveyTrace builds a 2-hop traceroute with the given last-mile delta.
func mkSurveyTrace(probeID int, ts time.Time, deltaMs float64) *traceroute.Result {
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

// diurnalResults builds days of traceroutes for nProbes of one AS with a
// 6-hour daily bump of bumpMs.
func diurnalResults(asn bgp.ASN, nProbes, days int, bumpMs float64) []AttributedResult {
	var out []AttributedResult
	end := surveyT0.AddDate(0, 0, days)
	for ts := surveyT0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
		delta := 2.0
		if h := ts.Hour(); h >= 12 && h < 18 {
			delta += bumpMs
		}
		for p := 1; p <= nProbes; p++ {
			out = append(out, AttributedResult{ASN: asn, Result: mkSurveyTrace(int(asn)*100+p, ts, delta)})
		}
	}
	return out
}

func TestRunSurveyClassifies(t *testing.T) {
	results := diurnalResults(64500, 4, 8, 5)
	results = append(results, diurnalResults(64501, 3, 8, 0)...)
	survey, skipped, err := RunSurvey("test", results, SurveyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v", skipped)
	}
	if survey.Len() != 2 {
		t.Fatalf("Len = %d, want 2", survey.Len())
	}
	congested := survey.Results[64500]
	if congested.Class != Severe {
		t.Fatalf("AS64500 class = %v (amp %.2f), want Severe", congested.Class, congested.DailyAmplitude)
	}
	if congested.Probes != 4 {
		t.Fatalf("AS64500 probes = %d", congested.Probes)
	}
	if flat := survey.Results[64501]; flat.Class != None {
		t.Fatalf("AS64501 class = %v, want None", flat.Class)
	}
}

func TestRunSurveySkipReasons(t *testing.T) {
	results := diurnalResults(64500, 3, 8, 4)
	// An AS whose only traceroute has no public hop: wholly unusable.
	broken := mkSurveyTrace(9001, surveyT0, 2)
	broken.Hops = broken.Hops[:1]
	results = append(results, AttributedResult{ASN: 64999, Result: broken})
	// An AS with one traceroute per bin: below the min-traceroutes bar.
	for ts := surveyT0; ts.Before(surveyT0.AddDate(0, 0, 8)); ts = ts.Add(30 * time.Minute) {
		results = append(results, AttributedResult{ASN: 64998, Result: mkSurveyTrace(9002, ts, 2)})
	}
	survey, skipped, err := RunSurvey("test", results, SurveyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if survey.Len() != 1 {
		t.Fatalf("Len = %d, want 1", survey.Len())
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %d entries, want 2", len(skipped))
	}
	// Skips come back in ASN order with distinct reasons.
	if skipped[0].ASN != 64998 || skipped[1].ASN != 64999 {
		t.Fatalf("skipped ASNs = %v, %v", skipped[0].ASN, skipped[1].ASN)
	}
	if skipped[1].Reason != ErrNoUsableData {
		t.Fatalf("AS64999 reason = %v", skipped[1].Reason)
	}
	if skipped[0].Reason == nil || skipped[0].Reason == ErrNoUsableData {
		t.Fatalf("AS64998 reason = %v", skipped[0].Reason)
	}
}

// sameSurvey asserts two surveys carry bit-identical verdicts, signals
// and skipped ASes.
func sameSurvey(t *testing.T, label string, got, want *Survey, gotSkipped, wantSkipped []SkippedAS) {
	t.Helper()
	if got.Len() != want.Len() || len(gotSkipped) != len(wantSkipped) {
		t.Fatalf("%s: %d results / %d skips vs %d / %d", label, got.Len(), len(gotSkipped), want.Len(), len(wantSkipped))
	}
	for i := range wantSkipped {
		if gotSkipped[i].ASN != wantSkipped[i].ASN {
			t.Fatalf("%s: skip %d is AS%v, want AS%v", label, i, gotSkipped[i].ASN, wantSkipped[i].ASN)
		}
	}
	for asn, w := range want.Results {
		g := got.Results[asn]
		if g == nil {
			t.Fatalf("%s: AS%v missing", label, asn)
		}
		if g.Class != w.Class || g.Probes != w.Probes ||
			math.Float64bits(g.DailyAmplitude) != math.Float64bits(w.DailyAmplitude) ||
			math.Float64bits(g.Peak.Freq) != math.Float64bits(w.Peak.Freq) {
			t.Fatalf("%s: AS%v verdict %+v vs %+v", label, asn, g.Classification, w.Classification)
		}
		for i := range w.Signal.Values {
			if math.Float64bits(g.Signal.Values[i]) != math.Float64bits(w.Signal.Values[i]) {
				t.Fatalf("%s: AS%v signal[%d] %v vs %v", label, asn, i, g.Signal.Values[i], w.Signal.Values[i])
			}
		}
	}
}

func TestRunSurveyWorkerAndShardEquivalence(t *testing.T) {
	results := diurnalResults(64500, 4, 6, 5)
	results = append(results, diurnalResults(64501, 3, 6, 1.5)...)
	results = append(results, diurnalResults(64502, 3, 6, 0)...)
	base, baseSkipped, err := RunSurvey("eq", results, SurveyOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []SurveyOptions{
		{Workers: 8, Shards: 1},
		{Workers: 1, Shards: 8},
		{Workers: 8, Shards: 8},
	} {
		got, skipped, err := RunSurvey("eq", results, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameSurvey(t, fmt.Sprintf("%+v", cfg), got, base, skipped, baseSkipped)
	}
}

// TestRunSurveyShardedEquivalence pins the map-reduce contract at the
// survey layer: splitting the replay across K engines and merging must
// reproduce the single-engine survey bit for bit — verdicts, probe
// counts, amplitudes, and full signals — at every split count.
func TestRunSurveyShardedEquivalence(t *testing.T) {
	results := diurnalResults(64500, 4, 6, 5)
	results = append(results, diurnalResults(64501, 3, 6, 1.5)...)
	results = append(results, diurnalResults(64502, 3, 6, 0)...)
	base, baseSkipped, err := RunSurveySharded("eq", results, 1, SurveyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []int{2, 8, 1 << 20} {
		got, skipped, err := RunSurveySharded("eq", results, split, SurveyOptions{})
		if err != nil {
			t.Fatalf("split=%d: %v", split, err)
		}
		sameSurvey(t, fmt.Sprintf("split=%d", split), got, base, skipped, baseSkipped)
	}
	// Engines are built on their first record, so the oversized split
	// above cost one engine per record, not 1<<20 engines.
	f := NewSurveyFeed(1<<20, SurveyOptions{})
	for _, ar := range results {
		if err := f.Add(ar.ASN, ar.Result); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.engines) != len(results) {
		t.Fatalf("split=1<<20 built %d engines for %d records", len(f.engines), len(results))
	}
}

func TestRunSurveyPinnedBounds(t *testing.T) {
	results := diurnalResults(64500, 3, 4, 5)
	start := surveyT0
	end := surveyT0.AddDate(0, 0, 4)
	survey, _, err := RunSurvey("pinned", results, SurveyOptions{Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	r := survey.Results[64500]
	if r == nil {
		t.Fatal("AS64500 missing")
	}
	if !r.Signal.Start.Equal(start) {
		t.Fatalf("signal start = %v, want %v", r.Signal.Start, start)
	}
	if got, want := r.Signal.Len(), int(end.Sub(start)/(30*time.Minute)); got != want {
		t.Fatalf("signal len = %d, want %d", got, want)
	}
}

func TestRunSurveyEmptyInput(t *testing.T) {
	if _, _, err := RunSurvey("empty", nil, SurveyOptions{}); err == nil {
		t.Fatal("want error for empty input")
	}
}
