package lastmile_test

// Equivalence of the two ingest paths: the same measurement campaign
// archived as Atlas JSONL and as the binary wire format must produce
// bit-identical survey and streaming verdicts. This is the acceptance
// property of the binary ingest path — the format changes how fast
// results decode, never what the pipeline concludes.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/traceroute/tracetest"
)

// campaign holds one synthetic measurement period in both encodings,
// and the results it was written from.
type campaign struct {
	results     []*lastmile.Result
	jsonArchive []byte
	wireArchive []byte
	probeASN    map[int]lastmile.ASN
	start, end  time.Time
}

// buildCampaign generates 8 days of traceroutes for two ASes — one with
// an evening congestion bump, one flat — interleaved in time order, and
// archives them as JSONL and as a wire stream.
func buildCampaign(t *testing.T) *campaign {
	t.Helper()
	c := &campaign{probeASN: map[int]lastmile.ASN{
		1: 64500, 2: 64500, 3: 64501, 4: 64501,
	}}
	end := t0.AddDate(0, 0, 8)

	var jsonBuf, wireBuf bytes.Buffer
	jw := lastmile.NewResultWriter(&jsonBuf)
	ww := lastmile.NewBinaryResultWriter(&wireBuf)
	rng := rand.New(rand.NewSource(7))
	for ts := t0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
		for probe := 1; probe <= 4; probe++ {
			delta := 2.0 + rng.Float64()*0.1
			if c.probeASN[probe] == 64500 && ts.Hour() >= 18 && ts.Hour() < 23 {
				delta += 5.0 // the congested AS's evening bump
			}
			r := buildTrace(probe, ts, delta)
			c.results = append(c.results, r)
			if err := jw.Write(r); err != nil {
				t.Fatal(err)
			}
			if err := ww.WriteResult(c.probeASN[probe], r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	c.jsonArchive = jsonBuf.Bytes()
	c.wireArchive = wireBuf.Bytes()
	c.start = t0
	c.end = end
	return c
}

// collect streams an archive into a survey feed, attributing JSON
// results (which carry no in-band AS) from the probe map, exactly as
// cmd/lmsurvey does: through the auto-detecting scanner, or, with whole
// set, through ScanResults, as cmd/lmsurvey reads.
func collect(t *testing.T, c *campaign, archive []byte, opts lastmile.SurveyOptions, whole bool) (*lastmile.Survey, []lastmile.SkippedAS) {
	t.Helper()
	feed := lastmile.NewSurveyFeed(opts)
	add := func(res *lastmile.Result, asn lastmile.ASN) error {
		if asn == 0 {
			asn = c.probeASN[res.ProbeID]
		}
		return feed.Add(asn, res)
	}
	if whole {
		if err := lastmile.ScanResults(bytes.NewReader(archive), add); err != nil {
			t.Fatal(err)
		}
	} else {
		sc := lastmile.NewResultScanner(bytes.NewReader(archive))
		for sc.Scan() {
			if err := add(sc.Result(), sc.ASN()); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	s, skipped, err := feed.Survey("2019-09")
	if err != nil {
		t.Fatal(err)
	}
	return s, skipped
}

// seriesIdentical compares two series bit by bit.
func seriesIdentical(t *testing.T, label string, a, b *lastmile.Series) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: series length %d vs %d", label, a.Len(), b.Len())
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("%s: bin %d differs: %v vs %v", label, i, a.Values[i], b.Values[i])
		}
	}
}

// TestIngestEquivalenceSurvey: a survey of the JSON archive and of the
// wire archive, read record by record or whole through ScanResults,
// produces bit-identical verdicts.
func TestIngestEquivalenceSurvey(t *testing.T) {
	c := buildCampaign(t)
	opts := lastmile.SurveyOptions{Start: c.start, End: c.end}

	run := func(archive []byte, whole bool) *lastmile.Survey {
		s, skipped := collect(t, c, archive, opts, whole)
		if len(skipped) != 0 {
			t.Fatalf("skipped ASes: %v", skipped)
		}
		return s
	}
	js := run(c.jsonArchive, false)
	for _, other := range []struct {
		label string
		s     *lastmile.Survey
	}{
		{"wire", run(c.wireArchive, false)},
		{"json through ScanResults", run(c.jsonArchive, true)},
		{"wire through ScanResults", run(c.wireArchive, true)},
	} {
		ws := other.s
		if js.Len() != ws.Len() || js.Len() != 2 {
			t.Fatalf("AS counts differ: json %d, %s %d", js.Len(), other.label, ws.Len())
		}
		for _, asn := range js.ASNs() {
			jr, wr := js.Results[asn], ws.Results[asn]
			if wr == nil {
				t.Fatalf("AS %s missing from the %s survey", asn, other.label)
			}
			if jr.Class != wr.Class || jr.Probes != wr.Probes ||
				math.Float64bits(jr.DailyAmplitude) != math.Float64bits(wr.DailyAmplitude) ||
				math.Float64bits(jr.Peak.Freq) != math.Float64bits(wr.Peak.Freq) {
				t.Fatalf("AS %s verdicts differ:\njson: %+v\n%s: %+v", asn, jr, other.label, wr)
			}
			seriesIdentical(t, "AS "+asn.String()+" ("+other.label+")", jr.Signal, wr.Signal)
		}
	}
	// The campaign must actually discriminate: the congested AS is
	// classified above None, the flat one is not congested.
	if js.Results[64500].Class == lastmile.None {
		t.Fatal("congested AS classified None — the campaign signal is broken")
	}
}

// TestIngestEquivalenceMonitor: the streaming monitor fed from either
// archive reaches bit-identical window verdicts.
func TestIngestEquivalenceMonitor(t *testing.T) {
	c := buildCampaign(t)

	run := func(archive []byte) []*lastmile.StreamVerdict {
		m := lastmile.NewStreamMonitor(lastmile.StreamOptions{Window: 10 * 24 * time.Hour})
		sc := lastmile.NewResultScanner(bytes.NewReader(archive))
		for sc.Scan() {
			res := sc.Result()
			asn := sc.ASN()
			if asn == 0 {
				asn = c.probeASN[res.ProbeID]
			}
			if err := m.Observe(asn, res); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		verdicts, skipped := m.ClassifyAll()
		if len(skipped) != 0 {
			t.Fatalf("skipped ASes: %v", skipped)
		}
		return verdicts
	}
	jv, wv := run(c.jsonArchive), run(c.wireArchive)

	if len(jv) != len(wv) || len(jv) != 2 {
		t.Fatalf("verdict counts differ: json %d, wire %d", len(jv), len(wv))
	}
	for i := range jv {
		a, b := jv[i], wv[i]
		if a.ASN != b.ASN || a.Class != b.Class || a.Probes != b.Probes ||
			math.Float64bits(a.DailyAmplitude) != math.Float64bits(b.DailyAmplitude) {
			t.Fatalf("verdict %d differs:\njson: %+v\nwire: %+v", i, a, b)
		}
		seriesIdentical(t, "AS "+a.ASN.String(), a.Signal, b.Signal)
	}
}

// TestCampaignJSONMatchesEncodingJSON: the JSONL archive is, line for
// line, what encoding/json writes for every record of the campaign.
func TestCampaignJSONMatchesEncodingJSON(t *testing.T) {
	c := buildCampaign(t)
	var want []byte
	for _, r := range c.results {
		line, err := tracetest.MarshalAtlas(r)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := lastmile.MarshalAtlasResult(r); err != nil || !bytes.Equal(got, line) {
			t.Fatalf("probe %d at %v: MarshalAtlasResult = %s, %v\nencoding/json: %s",
				r.ProbeID, r.Timestamp, got, err, line)
		}
		want = append(append(want, line...), '\n')
	}
	if !bytes.Equal(c.jsonArchive, want) {
		t.Fatal("the ResultWriter archive differs from the encoding/json lines")
	}
}

// TestBinaryArchiveSmaller pins the size win the format exists for: the
// wire archive of the same campaign is a fraction of the JSONL bytes.
func TestBinaryArchiveSmaller(t *testing.T) {
	c := buildCampaign(t)
	if len(c.wireArchive) >= len(c.jsonArchive)/3 {
		t.Fatalf("wire archive %d bytes vs JSON %d: expected at least a 3x size win",
			len(c.wireArchive), len(c.jsonArchive))
	}
}
