package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// TestSurveyFeedReusedBufferEquivalence: a feed handed one Result
// rewritten in place for every record (CopyFrom, as the scanners do)
// surveys bit-identically to a feed handed a fresh clone per record, so
// the feed retains nothing that aliases its input.
func TestSurveyFeedReusedBufferEquivalence(t *testing.T) {
	results := diurnalResults(64500, 4, 6, 5)
	results = append(results, diurnalResults(64501, 3, 6, 1.5)...)
	broken := mkSurveyTrace(9001, surveyT0, 2)
	broken.Hops = broken.Hops[:1]
	results = append(results, AttributedResult{ASN: 64999, Result: broken})
	fresh, reused := NewSurveyFeed(SurveyOptions{}), NewSurveyFeed(SurveyOptions{})
	var buf traceroute.Result
	for _, ar := range results {
		if err := fresh.Add(ar.ASN, ar.Result.Clone()); err != nil {
			t.Fatal(err)
		}
		buf.CopyFrom(ar.Result)
		if err := reused.Add(ar.ASN, &buf); err != nil {
			t.Fatal(err)
		}
	}
	// A feed that kept the buffer would now read these values.
	for i := range buf.Hops {
		for j := range buf.Hops[i].Replies {
			buf.Hops[i].Replies[j].RTT = math.NaN()
		}
	}
	buf.Timestamp = time.Time{}
	want, wantSkipped, err := fresh.Survey("eq")
	if err != nil {
		t.Fatal(err)
	}
	got, gotSkipped, err := reused.Survey("eq")
	if err != nil {
		t.Fatal(err)
	}
	sameSurvey(t, "reused", got, want, gotSkipped, wantSkipped)
}

// TestSurveyFeedResidentGauges: after Survey the engine_resident_*
// gauges of a shared registry read the feed's engine. The feed is timed
// once: a second Survey is an error and records no second
// survey_feed_seconds observation.
func TestSurveyFeedResidentGauges(t *testing.T) {
	results := diurnalResults(64500, 4, 2, 5)
	results = append(results, diurnalResults(64501, 3, 2, 0)...)
	reg := telemetry.NewRegistry()
	f := NewSurveyFeed(SurveyOptions{Metrics: reg})
	for _, ar := range results {
		if err := f.Add(ar.ASN, ar.Result); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := f.Survey("gauges"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Survey("again"); err == nil {
		t.Fatal("second Survey succeeded")
	}
	gauges := map[string]int64{}
	for _, s := range reg.Snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "engine_resident_"):
			gauges[s.Name] = int64(s.Value)
		case s.Name == "survey_feed_seconds" && s.Count != 1:
			t.Fatalf("survey_feed_seconds observed %d times, want 1", s.Count)
		}
	}
	if len(gauges) != 4 || gauges["engine_resident_samples"] == 0 {
		t.Fatalf("gauges = %v", gauges)
	}
}
