package core

import (
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/telemetry"
)

// TestRunSurveyMetricsEquivalence pins the observation-only contract of
// the survey instrumentation: RunSurvey with a caller-supplied registry
// must produce bit-identical results to a run on its private default
// registry. If a telemetry hook ever perturbs the pipeline, this fails.
func TestRunSurveyMetricsEquivalence(t *testing.T) {
	results := diurnalResults(64500, 4, 6, 5)
	results = append(results, diurnalResults(64501, 3, 6, 0)...)

	base, baseSkipped, err := RunSurvey("eq", results, SurveyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	got, gotSkipped, err := RunSurvey("eq", results, SurveyOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	sameSurvey(t, "instrumented", got, base, gotSkipped, baseSkipped)

	// The shared registry really did observe the run: the survey stage
	// timers and the engine ingest counters it passes through must be
	// populated.
	var feedSeen, ingestSeen bool
	for _, snap := range reg.Snapshot() {
		switch {
		case snap.Name == "survey_feed_seconds" && snap.Count >= 1:
			feedSeen = true
		case snap.Name == `engine_ingest_total{shard="0"}` && snap.Value >= 1:
			ingestSeen = true
		}
	}
	if !feedSeen || !ingestSeen {
		t.Fatalf("shared registry missing survey/engine series (feed=%v ingest=%v)", feedSeen, ingestSeen)
	}
}
