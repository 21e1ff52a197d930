package experiments

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// TestBatchStreamReplayEquivalence is the unification contract of the
// shared incremental delay engine: streaming a completed measurement
// period through stream.Monitor reproduces core.RunSurvey's signals and
// classifications bit for bit, at GOMAXPROCS 1 (one engine stripe, a
// serial ClassifyAll) and at GOMAXPROCS 8. Batch is a replay — there is
// one pipeline, not two.

// buildReplayDataset generates six days of Atlas traceroutes for probes
// drawn from three Tokyo ISPs with different congestion levels, so the
// equivalence covers Severe, Mild and None verdicts at once, plus one
// ISP_D probe that reports on the first day only, so that both sides
// skip its AS as too sparse. The feed order is per probe (each probe's
// full timeline in turn), which also exercises cross-probe out-of-order
// ingestion on the streaming side.
func buildReplayDataset(t testing.TB) (results []core.AttributedResult, start, end time.Time) {
	t.Helper()
	tk, err := scenario.BuildTokyo(2020, 10)
	if err != nil {
		t.Fatal(err)
	}
	period := scenario.TokyoPeriod()
	start = period.Start
	end = start.AddDate(0, 0, 6)
	eng := atlas.NewEngine(2020)
	run := func(p *atlas.Probe, until time.Time) {
		if err := eng.Run(p, start, until, func(r *traceroute.Result) error {
			results = append(results, core.AttributedResult{ASN: p.ASN, Result: r})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, isp := range []*scenario.TokyoISP{tk.ISPA, tk.ISPB, tk.ISPC} {
		probes := isp.Probes
		if len(probes) > 3 {
			probes = probes[:3]
		}
		for _, p := range probes {
			run(p, end)
		}
	}
	run(tk.ISPD.Probes[0], start.AddDate(0, 0, 1))
	return results, start, end
}

func TestBatchStreamReplayEquivalence(t *testing.T) {
	results, start, end := buildReplayDataset(t)
	batch, batchSkipped, err := core.RunSurvey("replay", results, core.SurveyOptions{
		Start: start, End: end, Workers: 1, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Len() == 0 {
		t.Fatal("batch survey classified no AS")
	}

	for _, procs := range []int{1, 8} {
		label := fmt.Sprintf("GOMAXPROCS=%d", procs)
		m, verdicts, skipped := replayAtProcs(t, procs, results, end.Sub(start))
		if st := m.Stats(); st.Dropped != 0 {
			t.Fatalf("%s: replay dropped %d results", label, st.Dropped)
		}
		if len(verdicts) != batch.Len() {
			t.Fatalf("%s: %d streaming verdicts vs %d batch results", label, len(verdicts), batch.Len())
		}
		if len(skipped) != len(batchSkipped) || len(skipped) == 0 {
			t.Fatalf("%s: %d streaming skips vs %d batch skips, want the sparse AS in both", label, len(skipped), len(batchSkipped))
		}
		for i := range skipped {
			if skipped[i].ASN != batchSkipped[i].ASN || skipped[i].Reason.Error() != batchSkipped[i].Reason.Error() {
				t.Fatalf("%s: skip %d is %v (%v), batch skipped %v (%v)", label, i,
					skipped[i].ASN, skipped[i].Reason, batchSkipped[i].ASN, batchSkipped[i].Reason)
			}
		}
		for _, v := range verdicts {
			want := batch.Results[v.ASN]
			if want == nil {
				t.Fatalf("%s: AS%v classified online but absent from batch survey", label, v.ASN)
			}
			if v.Probes != want.Probes || v.Class != want.Class || v.IsDaily != want.IsDaily {
				t.Fatalf("%s: AS%v verdict {%d, %v, %v} vs batch {%d, %v, %v}", label, v.ASN,
					v.Probes, v.Class, v.IsDaily, want.Probes, want.Class, want.IsDaily)
			}
			if math.Float64bits(v.DailyAmplitude) != math.Float64bits(want.DailyAmplitude) {
				t.Fatalf("%s: AS%v amplitude %v vs %v", label, v.ASN, v.DailyAmplitude, want.DailyAmplitude)
			}
			if fmt.Sprintf("%#v", v.Peak) != fmt.Sprintf("%#v", want.Peak) {
				t.Fatalf("%s: AS%v peak %#v vs %#v", label, v.ASN, v.Peak, want.Peak)
			}
			sameSeries(t, fmt.Sprintf("%s AS%v signal", label, v.ASN), want.Signal, v.Signal)
		}
	}
}

// replayAtProcs streams results through a new monitor with the given
// window and classifies it, all at GOMAXPROCS procs, then restores the
// previous setting.
func replayAtProcs(t *testing.T, procs int, results []core.AttributedResult, window time.Duration) (*stream.Monitor, []*stream.Verdict, []stream.SkippedAS) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m := stream.NewMonitor(stream.Options{Window: window})
	for _, ar := range results {
		if err := m.Observe(ar.ASN, ar.Result); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
	}
	verdicts, skipped := m.ClassifyAll()
	return m, verdicts, skipped
}
