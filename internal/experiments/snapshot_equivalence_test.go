package experiments

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/stream"
)

// Acceptance test for the serializable-engine work on the realistic
// Tokyo dataset: a checkpointed replay (snapshot mid-stream, restore,
// continue) must reproduce the uninterrupted pipeline's verdicts bit for
// bit. With TestBatchStreamReplayEquivalence it pins
// batch ≡ stream ≡ restored checkpoint.

// TestMonitorSnapshotRestoreEquivalence interrupts a streaming replay
// of the Tokyo period halfway: snapshot, restore into a fresh monitor,
// feed the rest. Every verdict must be bit-identical to a monitor that
// streamed the whole period without interruption.
func TestMonitorSnapshotRestoreEquivalence(t *testing.T) {
	results, start, end := buildReplayDataset(t)
	opts := stream.Options{Window: end.Sub(start)}

	uninterrupted := stream.NewMonitor(opts)
	for _, ar := range results {
		if err := uninterrupted.Observe(ar.ASN, ar.Result); err != nil {
			t.Fatal(err)
		}
	}

	first := stream.NewMonitor(opts)
	half := len(results) / 2
	for _, ar := range results[:half] {
		if err := first.Observe(ar.ASN, ar.Result); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := first.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	resumed, err := stream.RestoreMonitor(bytes.NewReader(snap.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range results[half:] {
		if err := resumed.Observe(ar.ASN, ar.Result); err != nil {
			t.Fatal(err)
		}
	}

	if a, b := resumed.Stats(), uninterrupted.Stats(); a != b {
		t.Fatalf("stats diverged: %+v vs %+v", a, b)
	}
	wantVerdicts, wantSkipped := uninterrupted.ClassifyAll()
	gotVerdicts, gotSkipped := resumed.ClassifyAll()
	if len(gotVerdicts) != len(wantVerdicts) || len(gotSkipped) != len(wantSkipped) {
		t.Fatalf("%d verdicts/%d skips vs %d/%d",
			len(gotVerdicts), len(gotSkipped), len(wantVerdicts), len(wantSkipped))
	}
	for i, w := range wantVerdicts {
		g := gotVerdicts[i]
		if g.ASN != w.ASN || g.Class != w.Class || g.Probes != w.Probes || g.IsDaily != w.IsDaily {
			t.Fatalf("verdict %d: {%v,%v,%d,%v} vs {%v,%v,%d,%v}", i,
				g.ASN, g.Class, g.Probes, g.IsDaily, w.ASN, w.Class, w.Probes, w.IsDaily)
		}
		if math.Float64bits(g.DailyAmplitude) != math.Float64bits(w.DailyAmplitude) {
			t.Fatalf("verdict %d: amplitude %v vs %v", i, g.DailyAmplitude, w.DailyAmplitude)
		}
		sameSeries(t, fmt.Sprintf("AS%v signal", g.ASN), w.Signal, g.Signal)
	}
}
