package serve

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// restoredGroups restores the state file at path and returns the
// restored monitor's Ingested counter and the sum of its bins' group
// counts. Each accepted Observe adds one group to one bin, so with
// nothing evicted or dropped the two agree exactly when the checkpoint
// was taken at a consistent cut.
func restoredGroups(t *testing.T, path string) (ingested, groups int64) {
	t.Helper()
	res, err := stream.Open(path, stream.Options{})
	if err != nil || res.Warning != nil || !res.Resumed {
		t.Fatalf("open checkpoint: resumed %v, warning %v, err %v", res.Resumed, res.Warning, err)
	}
	var buf bytes.Buffer
	if err := res.Monitor.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sc := wire.NewSnapshotScanner(&buf)
	for sc.Scan() {
		for _, b := range sc.Probe().Bins {
			groups += int64(b.Groups)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return res.Monitor.Stats().Ingested, groups
}

// TestDaemonCheckpointConsistentCut ticks the daemon's maintenance loop
// while its targets ingest, and restores every checkpoint it writes,
// bases and segments alike. The sources are paced on the fake clock: a
// record is released once the clock reaches its timestamp, so each tick
// releases a quarter hour of every target's data, which the runners
// observe while the tick's checkpoint is written. Ingest therefore
// spans every tick up to the data's end, and a checkpoint lands
// mid-ingest however the goroutines are scheduled. The window outlasts
// the data, so nothing is evicted or dropped: each restored monitor's
// Ingested must equal the sum of its bins' group counts. A checkpoint
// taken while an Observe runs would count one and miss the other.
func TestDaemonCheckpointConsistentCut(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.lmw")
	cfgPath := filepath.Join(dir, "cfg.json")
	timelines := map[string][]soakObs{}
	var targets string
	var total int64
	end := soakT0.Add(6 * time.Hour)
	for i := 0; i < 4; i++ {
		asn := bgp.ASN(64510 + i)
		name := fmt.Sprintf("t%d", i)
		tl := diurnalTimeline(asn, 10*i, soakT0, end, 20*time.Second, float64(i))
		timelines["src-"+name] = tl
		total += int64(len(tl))
		if i > 0 {
			targets += ","
		}
		targets += fmt.Sprintf(`{"name": %q, "asn": %d, "source": "src-%s"}`, name, asn, name)
	}
	writeFile(t, cfgPath, fmt.Sprintf(`{
  "state_path": %q,
  "window": "240h", "bin_width": "30m", "min_traceroutes": 3, "max_lateness": "240h",
  "targets": [%s]
}`, statePath, targets))
	h := &soakHarness{clock: NewFakeClock(soakT0)}
	h.setTimelines(timelines)
	d, err := New(cfgPath, Options{Clock: h.clock, Open: h.opener, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, kill := context.WithCancel(context.Background())
	run := make(chan error, 1)
	go func() { run <- d.Run(ctx, nil) }()

	// parked waits until the maintenance loop is between ticks, so the
	// state file is complete, and every runner whose source still holds
	// data is parked on the clock, so everything released so far has
	// been observed. Each of them waits on exactly one timer.
	parked := func() {
		waiters := 1
		for _, tl := range timelines {
			if tl[len(tl)-1].ts.After(h.clock.Now()) {
				waiters++
			}
		}
		h.clock.BlockUntil(waiters)
	}
	var checked, midIngest int
	for done := false; !done; {
		parked()
		done = d.Monitor().Stats().Ingested == total
		before := d.checkpoints.Value()
		h.clock.Advance(d.tick)
		parked()
		if d.checkpoints.Value() == before {
			continue
		}
		ingested, groups := restoredGroups(t, statePath)
		if ingested != groups {
			t.Fatalf("checkpoint %d restores Ingested %d but %d groups in its bins", checked+1, ingested, groups)
		}
		checked++
		if ingested < total {
			midIngest++
		}
	}
	kill()
	if err := <-run; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ingested, groups := restoredGroups(t, statePath); ingested != total || groups != total {
		t.Fatalf("drained checkpoint: Ingested %d, groups %d, want %d", ingested, groups, total)
	}
	if midIngest == 0 {
		t.Fatalf("none of %d checkpoints was taken while targets ingested", checked)
	}
	t.Logf("%d checkpoints restored, %d of them taken mid-ingest", checked, midIngest)
}
