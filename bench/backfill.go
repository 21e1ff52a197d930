package main

// serve-backfill: the write-only counterpart of serve-live. A cold
// daemon finds every day of the campaign already released, as after an
// outage, and catches up with no API load. The benchmark keeps the clock
// ticking so the maintenance loop refreshes the snapshot, and so reads
// the engine, while ingest runs. It ticks on ingest progress rather than
// on wall time: a slow trial would otherwise do more refreshes, and so
// more work, than a fast one.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/serve"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
)

const (
	// backfillSetups is how many times set-up encodes the per-AS archives.
	backfillSetups = 3
	// backfillMinTrials is the fewest trials a run reports.
	backfillMinTrials = 5
	// backfillTicks is how many times a trial moves the clock half a bin,
	// the daemon's maintenance cadence: once per this share of the
	// campaign handed out.
	backfillTicks = 16
)

func runBackfill(ctx context.Context, e *env, c *campaign, seconds float64) (*result, error) {
	if err := c.verify(archiveFile); err != nil {
		return nil, err
	}
	res := &result{workload: "serve-backfill"}
	// Set-up encodes the per-AS archives, timed into writers that keep
	// nothing, so the time is the encoder's and not the disk's; then it
	// writes them once, untimed.
	targets := filepath.Join(e.work, "full")
	all := func(time.Time) string { return targets }
	setups, err := timedSetups(backfillSetups, func() error { return splitByAS(c, []string{targets}, all, discard) })
	if err != nil {
		return nil, err
	}
	if err := splitByAS(c, []string{targets}, all, createFile); err != nil {
		return nil, err
	}
	// No state path: the daemon starts cold and writes no checkpoints.
	cfg := filepath.Join(e.work, "backfill.json")
	if err := writeConfig(cfg, "", targets, c); err != nil {
		return nil, err
	}

	var (
		walls, eofs, cpus []float64
		first             map[bgp.ASN]*verdictBits
		reg               *telemetry.Registry
	)
	for start := time.Now(); len(walls) < backfillMinTrials || time.Since(start).Seconds() < seconds; {
		runtime.GC() // each trial starts from a collected heap, not the last trial's garbage
		reg = telemetry.NewRegistry()
		clock := serve.NewFakeClock(c.End)
		f := newFeed(clock, binWidth/2, 0, len(c.ASNs))
		f.every, f.progress = int64(c.Records/backfillTicks), make(chan struct{}, backfillTicks)
		d, _, err := newDaemon(cfg, clock, f.open, reg)
		if err != nil {
			return nil, err
		}
		res.attempted += len(c.ASNs)
		wall, eof, cpu, err := backfillTrial(ctx, d, f)
		res.failed += int(f.failures.Load())
		if err != nil {
			return nil, err
		}
		if got := int(f.handed.Load()); got != c.Records {
			return res.fail(fmt.Errorf("sources handed out %d records, the campaign holds %d", got, c.Records)), nil
		}
		if first == nil {
			handed := f.handedByAS()
			if first, err = checkDaemon(d, c.ASNs, func(asn bgp.ASN) ([]core.AttributedResult, error) {
				return archivePrefix([]string{filepath.Join(targets, runName(asn))}, []int{handed[asn]})
			}); err != nil {
				return res.fail(err), nil
			}
		} else if err := sameBits(snapshotBits(d.ReadSnapshot()), first); err != nil {
			return res.fail(fmt.Errorf("trial %d against trial 1: %w", len(walls)+1, err)), nil
		}
		walls = append(walls, wall.Seconds())
		eofs = append(eofs, float64(c.Records)/eof.Seconds())
		cpus = append(cpus, ms(cpu)/(float64(c.Records)/1e3))
	}
	rss := peakRSS()

	res.correct = true
	res.add(endToEnd, "setup_s", "s", median(setups), setups)
	res.add(endToEnd, "result_latency_ms", "ms", median(walls)*1e3, scale(walls, 1e3))
	res.add(endToEnd, "cpu_ms_per_krec", "ms/krec", median(cpus), cpus)
	res.add(endToEnd, "peak_rss_mb", "MB", float64(rss)/(1<<20), nil)
	res.add(diagnostic, "ingest_records_per_s", "rec/s", median(eofs), eofs)
	refresh := reg.Histogram("serve_snapshot_refresh_seconds", telemetry.DefLatencyBuckets)
	res.add(diagnostic, "refreshes", "count", float64(refresh.Count()), nil)
	res.add(diagnostic, "contention_per_kobs", "count/krec",
		float64(reg.Counter("engine_shard_contention_total").Value())/(float64(c.Records)/1e3), nil)
	res.add(diagnostic, "evicted_bins", "count", float64(reg.Counter("engine_evicted_bins_total").Value()), nil)
	return res, nil
}

// backfillTrial runs one catch-up: it returns the time until the final
// snapshot was published, the time until the last target reached EOF,
// and the CPU the process spent.
func backfillTrial(ctx context.Context, d *serve.Daemon, f *feed) (wall, eof, cpu time.Duration, err error) {
	cpu0 := cpuTime()
	start := time.Now()
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(runCtx, nil) }()
	deadline := time.After(drainTimeout)
	for eof == 0 {
		select {
		case <-f.allDone:
			eof = time.Since(start)
		case <-f.progress:
			f.clock.Advance(f.step)
		case <-deadline:
			stop()
			<-runErr
			return 0, 0, 0, errors.New("backfill did not finish")
		case <-ctx.Done():
			<-runErr
			return 0, 0, 0, ctx.Err()
		}
	}
	stop()
	if err := <-runErr; err != nil {
		return 0, 0, 0, fmt.Errorf("daemon: %w", err)
	}
	return time.Since(start), eof, cpuTime() - cpu0, nil
}
