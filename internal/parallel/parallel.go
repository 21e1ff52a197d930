// Package parallel provides the bounded worker pool the expensive
// pipeline stages fan out on. The survey world derives every stochastic
// draw from (seed, entity, period) tuples via netsim.DerivedRand, so
// per-AS, per-probe, and per-period work is order-independent; this
// package supplies the matching execution layer: results are delivered
// in input order, making parallel output byte-identical to the serial
// run regardless of scheduling. Pipeline does the same for input that
// arrives as a stream, such as a whole archive: batches are filled on
// the caller's goroutine and delivered, processed, in fill order. See
// DESIGN.md §9 for the determinism argument.
package parallel

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/last-mile-congestion/lastmile/internal/telemetry"
)

// Pool instrumentation registers into the process-wide registry at init
// time: pooled fan-outs happen all over the pipeline, so one shared
// inflight gauge is the queue-depth signal operators read. The serial
// path stays untouched — a GOMAXPROCS=1 run must reproduce the serial
// behaviour with zero added cost.
var (
	poolRuns     = telemetry.Default().Counter("parallel_pool_runs_total")
	poolTasks    = telemetry.Default().Counter("parallel_tasks_total")
	poolInflight = telemetry.Default().Gauge("parallel_inflight")
)

// Map runs fn for indices 0..n-1 on at most workers goroutines and
// returns the results in input order. workers <= 1 (or n <= 1) runs
// serially on the calling goroutine with no pool overhead — the path
// callers passing GOMAXPROCS take at GOMAXPROCS=1, which reproduces the
// serial behaviour exactly.
//
// Error semantics are first-error-wins in *input* order: the returned
// error is the one fn produced at the lowest failing index, matching
// what a serial loop that stops at the first failure would return.
// After any failure (or context cancellation) no new indices are
// dispatched; in-flight calls run to completion.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	if workers <= 1 || n == 1 {
		return mapSerial(ctx, n, fn)
	}
	if workers > n {
		workers = n
	}
	poolRuns.Inc()
	out := make([]T, n)
	errs := make([]error, n)
	var failed atomic.Bool

	// The dispatcher feeds indices in order and stops at the first
	// observed failure; workers drain the channel until it closes, so
	// the dispatcher's send never deadlocks.
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			if failed.Load() || ctx.Err() != nil {
				return
			}
			idx <- i
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				poolTasks.Inc()
				poolInflight.Inc()
				v, err := fn(i)
				poolInflight.Dec()
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// mapSerial is the workers<=1 path: an ordinary loop, so error handling
// and evaluation order match pre-parallel code exactly.
func mapSerial[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := fn(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ForEach runs fn for indices 0..n-1 on at most workers goroutines with
// the same ordering and error semantics as Map, for stages that write
// their results through fn (typically into a caller-owned slice at
// index i) rather than returning them.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	_, err := Map(ctx, workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
