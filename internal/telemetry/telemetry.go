// Package telemetry is the pipeline's stdlib-only metrics subsystem: the
// continuous self-measurement layer a long-running last-mile monitor
// needs to be trusted (ingest latency, eviction churn, stage timings,
// shard imbalance), kept cheap enough to run on every hot path.
//
// Three metric kinds cover the pipeline's needs:
//
//   - Counter: a monotonically increasing count (lock-free, atomic).
//   - Gauge: an instantaneous level that moves both ways (atomic), plus
//     GaugeFunc for levels computed at snapshot time.
//   - Histogram: a fixed-boundary latency/size distribution with exact
//     nearest-rank quantiles over its boundaries (see histogram.go).
//
// Metrics live in a Registry: a named, process-wide (or per-component)
// collection with deterministic snapshot ordering, exposed as Prometheus
// text and JSON by expose.go. Registration is get-or-create by name, so
// components that share a registry share the metric; registration is
// expected once per component at construction time, never on a hot path.
//
// The contract that makes telemetry safe to wire through the
// deterministic pipeline is that it is observation-only: nothing read
// from a metric may feed back into a classification result. The dettaint
// analyzer encodes this by treating the package as a taint sanitizer —
// the wall-clock reads inside Timer never taint results — and the
// equivalence tests in internal/core and internal/stream pin that
// instrumented runs produce bit-identical verdicts.
package telemetry

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. All methods are lock-free
// and safe for concurrent use. Counters must be shared by pointer: the
// zero value works, but a copy would fork the count (go vet's copylocks
// check flags by-value transport).
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative for the counter to stay
// monotonic; negative deltas are ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways. All methods
// are lock-free and safe for concurrent use; share by pointer.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// nameRE is the accepted metric name shape: a Prometheus-style base name
// optionally followed by one brace-delimited label set, which snapshot
// rendering splits back apart (e.g. `engine_shard_ingest_total{shard="3"}`).
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]+\})?$`)

// Registry is a named collection of metrics with get-or-create
// registration and deterministic (name-sorted) snapshots. It is safe for
// concurrent use. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	gaugeFuncs map[string]func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		gaugeFuncs: make(map[string]func() float64),
	}
}

// defaultRegistry is the process-wide registry package-level subsystems
// (dsp plan caches, the parallel worker pool) register into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Binaries expose or dump it;
// components with per-instance state (the delay engine) should take a
// registry option instead so tests stay isolated.
func Default() *Registry { return defaultRegistry }

// checkName panics on a malformed metric name. Registration runs at
// component construction time, so a bad name is a programming error, not
// a runtime condition to handle.
func checkName(name string) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

// checkFree panics when name is already registered under a different
// kind than want ("counter", "gauge", "histogram").
func (r *Registry) checkFree(name, want string) {
	kinds := map[string]bool{
		"counter":   r.counters[name] != nil,
		"gauge":     r.gauges[name] != nil || r.gaugeFuncs[name] != nil,
		"histogram": r.histograms[name] != nil,
	}
	for kind, present := range kinds {
		if present && kind != want {
			panic(fmt.Sprintf("telemetry: metric %q already registered as a %s", name, kind))
		}
	}
}

// Counter returns the counter registered under name, creating it on
// first use. It panics if name is malformed or already registered as a
// different kind.
func (r *Registry) Counter(name string) *Counter {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "counter")
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. It panics if name is malformed or already registered as a
// different kind.
func (r *Registry) Gauge(name string) *Gauge {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "gauge")
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose level is computed by fn at snapshot
// time — the fit for levels derived from component state (resident bins,
// window probes) rather than maintained incrementally. Re-registering a
// name replaces the function (last wins), so a rebuilt component simply
// takes over its series. fn must not call back into the registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	checkName(name)
	if fn == nil {
		panic(fmt.Sprintf("telemetry: nil GaugeFunc for %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "gauge")
	if r.gauges[name] != nil {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a plain gauge", name))
	}
	r.gaugeFuncs[name] = fn
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket boundaries on first use. It panics if name is
// malformed, registered as a different kind, or registered as a
// histogram with different boundaries.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "histogram")
	h := r.histograms[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.histograms[name] = h
		return h
	}
	if !sameBounds(h.bounds, bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q re-registered with different boundaries", name))
	}
	return h
}

// names returns every registered metric name, sorted, while holding no
// lock — callers hold r.mu.
func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.gaugeFuncs {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
