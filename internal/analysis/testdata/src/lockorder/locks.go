// Package locks is the golden fixture for the lockorder analyzer: lock
// classes are keyed structurally (locks.alpha.mu, locks.shard.mu), so
// every instance of a type's mutex is one graph node. The fixture pins
// one direct cycle, one cycle closed through a callback run under a
// lock, one closed by a call made after an early-return branch that
// unlocks, one closed by a go statement's argument, the absence of one
// that only goroutines started under a lock would close, the TryLock
// contention idiom, and the sampled-tick telemetry contract on the hot
// shard lock.
package locks

import (
	"errors"
	"sync"

	"github.com/last-mile-congestion/lastmile/internal/analysis/testdata/src/lockorder/telemetry"
)

type alpha struct{ mu sync.Mutex }
type beta struct{ mu sync.Mutex }
type gamma struct{ mu sync.Mutex }
type delta struct{ mu sync.Mutex }
type epsilon struct{ mu sync.Mutex }

var (
	va alpha
	vb beta
	vg gamma
	vd delta
	ve epsilon
)

// lockAB acquires alpha then beta; together with lockBA's reversed
// order this closes the fixture's direct deadlock cycle. The report
// lands on the first edge's witness site.
func lockAB() {
	va.mu.Lock()
	vb.mu.Lock() // want "lock order cycle between locks.alpha.mu, locks.beta.mu"
	vb.mu.Unlock()
	va.mu.Unlock()
}

// lockBA is the opposing path of the cycle.
func lockBA() {
	vb.mu.Lock()
	va.mu.Lock()
	va.mu.Unlock()
	vb.mu.Unlock()
}

// lockGamma acquires gamma on behalf of callers.
func lockGamma() {
	vg.mu.Lock()
	defer vg.mu.Unlock()
}

// callUnder holds alpha across a call into lockGamma: the interprocedural
// edge alpha → gamma is recorded but stays acyclic, so no finding.
func callUnder() {
	va.mu.Lock()
	defer va.mu.Unlock()
	lockGamma()
}

// withDelta runs fn with delta held — the registry GaugeFunc /
// printer.Block shape. The callback's acquires happen under delta even
// though the call through fn is dynamic.
func withDelta(fn func()) {
	vd.mu.Lock()
	defer vd.mu.Unlock()
	fn()
}

// callbackUnder contributes the delta → epsilon edge through the
// callback; lockED's epsilon → delta closes the second cycle.
func callbackUnder() {
	withDelta(func() { // want "lock order cycle between locks.delta.mu, locks.epsilon.mu"
		ve.mu.Lock()
		ve.mu.Unlock()
	})
}

// lockED is the opposing path of the callback cycle.
func lockED() {
	ve.mu.Lock()
	vd.mu.Lock()
	vd.mu.Unlock()
	ve.mu.Unlock()
}

type table struct{ mu sync.RWMutex }

var vt table

// readThenAlpha: read locks order like write locks; table → alpha stays
// acyclic and silent.
func readThenAlpha() int {
	vt.mu.RLock()
	va.mu.Lock()
	va.mu.Unlock()
	vt.mu.RUnlock()
	return 0
}

// shard mirrors the engine's striped ingest lock; the test configures
// HotPathLocks to {"locks.shard.mu"}.
type shard struct {
	mu       sync.Mutex
	tick     int
	n        int
	lat      *telemetry.Histogram
	ingested *telemetry.Counter
}

var sh shard

var contention = &telemetry.Counter{}

// observeBad times every observation under the shard lock — the
// contract violation the analyzer exists to catch.
func observeBad(v float64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.n++
	sh.lat.Observe(v) // want "telemetry call Histogram.Observe under hot lock locks.shard.mu"
}

// observeGood follows the engine's contract: the failed TryLock counts
// contention while NOT holding the lock, atomic counters are exempt
// anywhere, and histogram work sits behind the sampled-tick guard.
func observeGood(v float64) {
	if !sh.mu.TryLock() {
		contention.Inc()
		sh.mu.Lock()
	}
	defer sh.mu.Unlock()
	sh.tick++
	sampled := sh.tick&7 == 0
	if sampled {
		sh.lat.Observe(v)
	}
	sh.n++
	sh.ingested.Inc()
}

// observeSuppressed shows an accepted amortised exception via the shared
// lmvet:ignore machinery.
func observeSuppressed(v float64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.lat.Observe(v) //lmvet:ignore lockorder fixture demonstration of an accepted amortised timing
}

// registry mirrors the telemetry registry: get-or-create takes its
// mutex, and a gauge callback is registered, and later evaluated, under
// it.
type registry struct {
	mu     sync.Mutex
	gauges []func() float64
}

func (r *registry) counter() *telemetry.Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &telemetry.Counter{}
}

func (r *registry) gaugeFunc(fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, fn)
}

var errDraining = errors.New("draining")

// daemon mirrors the serve daemon: its gauge callback takes daemon.mu,
// which orders registry.mu before daemon.mu.
type daemon struct {
	mu       sync.Mutex
	draining bool
	gen      int
	reg      *registry
}

func newDaemon(r *registry) *daemon {
	d := &daemon{reg: r}
	r.gaugeFunc(func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.gen)
	})
	return d
}

// apply mirrors the daemon's applyConfig: daemon.mu is released only
// inside its early-return branches (an if body, a case clause and a
// select clause), so the get-or-create after them still runs under
// daemon.mu and closes the daemon/registry cycle.
func (d *daemon) apply(stop <-chan struct{}) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return errDraining
	}
	switch {
	case d.gen < 0:
		d.mu.Unlock()
		return errDraining
	}
	select {
	case <-stop:
		d.mu.Unlock()
		return errDraining
	default:
	}
	d.gen++
	d.reg.counter().Inc() // want "lock order cycle between locks.daemon.mu, locks.registry.mu"
	d.mu.Unlock()
	return nil
}

// quietDaemon has the same gauge callback but counts only after its
// unlocks: inside its early-return branch and after the last unlock. No
// quietDaemon.mu → registry.mu edge, so no cycle.
type quietDaemon struct {
	mu       sync.Mutex
	draining bool
	gen      int
	reg      *registry
}

func newQuietDaemon(r *registry) *quietDaemon {
	d := &quietDaemon{reg: r}
	r.gaugeFunc(func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.gen)
	})
	return d
}

func (d *quietDaemon) apply() error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		d.reg.counter().Inc()
		return errDraining
	}
	d.gen++
	d.mu.Unlock()
	d.reg.counter().Inc()
	return nil
}

type spawner struct{ mu sync.Mutex }
type worker struct{ mu sync.Mutex }

var (
	vs spawner
	vw worker
)

// lockWorker takes worker.mu on whatever goroutine runs it.
func lockWorker() {
	vw.mu.Lock()
	defer vw.mu.Unlock()
}

// spawnUnder starts a goroutine while it holds spawner.mu. It takes
// worker.mu on its own goroutine, which holds nothing of the spawner's,
// so there is no spawner → worker edge.
func spawnUnder() {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	go lockWorker()
}

// startWorker is the daemon's startTargetLocked shape: a function that
// only starts goroutines, a named call and a literal, does not acquire
// what they do.
func startWorker() {
	go lockWorker()
	go func() {
		vw.mu.Lock()
		vw.mu.Unlock()
	}()
}

// startUnder calls startWorker with spawner.mu held: still no edge.
func startUnder() {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	startWorker()
}

// workerThenSpawner takes worker.mu, then spawner.mu. Had the go
// statements above been calls, this would close a false cycle.
func workerThenSpawner() {
	vw.mu.Lock()
	vs.mu.Lock()
	vs.mu.Unlock()
	vw.mu.Unlock()
}

type kappa struct{ mu sync.Mutex }
type lambda struct{ mu sync.Mutex }

var (
	vk kappa
	vl lambda
)

// lambdaValue takes lambda.mu to compute a value.
func lambdaValue() int {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	return 1
}

func consume(int) {}

// spawnWithArg evaluates its go statement's argument under kappa.mu, on
// its own goroutine: kappa → lambda is a real edge, and lockLK closes a
// real cycle with it.
func spawnWithArg() {
	vk.mu.Lock()
	defer vk.mu.Unlock()
	go consume(lambdaValue()) // want "lock order cycle between locks.kappa.mu, locks.lambda.mu"
}

// lockLK is the opposing path of the kappa/lambda cycle.
func lockLK() {
	vl.mu.Lock()
	vk.mu.Lock()
	vk.mu.Unlock()
	vl.mu.Unlock()
}
