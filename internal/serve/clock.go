// Package serve implements lmserved, the long-running monitoring
// daemon: a declarative config file describing monitored targets, hot
// reload on SIGHUP or a poll interval with diff-based target
// start/drain, per-target ingest goroutines, periodic engine
// checkpoints at a consistent cut, and a read API (/api/verdicts,
// /api/series/{asn}, /api/health) served from immutable snapshots so
// reads never touch the ingest hot path.
//
// Every time-dependent behaviour goes through the Clock seam, so the
// soak harness can drive days of simulated time deterministically
// through a FakeClock while production uses the system clock.
package serve

import (
	"sort"
	"sync"
	"time"
)

// Clock is the daemon's time source. Production code uses SystemClock;
// tests inject a FakeClock and advance it explicitly, so reload polls
// and maintenance ticks become deterministic instead of wall-clock
// races.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the (then-current) time
	// once, after d has elapsed. A non-positive d fires immediately.
	// The channel is buffered: an abandoned timer never leaks a
	// goroutine or blocks a sender.
	After(d time.Duration) <-chan time.Time
}

// systemClock is the production Clock: the process wall clock.
type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SystemClock returns the wall-clock Clock.
func SystemClock() Clock { return systemClock{} }

// fakeWaiter is one pending After: a deadline and the buffered channel
// the firing time is delivered on.
type fakeWaiter struct {
	deadline time.Time
	ch       chan time.Time
	// seq breaks deadline ties so firing order is deterministic
	// (registration order), never map- or scheduler-dependent.
	seq uint64
}

// FakeClock is a manually advanced Clock for deterministic tests. Time
// only moves when Advance is called; timers registered via After fire
// during the Advance that reaches their deadline, in deadline order
// (registration order within a tie). It is safe for concurrent use.
type FakeClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	seq     uint64
	waiters []*fakeWaiter
}

// NewFakeClock returns a FakeClock reading start until advanced.
func NewFakeClock(start time.Time) *FakeClock {
	c := &FakeClock{now: start}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After registers a timer firing d after the fake now. A non-positive d
// fires before After returns, so polling loops that recheck Now never
// miss a wakeup that an Advance already satisfied.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.seq++
	c.waiters = append(c.waiters, &fakeWaiter{deadline: c.now.Add(d), ch: ch, seq: c.seq})
	c.cond.Broadcast()
	return ch
}

// AfterTime registers a timer firing once the fake time reaches the
// absolute instant at. Unlike After, whose deadline is relative to the
// now at call time, AfterTime is immune to the register/advance race: a
// goroutine that computes its deadline before an Advance and registers
// after it still fires correctly (immediately, if at has already
// passed). Harness sources gating data on simulated timestamps need
// exactly this.
func (c *FakeClock) AfterTime(at time.Time) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !at.After(c.now) {
		ch <- c.now
		return ch
	}
	c.seq++
	c.waiters = append(c.waiters, &fakeWaiter{deadline: at, ch: ch, seq: c.seq})
	c.cond.Broadcast()
	return ch
}

// Advance moves the fake time forward by d and fires every timer whose
// deadline is reached, in deadline order. Each fired channel receives
// its own deadline as the delivery time, matching time.After's contract
// that the value is the fire time, not the post-advance now.
func (c *FakeClock) Advance(d time.Duration) {
	if d < 0 {
		panic("serve: FakeClock.Advance with negative duration")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	var due, rest []*fakeWaiter
	for _, w := range c.waiters {
		if !w.deadline.After(c.now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if !due[i].deadline.Equal(due[j].deadline) {
			return due[i].deadline.Before(due[j].deadline)
		}
		return due[i].seq < due[j].seq
	})
	for _, w := range due {
		w.ch <- w.deadline // cap-1 buffer: the send never blocks
	}
	c.waiters = rest
}

// Waiters returns the number of pending timers.
func (c *FakeClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// BlockUntil returns once at least n timers are pending — the
// synchronisation point for tests that must know every goroutine under
// test has parked on the clock before advancing it.
func (c *FakeClock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.waiters) < n {
		c.cond.Wait()
	}
}
