package serve

import (
	"testing"
	"time"
)

var clkT0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

func TestFakeClockAdvanceFiresInDeadlineOrder(t *testing.T) {
	c := NewFakeClock(clkT0)
	late := c.After(2 * time.Hour)
	early := c.After(time.Hour)
	tie := c.After(time.Hour) // same deadline as early, registered after

	if got := c.Waiters(); got != 3 {
		t.Fatalf("Waiters() = %d, want 3", got)
	}
	c.Advance(30 * time.Minute)
	select {
	case v := <-early:
		t.Fatalf("early fired at %v before its deadline", v)
	default:
	}

	c.Advance(2 * time.Hour) // now = t0+2h30m: all three are due
	// Delivery values are the deadlines, not the post-advance now.
	if v := <-early; !v.Equal(clkT0.Add(time.Hour)) {
		t.Fatalf("early delivered %v, want %v", v, clkT0.Add(time.Hour))
	}
	if v := <-tie; !v.Equal(clkT0.Add(time.Hour)) {
		t.Fatalf("tie delivered %v, want %v", v, clkT0.Add(time.Hour))
	}
	if v := <-late; !v.Equal(clkT0.Add(2 * time.Hour)) {
		t.Fatalf("late delivered %v, want %v", v, clkT0.Add(2*time.Hour))
	}
	if got := c.Waiters(); got != 0 {
		t.Fatalf("Waiters() = %d after firing all, want 0", got)
	}
}

func TestFakeClockNonPositiveAfterFiresImmediately(t *testing.T) {
	c := NewFakeClock(clkT0)
	for _, d := range []time.Duration{0, -time.Second} {
		select {
		case v := <-c.After(d):
			if !v.Equal(clkT0) {
				t.Fatalf("After(%v) delivered %v, want %v", d, v, clkT0)
			}
		default:
			t.Fatalf("After(%v) did not fire immediately", d)
		}
	}
}

func TestFakeClockBlockUntilSeesParkedWaiters(t *testing.T) {
	c := NewFakeClock(clkT0)
	fired := make(chan time.Time, 1)
	go func() {
		fired <- <-c.After(time.Minute)
	}()
	c.BlockUntil(1) // returns only once the goroutine has registered
	c.Advance(time.Minute)
	if v := <-fired; !v.Equal(clkT0.Add(time.Minute)) {
		t.Fatalf("delivered %v, want %v", v, clkT0.Add(time.Minute))
	}
}

func TestFakeClockAbandonedTimerNeverBlocksAdvance(t *testing.T) {
	c := NewFakeClock(clkT0)
	_ = c.After(time.Second) // never read
	done := make(chan struct{})
	go func() {
		c.Advance(time.Minute)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Advance blocked on an abandoned timer channel")
	}
}

func TestFakeClockNegativeAdvancePanics(t *testing.T) {
	c := NewFakeClock(clkT0)
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	c.Advance(-time.Nanosecond)
}
