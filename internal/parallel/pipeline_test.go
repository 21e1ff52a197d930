package parallel

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"
)

// seqBatch is the test batch: fill numbers its inputs consecutively and
// Process squares them, taking longer on some batches than on others
// so that workers finish out of fill order.
type seqBatch struct {
	in, out []int
}

func (b *seqBatch) Process() {
	if len(b.in) > 0 && b.in[0]%3 == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	b.out = b.out[:0]
	for _, v := range b.in {
		b.out = append(b.out, v*v)
	}
}

// pipelineWorkers counts the goroutines running a Pipeline worker.
func pipelineWorkers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("parallel.pipelineWorker["))
}

// waitNoWorkers fails t unless every Pipeline worker has exited. A
// worker that has signalled its last batch may still be returning, so
// the check polls briefly.
func waitNoWorkers(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); pipelineWorkers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still run after Pipeline returned", pipelineWorkers())
		}
	}
}

// seqOutcome is what one seqRun delivered and returned, how far fill
// ever ran ahead of delivery, in batches, and the most workers seen
// running at a delivery.
type seqOutcome struct {
	got         []int
	err         error
	ahead, peak int
}

// seqRun runs a Pipeline over the integers 0..n-1 in batches of size
// values, with deliver failing on the batch that holds stopAt (never
// when stopAt < 0).
func seqRun(t *testing.T, workers, n, size, stopAt int) (o seqOutcome) {
	t.Helper()
	errStop := errors.New("stop")
	next, filled, delivered, made := 0, 0, 0, 0
	o.err = Pipeline(workers,
		func() *seqBatch { made++; return &seqBatch{} },
		func(b *seqBatch) bool {
			filled++
			o.ahead = max(o.ahead, filled-delivered)
			b.in = b.in[:0]
			for len(b.in) < size && next < n {
				b.in = append(b.in, next)
				next++
			}
			return next < n
		},
		func(b *seqBatch) error {
			delivered++
			w := pipelineWorkers()
			if w > min(workers, filled) {
				t.Errorf("%d workers run for %d batches filled, want at most %d", w, filled, workers)
			}
			o.peak = max(o.peak, w)
			o.got = append(o.got, b.out...)
			for _, v := range b.in {
				if v == stopAt {
					return errStop
				}
			}
			return nil
		})
	waitNoWorkers(t)
	if made > workers+1 {
		t.Errorf("made %d batches, want at most %d", made, workers+1)
	}
	if o.err != nil && !errors.Is(o.err, errStop) {
		t.Fatalf("Pipeline returned %v", o.err)
	}
	return o
}

// TestPipelineOrder: however the workers interleave, deliver sees the
// batches in fill order, fill never runs more than workers+1 batches
// ahead of delivery, workers start only as batches need them, and no
// worker outlives the call.
func TestPipelineOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 7, 500} {
			o := seqRun(t, workers, n, 7, -1)
			if o.err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, o.err)
			}
			if len(o.got) != n {
				t.Fatalf("workers=%d n=%d: delivered %d values", workers, n, len(o.got))
			}
			for i, v := range o.got {
				if v != i*i {
					t.Fatalf("workers=%d n=%d: value %d is %d, want %d", workers, n, i, v, i*i)
				}
			}
			if o.ahead > workers+1 {
				t.Fatalf("workers=%d n=%d: fill ran %d batches ahead of delivery", workers, n, o.ahead)
			}
			if o.peak == 0 {
				t.Fatalf("workers=%d n=%d: no worker seen running", workers, n)
			}
		}
	}
}

// TestPipelineEarlyStop: deliver's error ends the call at once, after
// the batches before the failing one and none after it, with every
// worker exited.
func TestPipelineEarlyStop(t *testing.T) {
	const n, size = 500, 7
	for _, workers := range []int{1, 2, 4} {
		for _, stopAt := range []int{0, 3 * size, n / 2, n - 1} {
			o := seqRun(t, workers, n, size, stopAt)
			if o.err == nil {
				t.Fatalf("workers=%d stopAt=%d: no error", workers, stopAt)
			}
			if want := min((stopAt/size+1)*size, n); len(o.got) != want {
				t.Fatalf("workers=%d stopAt=%d: delivered %d values, want %d", workers, stopAt, len(o.got), want)
			}
		}
	}
}
