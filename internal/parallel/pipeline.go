package parallel

import "sync"

// Batch is the unit of work of a Pipeline. Process runs on a worker
// goroutine, after the fill that loaded the batch and before its
// delivery.
type Batch interface {
	Process()
}

// Pipeline reads input in batches on the calling goroutine, processes
// each batch on one of up to workers goroutines, and delivers the
// batches on the calling goroutine in the order they were filled. It is
// the ordered counterpart of Map for input that arrives as a stream: a
// whole-archive decode fills batches of records while workers decode the
// batches ahead of it.
//
// fill loads the next run of input into b, which newBatch made or which
// an earlier delivery has finished with, and reports whether more input
// follows. The batch it loads last may be empty. Every filled batch is
// processed and then passed to deliver. Pipeline returns deliver's first
// error at once, or nil after the last batch.
//
// At most workers+1 batches exist, the one being filled included. Once
// every one is in flight, the oldest is delivered before another is
// filled, so the workers run at most that far ahead of delivery and
// memory does not grow with the input. Workers start as batches are
// handed off, up to workers of them, and every worker has exited when
// Pipeline returns, on every path. Callers that want the serial path at
// GOMAXPROCS=1 take it themselves: Pipeline always starts a worker.
func Pipeline[B Batch](workers int, newBatch func() B, fill func(B) bool, deliver func(B) error) error {
	workers = max(workers, 1)
	// ring holds the batches in flight, oldest at head, in fill order.
	// work has room for all of them, so a hand-off never blocks.
	ring := make([]slot[B], workers+1)
	work := make(chan *slot[B], len(ring))
	var wg sync.WaitGroup
	defer func() {
		close(work)
		wg.Wait()
	}()
	head, queued, started := 0, 0, 0
	for more := true; more; {
		if queued == len(ring) {
			// Every batch is in flight: deliver the oldest to reuse it.
			if err := ring[head].deliver(deliver); err != nil {
				return err
			}
			head = (head + 1) % len(ring)
			queued--
		}
		s := &ring[(head+queued)%len(ring)]
		if s.done == nil {
			s.b, s.done = newBatch(), make(chan struct{}, 1)
		}
		more = fill(s.b)
		if started < workers {
			started++
			wg.Add(1)
			go pipelineWorker(work, &wg)
		}
		work <- s
		queued++
	}
	for ; queued > 0; queued-- {
		if err := ring[head].deliver(deliver); err != nil {
			return err
		}
		head = (head + 1) % len(ring)
	}
	return nil
}

// slot is one ring entry of a Pipeline: a batch and the channel its
// worker signals once per hand-off, when Process has returned.
type slot[B Batch] struct {
	b    B
	done chan struct{}
}

// deliver waits until s's batch is processed and passes it to deliver.
func (s *slot[B]) deliver(deliver func(B) error) error {
	<-s.done
	return deliver(s.b)
}

// pipelineWorker processes every batch sent on work, until work is
// closed.
func pipelineWorker[B Batch](work <-chan *slot[B], wg *sync.WaitGroup) {
	defer wg.Done()
	for s := range work {
		s.b.Process()
		s.done <- struct{}{}
	}
}
