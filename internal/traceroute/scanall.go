package traceroute

import (
	"fmt"
	"io"
	"runtime"
	"slices"

	"github.com/last-mile-congestion/lastmile/internal/parallel"
)

// scanAllBatch is the number of line bytes at which ScanAll closes a
// batch: about 75 records of a campaign's multi-hop JSON, enough to
// make one channel hand-off per batch negligible beside its decode.
const scanAllBatch = 128 << 10

// ScanAll decodes newline-delimited Atlas JSON from r, as a Scanner
// reads it, and calls fn on every result in input order. It returns
// what the Scanner loop
//
//	for sc.Scan() {
//		if err := fn(sc.Result()); err != nil {
//			return err
//		}
//	}
//	return sc.Err()
//
// returns: fn sees every result before the first error and none after
// it, and the error is the loop's, with the same text and wrapped types.
// The *Result handed to fn is valid only until fn returns.
//
// The caller's goroutine splits the input into lines exactly as Scanner
// does and hands batches of about 128 KiB of lines to GOMAXPROCS
// decoding goroutines through parallel.Pipeline; fn runs on the
// caller's goroutine. A batch carries its own parser and keeps its
// results' storage for reuse. At most GOMAXPROCS+1 batches are in
// flight, the one being filled included, so memory stays bounded however
// far the decoders run ahead, and every decoder has exited when ScanAll
// returns. At GOMAXPROCS=1 ScanAll is the Scanner loop and starts no
// goroutine.
//
// Streaming readers that must hand out each record as it arrives keep
// the Scanner: ScanAll delivers a record only once its batch fills.
func ScanAll(r io.Reader, fn func(*Result) error) error {
	return scanAll(r, fn, runtime.GOMAXPROCS(0), scanAllBatch)
}

// scanAll is ScanAll with the decoder count and the batch size as
// parameters, so tests can run the parallel path at any width and with
// one line per batch.
func scanAll(r io.Reader, fn func(*Result) error, workers, batchBytes int) error {
	s := NewScanner(r)
	if workers <= 1 || s.err != nil {
		for s.Scan() {
			if err := fn(&s.res); err != nil {
				return err
			}
		}
		return s.err
	}

	err := parallel.Pipeline(workers,
		func() *batch { return newBatch(batchBytes) },
		func(b *batch) bool { return s.fill(b, batchBytes) },
		func(b *batch) error { return b.deliver(fn) })
	if err != nil {
		return err
	}
	return s.err
}

// batch is a run of consecutive non-blank input lines and the results
// one decoder made of them. Its storage is reused from batch to batch.
type batch struct {
	buf   []byte // the lines, back to back, without their terminators
	ends  []int  // ends[i] is the end offset of line i in buf
	lines []int  // lines[i] is line i's 1-based input line number
	// res holds the decoded results, one per line up to the first that
	// failed. Their hops and replies live in arena, which grows to the
	// largest batch and is then reused, so allocations do not grow with
	// the input.
	res   []Result
	arena resultArena
	err   error // the error that stopped the decode after res, if any
	// p decodes into res and arena. The batch rather than a decoder owns
	// it, so what a call allocates does not depend on which decoder
	// takes which batch.
	p atlasParser
}

// newBatch returns a batch sized for batchBytes of campaign-shaped
// JSON, so its storage does not grow in steps: a closing line may
// overshoot batchBytes, an answered reply takes about 48 bytes of JSON
// and a hop about 160. Larger batches still grow.
func newBatch(batchBytes int) *batch {
	size := batchBytes + batchBytes/4
	b := &batch{
		buf: make([]byte, 0, size),
		arena: resultArena{
			hops:    make([]HopResult, 0, size/160),
			replies: make([]Reply, 0, size/48),
		},
	}
	b.p.arena = &b.arena
	return b
}

// fill reads lines into b until it holds batchBytes of them, skipping
// blank lines and counting every line as Scan does. It reports false
// once the input is exhausted, with the read error, if any, in s.err.
func (s *Scanner) fill(b *batch, batchBytes int) bool {
	b.buf, b.ends, b.lines = b.buf[:0], b.ends[:0], b.lines[:0]
	for len(b.buf) < batchBytes {
		if !s.sc.Scan() {
			s.err = s.sc.Err()
			return false
		}
		s.line++
		line := s.sc.Bytes()
		if blank(line) {
			continue
		}
		b.buf = append(b.buf, line...)
		b.ends = append(b.ends, len(b.buf))
		b.lines = append(b.lines, s.line)
	}
	return true
}

// Process decodes b's lines into b.res, stopping at the first line that
// fails, with the error Scan would return for it.
func (b *batch) Process() {
	b.res, b.err = slices.Grow(b.res[:0], len(b.ends))[:len(b.ends)], nil
	b.arena.hops, b.arena.replies = b.arena.hops[:0], b.arena.replies[:0]
	start := 0
	for i, end := range b.ends {
		if err := b.p.parse(&b.res[i], b.buf[start:end]); err != nil {
			b.res = b.res[:i]
			b.err = fmt.Errorf("line %d: %w", b.lines[i], err)
			return
		}
		start = end
	}
}

// deliver calls fn on b's results in order and returns fn's first
// error or, after the last result, the decode error.
func (b *batch) deliver(fn func(*Result) error) error {
	for i := range b.res {
		if err := fn(&b.res[i]); err != nil {
			return err
		}
	}
	return b.err
}
