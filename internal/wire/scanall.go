package wire

import (
	"io"
	"runtime"
	"slices"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// scanAllBatch is the number of payload bytes at which ScanAll closes a
// batch: about 300 frames of a campaign's multi-hop results, the batch
// size of traceroute.ScanAll, which also measured best here.
const scanAllBatch = 128 << 10

// ScanAll decodes a StreamResults wire archive from r, as a Scanner
// reads it, and calls fn on every result and its origin AS in archive
// order. It returns what the Scanner loop
//
//	for sc.Scan() {
//		if err := fn(sc.Result(), sc.ASN()); err != nil {
//			return err
//		}
//	}
//	return sc.Err()
//
// returns: fn sees every result before the first error and none after
// it, and the error is the loop's, with the same text, the same
// *CorruptError frame and offset, and the same sentinel. The *Result
// handed to fn is valid only until fn returns.
//
// ScanAll runs the Scanner loop over the first 128 KiB of the stream, so
// a stream that ends there costs what the loop costs. From there the
// caller's goroutine reads frames exactly as Scanner does and hands
// batches of about 128 KiB of payloads to GOMAXPROCS decoding goroutines
// through parallel.Pipeline; fn runs on the caller's goroutine. A batch
// holds at most as many frames as 128 KiB of the shortest valid results,
// and keeps its results' storage for reuse. At most GOMAXPROCS+1 batches
// are in flight, the one being filled included, so memory stays bounded
// whatever the input and however far the decoders run ahead, and every
// decoder has exited when ScanAll returns. At GOMAXPROCS=1 ScanAll is
// the Scanner loop throughout and starts no goroutine.
//
// Streaming readers that must hand out each record as it arrives keep
// the Scanner: ScanAll delivers a record only once its batch fills.
func ScanAll(r io.Reader, fn func(*traceroute.Result, bgp.ASN) error) error {
	return scanAll(r, fn, runtime.GOMAXPROCS(0), scanAllBatch)
}

// scanAll is ScanAll with the decoder count and the batch size as
// parameters, so tests can run the parallel path at any width and with
// one frame per batch. The batch size is also where the Scanner loop
// hands over to the batches.
func scanAll(r io.Reader, fn func(*traceroute.Result, bgp.ASN) error, workers, batchBytes int) error {
	s := NewScanner(r)
	for s.Scan() {
		if err := fn(&s.res, s.asn); err != nil {
			return err
		}
		if workers > 1 && s.f.off >= int64(batchBytes) {
			return s.scanBatches(fn, workers, batchBytes)
		}
	}
	return s.f.err
}

// scanBatches decodes the rest of s's stream through parallel.Pipeline
// in batches of batchBytes.
func (s *Scanner) scanBatches(fn func(*traceroute.Result, bgp.ASN) error, workers, batchBytes int) error {
	err := parallel.Pipeline(workers,
		func() *batch { return new(batch) },
		func(b *batch) bool { return s.f.fill(b, batchBytes) },
		func(b *batch) error { return b.deliver(fn) })
	if err != nil {
		return err
	}
	return s.f.err
}

// minResultPayload is the length of the shortest payload
// DecodeResultInto accepts: eight one-byte varints and three untagged
// addresses. fill closes a batch at batchBytes/minResultPayload frames
// as well as at batchBytes of payload, so frames too short to decode,
// such as the zeroes of a preallocated file, cannot pile up in one
// batch: a batch holds no more frames than batchBytes of valid results.
const minResultPayload = 11

// batch is a run of consecutive frames and the results one decoder made
// of them. Its storage is reused from batch to batch.
type batch struct {
	buf   []byte  // the payloads, back to back
	ends  []int   // ends[i] is the end offset of frame i's payload in buf
	offs  []int64 // offs[i] is the stream offset of frame i's length prefix
	first int     // the 0-based stream index of frame 0
	// res and asns hold the decoded results and their origin ASes, one
	// per frame up to the first that failed. Each result keeps its hop
	// and reply storage for the frame at its index in the next batch.
	res  []traceroute.Result
	asns []bgp.ASN
	err  error // the error that stopped the decode after res, if any
}

// fill reads frames into b until it holds batchBytes of payload or
// batchBytes/minResultPayload frames, as Scan reads them. It reports
// false once the stream is exhausted, with the read or framing error,
// if any, in f.err.
func (f *frameReader) fill(b *batch, batchBytes int) bool {
	b.buf, b.ends, b.offs = b.buf[:0], b.ends[:0], b.offs[:0]
	maxFrames := max(batchBytes/minResultPayload, 1)
	for len(b.buf) < batchBytes && len(b.ends) < maxFrames {
		payload, err := f.next(StreamResults)
		if err != nil {
			if err != io.EOF {
				f.err = err
			}
			return false
		}
		if len(b.ends) == 0 {
			b.first = f.frame
		}
		b.buf = append(b.buf, payload...)
		b.ends = append(b.ends, len(b.buf))
		b.offs = append(b.offs, f.frameOff)
	}
	return true
}

// Process decodes b's frames into b.res and b.asns, stopping at the
// first frame that fails, with the error Scan would return for it.
func (b *batch) Process() {
	n := len(b.ends)
	// Take res over its whole capacity before growing it, so the results
	// of earlier batches keep the storage DecodeResultInto reuses.
	b.res = b.res[:cap(b.res)]
	if n > len(b.res) {
		b.res = append(b.res, make([]traceroute.Result, n-len(b.res))...)
	}
	b.res, b.asns, b.err = b.res[:n], slices.Grow(b.asns[:0], n)[:n], nil
	start := 0
	for i, end := range b.ends {
		asn, err := DecodeResultInto(&b.res[i], b.buf[start:end])
		if err != nil {
			b.res = b.res[:i]
			b.err = corrupt(b.first+i, b.offs[i], err)
			return
		}
		b.asns[i] = asn
		start = end
	}
}

// deliver calls fn on b's results in order and returns fn's first
// error or, after the last result, the decode error.
func (b *batch) deliver(fn func(*traceroute.Result, bgp.ASN) error) error {
	for i := range b.res {
		if err := fn(&b.res[i], b.asns[i]); err != nil {
			return err
		}
	}
	return b.err
}
