package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-boundary distribution: observation i lands in the
// first bucket whose upper boundary is >= the value, with an implicit
// +Inf overflow bucket past the last boundary. All methods are lock-free
// and safe for concurrent use; share by pointer.
//
// Quantiles are exact in the nearest-rank sense over the boundary set:
// Quantile(q) returns the upper boundary of the bucket holding the
// ceil(q*N)-th smallest observation, so when observations themselves are
// boundary values the result equals the sort-based nearest-rank quantile
// exactly (the property tests pin this).
//
// NaN observations are dropped: a NaN latency is a measurement bug, and
// letting it poison Sum would corrupt every derived mean. Sum is exact
// for integer-valued observations (each atomic add is exact), which is
// what the byte-identical snapshot determinism tests rely on; for
// general floats the final bits of Sum depend on observation order, as
// with any float accumulation.
type Histogram struct {
	// bounds are the strictly increasing bucket upper boundaries.
	bounds []float64
	// counts has len(bounds)+1 entries; the last is the overflow bucket.
	counts []atomic.Int64
	count  atomic.Int64
	// sumBits holds math.Float64bits of the running sum, updated by CAS.
	sumBits atomic.Uint64
}

// NewHistogram creates a histogram with the given strictly increasing,
// finite bucket upper boundaries. It panics on an empty, non-monotonic,
// or non-finite boundary set — boundaries are fixed at construction
// time, so a bad set is a programming error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket boundary")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("telemetry: histogram boundaries must be finite")
		}
		if i > 0 && own[i-1] >= b {
			panic("telemetry: histogram boundaries must be strictly increasing")
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Int64, len(own)+1)}
}

// Observe records one value. NaN values are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First boundary >= v; everything past the last boundary overflows.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns a copy of the bucket upper boundaries.
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile returns the nearest-rank q-quantile (q in [0, 1]) resolved to
// a bucket upper boundary: the boundary of the bucket containing the
// ceil(q*N)-th smallest observation. It returns NaN on an empty
// histogram or NaN q, and +Inf when the rank lands in the overflow
// bucket. q outside [0, 1] is clamped.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// sameBounds compares boundary sets bitwise (no float ==, so the check
// is total even though valid boundaries are never NaN).
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Timer measures one duration into a histogram, in seconds. Obtain one
// from Histogram.Start; the zero value is not usable.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start begins timing one operation against h.
func (h *Histogram) Start() Timer { return Timer{h: h, start: time.Now()} }

// Stop records the elapsed time since Start into the histogram, in
// seconds, and returns it.
func (t Timer) Stop() time.Duration {
	d := time.Since(t.start)
	t.h.Observe(d.Seconds())
	return d
}

// DefLatencyBuckets are the default latency boundaries, in seconds: a
// 1-2.5-5 ladder from 1µs to 10s, matching the spread between a shard-map
// hit (~µs) and a full-window classification sweep (~s).
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}
