package timeseries

import (
	"errors"
	"fmt"
	"math"

	"github.com/last-mile-congestion/lastmile/internal/stats"
)

// IncrementalBin accumulates the raw last-mile samples of one (probe,
// bin) cell and maintains their exact median incrementally: a max-heap
// of the lower half and a min-heap of the upper half (the classic
// two-heap order statistic), rebalanced on every insert so the median
// is O(1) to read and O(log n) to update.
//
// The median is bit-for-bit identical to stats.Median over the same
// multiset: order statistics are permutation-invariant, and the
// even-count case combines the two middle elements with the shared
// stats.Midpoint arithmetic. That identity is what lets the streaming
// monitor and the batch pipeline share one binning engine — a batch run
// is literally a replay of the incremental one.
//
// Samples must be finite: NaN fails every ordering comparison and would
// corrupt the heap invariant. The last-mile estimator only emits finite
// values (it drops NaN/Inf/non-positive RTTs before differencing).
type IncrementalBin struct {
	// lo is a max-heap of the lower half, hi a min-heap of the upper
	// half; len(lo) == len(hi) or len(lo) == len(hi)+1.
	lo, hi []float64
	// groups counts distinct measurement groups (traceroutes), the unit
	// of the paper's "fewer than 3 traceroutes" discard rule.
	groups int
}

// Add inserts one sample.
//
//lmvet:hotpath
func (b *IncrementalBin) Add(v float64) {
	if len(b.lo) == 0 || v <= b.lo[0] {
		b.lo = heapPush(b.lo, v, lessMax)
	} else {
		b.hi = heapPush(b.hi, v, lessMin)
	}
	// Rebalance so the halves differ by at most one, lower half larger.
	if len(b.lo) > len(b.hi)+1 {
		var top float64
		b.lo, top = heapPop(b.lo, lessMax)
		b.hi = heapPush(b.hi, top, lessMin)
	} else if len(b.hi) > len(b.lo) {
		var top float64
		b.hi, top = heapPop(b.hi, lessMin)
		b.lo = heapPush(b.lo, top, lessMax)
	}
}

// AddGroup inserts one measurement group (one traceroute's samples) and
// increments the group count.
//
//lmvet:hotpath
func (b *IncrementalBin) AddGroup(vs []float64) {
	for _, v := range vs {
		b.Add(v)
	}
	b.groups++
}

// Len returns the number of samples.
func (b *IncrementalBin) Len() int { return len(b.lo) + len(b.hi) }

// Groups returns the number of measurement groups recorded via AddGroup.
func (b *IncrementalBin) Groups() int { return b.groups }

// Median returns the current exact median; ok is false for an empty bin.
func (b *IncrementalBin) Median() (v float64, ok bool) {
	switch {
	case len(b.lo) == 0:
		return 0, false
	case len(b.lo) > len(b.hi):
		return b.lo[0], true
	default:
		return stats.Midpoint(b.lo[0], b.hi[0]), true
	}
}

// Snapshot exposes the bin's serializable state: the two heap backing
// slices (lower-half max-heap, upper-half min-heap) and the group
// count. The returned slices alias the bin's storage and are valid only
// until the next Add/AddGroup — snapshotting callers must encode
// or copy them before mutating the bin, the same valid-until-next-call
// contract the wire scanners use.
func (b *IncrementalBin) Snapshot() (lo, hi []float64, groups int) {
	return b.lo, b.hi, b.groups
}

// Heap-state validation errors returned by ValidateHeapState and
// RestoreBin. Both are wrapped with position context; match with
// errors.Is.
var (
	// ErrHeapInvariant marks heap-state slices that violate the two-heap
	// structure: unbalanced halves, a broken heap ordering, or an upper
	// half overlapping the lower one.
	ErrHeapInvariant = errors.New("timeseries: two-heap invariant violated")
	// ErrNotFinite marks a NaN or infinite sample, which the bin's
	// ordering comparisons cannot handle.
	ErrNotFinite = errors.New("timeseries: non-finite sample in heap state")
)

// ValidateHeapState checks that (lo, hi) is a well-formed two-heap
// median state: every sample finite, len(lo) == len(hi) or len(hi)+1,
// lo a max-heap, hi a min-heap, and max(lo) <= min(hi). It is the
// shared validation behind RestoreBin and the wire snapshot decoder, so
// a corrupted or adversarial snapshot can never smuggle a broken heap
// into a live engine.
func ValidateHeapState(lo, hi []float64) error {
	for _, h := range [2][]float64{lo, hi} {
		for i, v := range h {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: sample %d is %v", ErrNotFinite, i, v)
			}
		}
	}
	if len(lo) != len(hi) && len(lo) != len(hi)+1 {
		return fmt.Errorf("%w: halves of %d and %d samples", ErrHeapInvariant, len(lo), len(hi))
	}
	if err := validateHeap(lo, lessMax); err != nil {
		return fmt.Errorf("lower half: %w", err)
	}
	if err := validateHeap(hi, lessMin); err != nil {
		return fmt.Errorf("upper half: %w", err)
	}
	if len(lo) > 0 && len(hi) > 0 && lo[0] > hi[0] {
		return fmt.Errorf("%w: lower-half max %v exceeds upper-half min %v", ErrHeapInvariant, lo[0], hi[0])
	}
	return nil
}

// validateHeap checks the parent-dominates-children ordering.
func validateHeap(h []float64, less func(a, b float64) bool) error {
	for i := 1; i < len(h); i++ {
		if parent := (i - 1) / 2; less(h[i], h[parent]) {
			return fmt.Errorf("%w: element %d out of order", ErrHeapInvariant, i)
		}
	}
	return nil
}

// RestoreBin reconstructs an IncrementalBin from snapshotted heap
// state, re-validating the two-heap invariants first — restoring never
// trusts its input, so a bin rebuilt from a snapshot behaves exactly
// like one built by Add calls. It returns the bin by value so callers
// can embed it without a second allocation. The slices are retained by
// the bin; callers must not mutate them afterwards.
func RestoreBin(lo, hi []float64, groups int) (IncrementalBin, error) {
	if err := ValidateHeapState(lo, hi); err != nil {
		return IncrementalBin{}, err
	}
	if groups < 0 {
		return IncrementalBin{}, fmt.Errorf("%w: negative group count %d", ErrHeapInvariant, groups)
	}
	return IncrementalBin{lo: lo, hi: hi, groups: groups}, nil
}

// lessMax orders a max-heap (parent >= children), lessMin a min-heap.
func lessMax(a, b float64) bool { return a > b }
func lessMin(a, b float64) bool { return a < b }

// heapPush appends v and sifts it up under the given ordering.
func heapPush(h []float64, v float64, less func(a, b float64) bool) []float64 {
	h = append(h, v) //lmvet:ignore allocguard heap backing arrays grow by amortised doubling; steady-state inserts reuse capacity
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// heapPop removes and returns the root under the given ordering.
func heapPop(h []float64, less func(a, b float64) bool) ([]float64, float64) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && less(h[l], h[best]) {
			best = l
		}
		if r < len(h) && less(h[r], h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return h, top
}
