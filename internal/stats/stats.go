// Package stats provides the order statistics, rank statistics, and
// correlation measures used throughout the last-mile congestion pipeline.
//
// The paper's methodology is deliberately built on robust statistics:
// medians per probe, medians across probe populations, and Spearman's rank
// correlation between delay and throughput. This package implements those
// primitives from scratch on float64 slices, with NaN-aware variants for
// series that contain gaps.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a value from an
// empty (or all-NaN) input.
var ErrEmpty = errors.New("stats: empty input")

// Median returns the median of xs. It does not modify xs.
// It returns an error if xs is empty.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	return medianInPlace(tmp), nil
}

// MedianInPlace returns the median of xs, reordering xs as a side effect.
// It returns an error if xs is empty. Use this in hot paths to avoid the
// copy made by Median.
func MedianInPlace(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return medianInPlace(xs), nil
}

// medianInPlace computes the median by partial selection. xs must be
// non-empty.
func medianInPlace(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return selectKth(xs, n/2)
	}
	hi := selectKth(xs, n/2)
	// After selecting the n/2-th order statistic, all elements in
	// xs[:n/2] are <= hi; the lower middle is their maximum.
	lo := xs[0]
	for _, v := range xs[1 : n/2] {
		lo = max(lo, v)
	}
	return Midpoint(lo, hi)
}

// Midpoint returns (a+b)/2 without intermediate overflow for any finite
// a <= b: when the operands share a sign a-b cannot overflow, and when the
// signs differ a+b cannot. It is exported because every even-count median
// in the pipeline — sort-based, selection-based, or incremental — must
// combine the two middle order statistics with the same arithmetic to
// stay bit-for-bit comparable.
func Midpoint(a, b float64) float64 {
	if (a >= 0) == (b >= 0) {
		return a + (b-a)/2
	}
	return (a + b) / 2
}

// selectKth returns the k-th smallest element (0-indexed) of xs using
// Hoare's quickselect with median-of-three pivoting. xs is reordered.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := partition(xs, lo, hi)
		switch {
		case k == p:
			return xs[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return xs[k]
}

func partition(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three: order xs[lo], xs[mid], xs[hi].
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi-1] = xs[hi-1], xs[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi-1] = xs[hi-1], xs[i]
	return i
}

// MedianIgnoringNaN returns the median of the non-NaN values in xs.
// It returns NaN (and no error) when xs contains no usable value, because
// gap bins are an expected, non-exceptional case in delay series.
func MedianIgnoringNaN(xs []float64) float64 {
	tmp := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			tmp = append(tmp, v)
		}
	}
	if len(tmp) == 0 {
		return math.NaN()
	}
	return medianInPlace(tmp)
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs)), nil
}

// MeanIgnoringNaN returns the mean of the non-NaN values of xs, or NaN if
// there are none.
func MeanIgnoringNaN(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range xs {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MinIgnoringNaN returns the smallest non-NaN value of xs, or NaN if there
// is none.
func MinIgnoringNaN(xs []float64) float64 {
	m := math.NaN()
	for _, v := range xs {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(m) || v < m {
			m = v
		}
	}
	return m
}

// MaxIgnoringNaN returns the largest non-NaN value of xs, or NaN if there
// is none.
func MaxIgnoringNaN(xs []float64) float64 {
	m := math.NaN()
	for _, v := range xs {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(m) || v > m {
			m = v
		}
	}
	return m
}

// quantileSorted computes the q-quantile (0 <= q <= 1) of an
// ascending-sorted, non-empty slice by linear interpolation between
// order statistics (type-7 estimator, the numpy and R default).
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds descriptive statistics for one sample.
type Summary struct {
	N      int
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P95    float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary of the non-NaN values of xs. It returns an
// error if no usable value exists.
func Summarize(xs []float64) (Summary, error) {
	clean := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return Summary{}, ErrEmpty
	}
	sort.Float64s(clean)
	mean, _ := Mean(clean)
	return Summary{
		N:      len(clean),
		Min:    clean[0],
		P25:    quantileSorted(clean, 0.25),
		Median: quantileSorted(clean, 0.5),
		P75:    quantileSorted(clean, 0.75),
		P90:    quantileSorted(clean, 0.90),
		P95:    quantileSorted(clean, 0.95),
		Max:    clean[len(clean)-1],
		Mean:   mean,
	}, nil
}
