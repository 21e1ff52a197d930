package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned by correlation functions when the two
// samples have different lengths.
var ErrLengthMismatch = errors.New("stats: samples have different lengths")

// ErrTooFew is returned when a correlation is requested on fewer than two
// usable observation pairs.
var ErrTooFew = errors.New("stats: need at least two observation pairs")

// Ranks returns the fractional (mid) ranks of xs, 1-based: the smallest
// value has rank 1 and ties receive the average of the ranks they span.
// This is the tie handling required by Spearman's rank correlation.
// NaN values receive rank NaN and do not occupy a rank; comparing a NaN
// inside the sort would otherwise place it at an arbitrary position.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	ranks := make([]float64, n)
	idx := make([]int, 0, n)
	for i, v := range xs {
		if math.IsNaN(v) {
			ranks[i] = math.NaN()
			continue
		}
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	m := len(idx)
	for i := 0; i < m; {
		j := i
		// The slice is ascending, so "not greater" means tied with i.
		for j+1 < m && xs[idx[j+1]] <= xs[idx[i]] {
			j++
		}
		// Positions i..j (0-based) are tied; average 1-based rank.
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples xs and ys.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrTooFew
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns Spearman's rank correlation coefficient rho of the
// paired samples xs and ys, with average-rank tie handling. Pairs in which
// either value is NaN are dropped first, which is how the paper joins the
// delay and throughput time series (bins missing from either side are
// ignored).
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	cx := make([]float64, 0, len(xs))
	cy := make([]float64, 0, len(ys))
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		cx = append(cx, xs[i])
		cy = append(cy, ys[i])
	}
	if len(cx) < 2 {
		return 0, ErrTooFew
	}
	return Pearson(Ranks(cx), Ranks(cy))
}
