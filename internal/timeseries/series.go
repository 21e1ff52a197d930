// Package timeseries provides the regular time-series machinery of the
// last-mile pipeline: fixed-width time bins, minimum subtraction
// (turning RTT medians into queuing-delay estimates), and median
// aggregation across probe populations. Per-bin medians are kept by
// internal/engine. Gaps are represented as
// NaN so that downstream statistics can skip them explicitly.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/stats"
)

// Series is a regularly sampled time series. Values[i] covers the
// half-open interval [Start + i*Step, Start + (i+1)*Step). NaN marks a gap.
type Series struct {
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// NewSeries returns a Series of n gap (NaN) values.
func NewSeries(start time.Time, step time.Duration, n int) (*Series, error) {
	if step <= 0 {
		return nil, errors.New("timeseries: step must be positive")
	}
	if n < 0 {
		return nil, errors.New("timeseries: negative length")
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.NaN()
	}
	return &Series{Start: start, Step: step, Values: vals}, nil
}

// Len returns the number of bins.
func (s *Series) Len() int { return len(s.Values) }

// End returns the exclusive end time of the series.
func (s *Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Values)) * s.Step)
}

// TimeAt returns the start time of bin i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexOf returns the bin index covering t, or false when t is outside the
// series.
func (s *Series) IndexOf(t time.Time) (int, bool) {
	if t.Before(s.Start) {
		return 0, false
	}
	i := int(t.Sub(s.Start) / s.Step)
	if i >= len(s.Values) {
		return 0, false
	}
	return i, true
}

// SampleRatePerHour returns the number of samples per hour, the unit the
// classifier's frequency axis is expressed in (cycles per hour).
func (s *Series) SampleRatePerHour() float64 {
	return float64(time.Hour) / float64(s.Step)
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	vals := make([]float64, len(s.Values))
	copy(vals, s.Values)
	return &Series{Start: s.Start, Step: s.Step, Values: vals}
}

// GapCount returns the number of NaN bins.
func (s *Series) GapCount() int {
	n := 0
	for _, v := range s.Values {
		if math.IsNaN(v) {
			n++
		}
	}
	return n
}

// Window returns the sub-series covering [from, to). Both bounds are
// clamped to the series extent; an empty result is an error.
func (s *Series) Window(from, to time.Time) (*Series, error) {
	if from.Before(s.Start) {
		from = s.Start
	}
	if to.After(s.End()) {
		to = s.End()
	}
	if !from.Before(to) {
		return nil, errors.New("timeseries: empty window")
	}
	lo := int(from.Sub(s.Start) / s.Step)
	hi := int(to.Sub(s.Start) / s.Step)
	if to.Sub(s.Start)%s.Step != 0 {
		hi++
	}
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	vals := make([]float64, hi-lo)
	copy(vals, s.Values[lo:hi])
	return &Series{Start: s.TimeAt(lo), Step: s.Step, Values: vals}, nil
}

// aligned reports whether two series share start, step, and length.
func aligned(a, b *Series) bool {
	return a.Start.Equal(b.Start) && a.Step == b.Step && len(a.Values) == len(b.Values)
}

// SubtractMin returns a copy of s with the minimum non-NaN value
// subtracted from every bin, which converts an RTT-median series into the
// paper's queuing-delay estimate (lowest point pinned at zero). The
// minimum is computed per call, i.e. per measurement period, exactly as
// §2.1 prescribes. An all-gap series is an error.
func SubtractMin(s *Series) (*Series, error) {
	out := s.Clone()
	if err := SubtractMinInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubtractMinInPlace is SubtractMin on s itself, for a caller that owns
// the series. An all-gap series is an error and is left unchanged.
func SubtractMinInPlace(s *Series) error {
	min := stats.MinIgnoringNaN(s.Values)
	if math.IsNaN(min) {
		return errors.New("timeseries: series has no finite value")
	}
	for i, v := range s.Values {
		if !math.IsNaN(v) {
			s.Values[i] = v - min
		}
	}
	return nil
}

// AggregateMedian combines a population of aligned series into one series
// whose bins hold the median across the population, skipping gaps. Bins in
// which every series has a gap stay NaN. This is the paper's population
// aggregation: "large fluctuations reveal times when the majority of the
// probes experience high latency."
func AggregateMedian(series []*Series) (*Series, error) {
	return aggregate(series, medianIgnoringNaNInPlace)
}

// medianIgnoringNaNInPlace is stats.MedianIgnoringNaN without its copy:
// it packs the non-NaN values to the front of xs, in order, and selects
// the median among them there, so the result is the same bits.
func medianIgnoringNaNInPlace(xs []float64) float64 {
	n := 0
	for _, v := range xs {
		if !math.IsNaN(v) {
			xs[n] = v
			n++
		}
	}
	m, err := stats.MedianInPlace(xs[:n])
	if err != nil {
		return math.NaN()
	}
	return m
}

// AggregateMean is the non-robust variant of AggregateMedian, used by the
// ablation benchmarks to show why the paper chose the median.
func AggregateMean(series []*Series) (*Series, error) {
	return aggregate(series, stats.MeanIgnoringNaN)
}

// aggregate fills each bin of the result with combine over the bin's
// column across the population. The column is refilled for every bin,
// so combine may reorder it.
func aggregate(series []*Series, combine func([]float64) float64) (*Series, error) {
	if len(series) == 0 {
		return nil, errors.New("timeseries: no series to aggregate")
	}
	first := series[0]
	for i, s := range series[1:] {
		if !aligned(first, s) {
			return nil, fmt.Errorf("timeseries: series %d is not aligned with series 0", i+1)
		}
	}
	out, err := NewSeries(first.Start, first.Step, first.Len())
	if err != nil {
		return nil, err
	}
	column := make([]float64, len(series))
	for bin := 0; bin < first.Len(); bin++ {
		for j, s := range series {
			column[j] = s.Values[bin]
		}
		out.Values[bin] = combine(column)
	}
	return out, nil
}

// DayHourProfile folds the series onto a weekly template: the returned
// slice has one entry per bin offset within a week starting on Monday
// 00:00 UTC, each holding the mean of all values landing on that offset.
// The paper's Fig. 1 displays exactly this "one week" view of 15-day
// periods. The series step must divide 24h.
func DayHourProfile(s *Series) ([]float64, error) {
	if time.Duration(24)*time.Hour%s.Step != 0 {
		return nil, errors.New("timeseries: step does not divide a day")
	}
	perWeek := int(7 * 24 * time.Hour / s.Step)
	sums := make([]float64, perWeek)
	counts := make([]int, perWeek)
	for i, v := range s.Values {
		if math.IsNaN(v) {
			continue
		}
		t := s.TimeAt(i).UTC()
		// Weekday offset with Monday = 0.
		wd := (int(t.Weekday()) + 6) % 7
		dayOffset := time.Duration(t.Hour())*time.Hour +
			time.Duration(t.Minute())*time.Minute +
			time.Duration(t.Second())*time.Second
		slot := wd*int(24*time.Hour/s.Step) + int(dayOffset/s.Step)
		sums[slot] += v
		counts[slot]++
	}
	out := make([]float64, perWeek)
	for i := range out {
		if counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out, nil
}
