package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/stats"
)

// mkFiniteSeries builds a series from arbitrary raw floats, mapping
// non-finite inputs to gaps and folding magnitudes into a physical delay
// range (|v| < 10^6 ms) — RTTs live there, and unconstrained doubles
// overflow any subtraction-based invariant.
func mkFiniteSeries(raw []float64) *Series {
	s, _ := NewSeries(time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC), 30*time.Minute, len(raw))
	for i, v := range raw {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			s.Values[i] = math.Mod(v, 1e6)
		}
	}
	return s
}

// Property: SubtractMin preserves gaps, pins the minimum at exactly zero,
// and preserves all pairwise differences between finite bins.
func TestSubtractMinProperties(t *testing.T) {
	f := func(raw []float64) bool {
		s := mkFiniteSeries(raw)
		qd, err := SubtractMin(s)
		if err != nil {
			// Only legal for all-gap series.
			return s.GapCount() == s.Len()
		}
		min := math.Inf(1)
		for i, v := range qd.Values {
			orig := s.Values[i]
			if math.IsNaN(orig) != math.IsNaN(v) {
				return false
			}
			if math.IsNaN(v) {
				continue
			}
			if v < 0 {
				return false
			}
			if v < min {
				min = v
			}
		}
		if min != 0 {
			return false
		}
		// SubtractMinInPlace on a copy gives the same bits.
		in := s.Clone()
		if SubtractMinInPlace(in) != nil {
			return false
		}
		for i, v := range in.Values {
			if math.Float64bits(v) != math.Float64bits(qd.Values[i]) {
				return false
			}
		}
		// Pairwise differences preserved.
		for i := range s.Values {
			for j := i + 1; j < s.Len(); j++ {
				a, b := s.Values[i], s.Values[j]
				if math.IsNaN(a) || math.IsNaN(b) {
					continue
				}
				if math.Abs((a-b)-(qd.Values[i]-qd.Values[j])) > 1e-9*(1+math.Abs(a-b)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the median aggregate of a population lies between the
// per-bin min and max across the population, and aggregating identical
// series is the identity.
func TestAggregateMedianProperties(t *testing.T) {
	f := func(raw []float64, copies uint8) bool {
		if len(raw) == 0 {
			return true
		}
		n := int(copies%5) + 1
		s := mkFiniteSeries(raw)
		pop := make([]*Series, n)
		for i := range pop {
			pop[i] = s.Clone()
		}
		agg, err := AggregateMedian(pop)
		if err != nil {
			return false
		}
		for i := range agg.Values {
			a, o := agg.Values[i], s.Values[i]
			if math.IsNaN(o) != math.IsNaN(a) {
				return false
			}
			if !math.IsNaN(a) && a != o {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: each bin of the median aggregate is stats.MedianIgnoringNaN
// of the bin's column, bit for bit, and the population is left as it
// was: the aggregate selects in its own column.
func TestAggregateMedianMatchesMedianIgnoringNaN(t *testing.T) {
	f := func(seed int64, size, length uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pop := make([]*Series, int(size%9)+1)
		for i := range pop {
			raw := make([]float64, int(length%12)+1)
			for j := range raw {
				switch rng.Intn(4) {
				case 0:
					raw[j] = math.NaN() // a gap
				case 1:
					raw[j] = float64(rng.Intn(4)) // ties
				default:
					raw[j] = rng.NormFloat64() * 10
				}
			}
			pop[i] = mkFiniteSeries(raw)
		}
		before := make([]*Series, len(pop))
		for i, s := range pop {
			before[i] = s.Clone()
		}
		agg, err := AggregateMedian(pop)
		if err != nil {
			return false
		}
		column := make([]float64, len(pop))
		for bin := range agg.Values {
			for i, s := range before {
				column[i] = s.Values[bin]
			}
			if math.Float64bits(agg.Values[bin]) != math.Float64bits(stats.MedianIgnoringNaN(column)) {
				return false
			}
			for i, s := range pop {
				if math.Float64bits(s.Values[bin]) != math.Float64bits(before[i].Values[bin]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: DayHourProfile of a strictly day-periodic series reproduces
// the daily template in every weekday slot that received data.
func TestDayHourProfilePeriodicProperty(t *testing.T) {
	f := func(seed uint8, days uint8) bool {
		nDays := int(days%10) + 7
		start := time.Date(2019, 9, 2, 0, 0, 0, 0, time.UTC) // Monday
		s, _ := NewSeries(start, 30*time.Minute, nDays*48)
		for i := range s.Values {
			slot := i % 48
			s.Values[i] = float64((slot*int(seed+1))%48) / 7
		}
		prof, err := DayHourProfile(s)
		if err != nil {
			return false
		}
		for i, v := range prof {
			if math.IsNaN(v) {
				continue
			}
			slot := i % 48
			want := float64((slot*int(seed+1))%48) / 7
			if math.Abs(v-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Window never yields values that differ from the parent
// series at the same timestamps.
func TestWindowConsistencyProperty(t *testing.T) {
	f := func(raw []float64, loFrac, hiFrac uint8) bool {
		if len(raw) < 2 {
			return true
		}
		s := mkFiniteSeries(raw)
		lo := int(loFrac) % s.Len()
		hi := lo + 1 + int(hiFrac)%(s.Len()-lo)
		w, err := s.Window(s.TimeAt(lo), s.TimeAt(0).Add(time.Duration(hi)*s.Step))
		if err != nil {
			return false
		}
		for i := 0; i < w.Len(); i++ {
			ts := w.TimeAt(i)
			j, ok := s.IndexOf(ts)
			if !ok {
				return false
			}
			a, b := w.Values[i], s.Values[j]
			if math.IsNaN(a) != math.IsNaN(b) {
				return false
			}
			if !math.IsNaN(a) && a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
