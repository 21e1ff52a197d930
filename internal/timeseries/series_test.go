package timeseries

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

func mustSeries(t *testing.T, start time.Time, step time.Duration, vals []float64) *Series {
	t.Helper()
	s, err := NewSeries(start, step, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	copy(s.Values, vals)
	return s
}

func TestNewSeries(t *testing.T) {
	s, err := NewSeries(t0, 30*time.Minute, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	for i, v := range s.Values {
		if !math.IsNaN(v) {
			t.Fatalf("value %d = %v, want NaN", i, v)
		}
	}
	if s.GapCount() != 4 {
		t.Fatalf("gaps = %d", s.GapCount())
	}
}

func TestNewSeriesErrors(t *testing.T) {
	if _, err := NewSeries(t0, 0, 4); err == nil {
		t.Fatal("want error for zero step")
	}
	if _, err := NewSeries(t0, time.Minute, -1); err == nil {
		t.Fatal("want error for negative length")
	}
}

func TestTimeAtAndIndexOf(t *testing.T) {
	s, _ := NewSeries(t0, 30*time.Minute, 48)
	if !s.TimeAt(2).Equal(t0.Add(time.Hour)) {
		t.Fatalf("TimeAt(2) = %v", s.TimeAt(2))
	}
	if !s.End().Equal(t0.Add(24 * time.Hour)) {
		t.Fatalf("End = %v", s.End())
	}
	i, ok := s.IndexOf(t0.Add(45 * time.Minute))
	if !ok || i != 1 {
		t.Fatalf("IndexOf = %d, %v", i, ok)
	}
	if _, ok := s.IndexOf(t0.Add(-time.Minute)); ok {
		t.Fatal("before start should not resolve")
	}
	if _, ok := s.IndexOf(t0.Add(24 * time.Hour)); ok {
		t.Fatal("end is exclusive")
	}
}

func TestSampleRatePerHour(t *testing.T) {
	s, _ := NewSeries(t0, 30*time.Minute, 1)
	if s.SampleRatePerHour() != 2 {
		t.Fatalf("rate = %v", s.SampleRatePerHour())
	}
	s15, _ := NewSeries(t0, 15*time.Minute, 1)
	if s15.SampleRatePerHour() != 4 {
		t.Fatalf("rate = %v", s15.SampleRatePerHour())
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := mustSeries(t, t0, time.Hour, []float64{1, 2})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestWindow(t *testing.T) {
	s := mustSeries(t, t0, time.Hour, []float64{0, 1, 2, 3, 4, 5})
	w, err := s.Window(t0.Add(2*time.Hour), t0.Add(4*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 || w.Values[0] != 2 || w.Values[1] != 3 {
		t.Fatalf("window = %+v", w.Values)
	}
	if !w.Start.Equal(t0.Add(2 * time.Hour)) {
		t.Fatalf("window start = %v", w.Start)
	}
}

func TestWindowClamps(t *testing.T) {
	s := mustSeries(t, t0, time.Hour, []float64{0, 1, 2})
	w, err := s.Window(t0.Add(-time.Hour), t0.Add(100*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("len = %d", w.Len())
	}
}

func TestWindowEmpty(t *testing.T) {
	s := mustSeries(t, t0, time.Hour, []float64{0, 1})
	if _, err := s.Window(t0.Add(5*time.Hour), t0.Add(6*time.Hour)); err == nil {
		t.Fatal("want error for empty window")
	}
}

func TestSubtractMin(t *testing.T) {
	s := mustSeries(t, t0, time.Hour, []float64{5, math.NaN(), 3, 7})
	q, err := SubtractMin(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, math.NaN(), 0, 4}
	for i := range want {
		if math.IsNaN(want[i]) != math.IsNaN(q.Values[i]) {
			t.Fatalf("bin %d: %v", i, q.Values)
		}
		if !math.IsNaN(want[i]) && q.Values[i] != want[i] {
			t.Fatalf("bin %d = %v, want %v", i, q.Values[i], want[i])
		}
	}
	// Original untouched.
	if s.Values[0] != 5 {
		t.Fatal("SubtractMin mutated input")
	}
}

func TestSubtractMinAllGaps(t *testing.T) {
	s, _ := NewSeries(t0, time.Hour, 3)
	if _, err := SubtractMin(s); err == nil {
		t.Fatal("want error for all-gap series")
	}
}

func TestSubtractMinHasZero(t *testing.T) {
	// After subtraction, the minimum of the series is exactly zero.
	s := mustSeries(t, t0, time.Hour, []float64{0.8, 1.1, 0.9, 2.0})
	q, err := SubtractMin(s)
	if err != nil {
		t.Fatal(err)
	}
	min := math.Inf(1)
	for _, v := range q.Values {
		if v < min {
			min = v
		}
	}
	if min != 0 {
		t.Fatalf("min = %v, want 0", min)
	}
}

func TestAggregateMedian(t *testing.T) {
	a := mustSeries(t, t0, time.Hour, []float64{1, 5, math.NaN()})
	b := mustSeries(t, t0, time.Hour, []float64{3, math.NaN(), math.NaN()})
	c := mustSeries(t, t0, time.Hour, []float64{2, 7, math.NaN()})
	agg, err := AggregateMedian([]*Series{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Values[0] != 2 {
		t.Fatalf("bin 0 = %v, want 2", agg.Values[0])
	}
	if agg.Values[1] != 6 {
		t.Fatalf("bin 1 = %v, want 6 (median of 5,7)", agg.Values[1])
	}
	if !math.IsNaN(agg.Values[2]) {
		t.Fatalf("bin 2 = %v, want NaN", agg.Values[2])
	}
}

func TestAggregateMedianRobustToOutlierProbe(t *testing.T) {
	// One pathological probe must not move the aggregate: this is the
	// reason the paper uses the median.
	population := make([]*Series, 7)
	for i := range population {
		population[i] = mustSeries(t, t0, time.Hour, []float64{1, 1, 1})
	}
	population[0] = mustSeries(t, t0, time.Hour, []float64{500, 500, 500})
	agg, err := AggregateMedian(population)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range agg.Values {
		if v != 1 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
	mean, err := AggregateMean(population)
	if err != nil {
		t.Fatal(err)
	}
	if mean.Values[0] <= 10 {
		t.Fatalf("mean aggregate should be polluted, got %v", mean.Values[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := AggregateMedian(nil); err == nil {
		t.Fatal("want error for empty population")
	}
	a := mustSeries(t, t0, time.Hour, []float64{1})
	b := mustSeries(t, t0.Add(time.Hour), time.Hour, []float64{1})
	if _, err := AggregateMedian([]*Series{a, b}); err == nil {
		t.Fatal("want error for misaligned series")
	}
	c := mustSeries(t, t0, 30*time.Minute, []float64{1})
	if _, err := AggregateMedian([]*Series{a, c}); err == nil {
		t.Fatal("want error for different steps")
	}
}

func TestDayHourProfile(t *testing.T) {
	// Two weeks of hourly data with value = hour of day; the profile must
	// recover hour-of-day exactly for every weekday slot.
	start := time.Date(2019, 9, 2, 0, 0, 0, 0, time.UTC) // a Monday
	n := 14 * 24
	s, _ := NewSeries(start, time.Hour, n)
	for i := range s.Values {
		s.Values[i] = float64(s.TimeAt(i).Hour())
	}
	prof, err := DayHourProfile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 7*24 {
		t.Fatalf("profile length = %d", len(prof))
	}
	for slot, v := range prof {
		want := float64(slot % 24)
		if v != want {
			t.Fatalf("slot %d = %v, want %v", slot, v, want)
		}
	}
}

func TestDayHourProfileMondayFirst(t *testing.T) {
	// A single sample on a Wednesday 06:00 must land in slot
	// 2*24 + 6 for an hourly profile (Monday = day 0).
	start := time.Date(2019, 9, 4, 6, 0, 0, 0, time.UTC) // Wednesday
	s, _ := NewSeries(start, time.Hour, 1)
	s.Values[0] = 42
	prof, err := DayHourProfile(s)
	if err != nil {
		t.Fatal(err)
	}
	slot := 2*24 + 6
	if prof[slot] != 42 {
		t.Fatalf("slot %d = %v, want 42", slot, prof[slot])
	}
	for i, v := range prof {
		if i != slot && !math.IsNaN(v) {
			t.Fatalf("slot %d = %v, want NaN", i, v)
		}
	}
}

func TestDayHourProfileBadStep(t *testing.T) {
	s, _ := NewSeries(t0, 7*time.Hour, 10)
	if _, err := DayHourProfile(s); err == nil {
		t.Fatal("want error for step not dividing a day")
	}
}
