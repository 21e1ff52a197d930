package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= eps
}

func TestMedianOdd(t *testing.T) {
	m, err := Median([]float64{5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
}

func TestMedianEven(t *testing.T) {
	m, err := Median([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestMedianSingle(t *testing.T) {
	m, err := Median([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if m != 42 {
		t.Fatalf("median = %v, want 42", m)
	}
}

func TestMedianEmpty(t *testing.T) {
	if _, err := Median(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{9, 2, 7, 4}
	want := []float64{9, 2, 7, 4}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("Median mutated input at %d: %v", i, xs)
		}
	}
}

func TestMedianMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		got, err := Median(xs)
		if err != nil {
			t.Fatal(err)
		}
		ref := sortMedian(xs)
		if !almostEqual(got, ref, 1e-12) {
			t.Fatalf("trial %d: median=%v want %v (n=%d)", trial, got, ref, n)
		}
	}
}

func sortMedian(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

func TestMedianWithDuplicates(t *testing.T) {
	m, err := Median([]float64{2, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestMedianPropertyBounds(t *testing.T) {
	// The median always lies between min and max.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m, err := Median(xs)
		if err != nil {
			return false
		}
		return m >= slices.Min(xs) && m <= slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedianIgnoringNaN(t *testing.T) {
	m := MedianIgnoringNaN([]float64{math.NaN(), 1, math.NaN(), 3})
	if m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if !math.IsNaN(MedianIgnoringNaN([]float64{math.NaN()})) {
		t.Fatal("all-NaN input should yield NaN")
	}
	if !math.IsNaN(MedianIgnoringNaN(nil)) {
		t.Fatal("empty input should yield NaN")
	}
}

func TestMean(t *testing.T) {
	mean, err := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if mean != 5 {
		t.Fatalf("mean = %v, want 5", mean)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestMinMaxIgnoringNaN(t *testing.T) {
	xs := []float64{math.NaN(), 2, math.NaN(), -7, 4}
	if v := MinIgnoringNaN(xs); v != -7 {
		t.Fatalf("min = %v, want -7", v)
	}
	if v := MaxIgnoringNaN(xs); v != 4 {
		t.Fatalf("max = %v, want 4", v)
	}
	if !math.IsNaN(MinIgnoringNaN([]float64{math.NaN()})) {
		t.Fatal("want NaN for all-NaN")
	}
}

// TestQuantile pins the type-7 interpolation Summarize's percentiles use.
func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := quantileSorted(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("quantileSorted(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantileSorted([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantileSorted of one value = %v, want 7", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{math.NaN(), 1, 2, 3, 4, 5}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize([]float64{math.NaN()}); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestRanksNoTies(t *testing.T) {
	r := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range r {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range r {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestRanksAllTied(t *testing.T) {
	r := Ranks([]float64{5, 5, 5})
	for _, v := range r {
		if v != 2 {
			t.Fatalf("ranks = %v, want all 2", r)
		}
	}
}

func TestRanksSumInvariant(t *testing.T) {
	// Ranks always sum to n(n+1)/2 regardless of ties.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		n := len(xs)
		sum := 0.0
		for _, v := range Ranks(xs) {
			sum += v
		}
		return almostEqual(sum, float64(n*(n+1))/2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Fatalf("err = %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err != ErrTooFew {
		t.Fatalf("err = %v", err)
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("want error for zero-variance sample")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman sees through any monotone transform: rho(x, exp(x)) = 1.
	xs := []float64{0.3, 1.5, 0.7, 2.2, 1.1}
	ys := make([]float64, len(xs))
	for i, v := range xs {
		ys[i] = math.Exp(v)
	}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, 1, 1e-12) {
		t.Fatalf("rho = %v, want 1", rho)
	}
}

func TestSpearmanAntitone(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{100, 50, 25, 12.5}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, -1, 1e-12) {
		t.Fatalf("rho = %v, want -1", rho)
	}
}

func TestSpearmanDropsNaNPairs(t *testing.T) {
	xs := []float64{1, math.NaN(), 3, 4}
	ys := []float64{10, 20, math.NaN(), 40}
	// Only pairs (1,10) and (4,40) survive.
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, 1, 1e-12) {
		t.Fatalf("rho = %v, want 1", rho)
	}
}

func TestSpearmanTooFew(t *testing.T) {
	xs := []float64{1, math.NaN()}
	ys := []float64{2, 3}
	if _, err := Spearman(xs, ys); err != ErrTooFew {
		t.Fatalf("err = %v, want ErrTooFew", err)
	}
}

func TestSpearmanRangeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		rho, err := Spearman(xs, ys)
		if err != nil {
			// Degenerate rank variance is possible but vanishingly
			// unlikely with continuous draws; treat as failure.
			t.Fatal(err)
		}
		if rho < -1-1e-9 || rho > 1+1e-9 {
			t.Fatalf("rho out of range: %v", rho)
		}
	}
}

func BenchmarkMedian1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Median(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpearman1000(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Spearman(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRanksNaN pins the NaN contract of Ranks: NaN inputs receive rank
// NaN, do not occupy a rank, and leave the remaining values ranked
// exactly as if the NaNs were absent.
func TestRanksNaN(t *testing.T) {
	got := Ranks([]float64{3, math.NaN(), 1, 2, math.NaN()})
	want := []float64{3, math.NaN(), 1, 2, math.NaN()}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 0) {
			t.Errorf("rank[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRanksAllNaN covers the degenerate all-NaN input.
func TestRanksAllNaN(t *testing.T) {
	for _, r := range Ranks([]float64{math.NaN(), math.NaN()}) {
		if !math.IsNaN(r) {
			t.Errorf("rank = %v, want NaN", r)
		}
	}
}
