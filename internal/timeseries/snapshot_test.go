package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// binFrom replays vs through a fresh bin, one group per value triple.
func binFrom(vs []float64) *IncrementalBin {
	b := &IncrementalBin{}
	for _, v := range vs {
		b.Add(v)
	}
	return b
}

// TestIncrementalBinMergeIsUnionReplay pins the exactness claim of
// Merge: the merged bin's every observable — median, sample count,
// group count — is bit-identical to one bin having replayed the union
// of both inputs, because the two-heap structure maintains an exact
// order statistic and order statistics are permutation-invariant.
func TestIncrementalBinMergeIsUnionReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	property := func(na, nb uint8) bool {
		xs := make([]float64, int(na)%64)
		ys := make([]float64, int(nb)%64)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		for i := range ys {
			ys[i] = rng.NormFloat64() * 100
		}
		a, b := binFrom(xs), binFrom(ys)
		a.groups, b.groups = 2, 5
		a.Merge(b)
		union := binFrom(append(append([]float64(nil), xs...), ys...))
		union.groups = 7
		ma, oka := a.Median()
		mu, oku := union.Median()
		return oka == oku &&
			math.Float64bits(ma) == math.Float64bits(mu) &&
			a.Len() == union.Len() && a.Groups() == union.Groups()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalBinMergeLeavesOtherUnchanged(t *testing.T) {
	a, b := binFrom([]float64{1, 2, 3}), binFrom([]float64{4, 5})
	b.groups = 1
	a.Merge(b)
	if b.Len() != 2 || b.Groups() != 1 {
		t.Fatalf("other mutated by merge: len=%d groups=%d", b.Len(), b.Groups())
	}
	if m, _ := b.Median(); m != 4.5 {
		t.Fatalf("other median = %v, want 4.5", m)
	}
}

// TestIncrementalBinSnapshotRestoreContinue pins the restore contract:
// a bin rebuilt from snapshotted heap state behaves exactly like one
// that was never serialized, including under further Adds.
func TestIncrementalBinSnapshotRestoreContinue(t *testing.T) {
	orig := &IncrementalBin{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 101; i++ {
		orig.Add(rng.NormFloat64() * 50)
	}
	orig.groups = 13

	lo, hi, groups := orig.Snapshot()
	restored, err := RestoreBin(append([]float64(nil), lo...), append([]float64(nil), hi...), groups)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 57; i++ {
		v := rng.NormFloat64() * 50
		orig.Add(v)
		restored.Add(v)
	}
	mo, _ := orig.Median()
	mr, _ := restored.Median()
	if math.Float64bits(mo) != math.Float64bits(mr) {
		t.Fatalf("median diverged after restore: %v vs %v", mo, mr)
	}
	if orig.Len() != restored.Len() || orig.Groups() != restored.Groups() {
		t.Fatalf("state diverged: len %d/%d groups %d/%d", orig.Len(), restored.Len(), orig.Groups(), restored.Groups())
	}
}

func TestValidateHeapStateRejectsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi []float64
		want   error
	}{
		{"nan", []float64{math.NaN()}, nil, ErrNotFinite},
		{"inf", []float64{1}, []float64{math.Inf(1)}, ErrNotFinite},
		{"unbalanced", []float64{3, 2, 1}, nil, ErrHeapInvariant},
		{"lower-not-max-heap", []float64{1, 5}, []float64{7}, ErrHeapInvariant},
		{"upper-not-min-heap", []float64{1}, []float64{9, 2}, ErrHeapInvariant},
		{"overlap", []float64{5}, []float64{3}, ErrHeapInvariant},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateHeapState(tc.lo, tc.hi)
			if !errors.Is(err, tc.want) {
				t.Fatalf("ValidateHeapState = %v, want %v", err, tc.want)
			}
			if _, rerr := RestoreBin(tc.lo, tc.hi, 0); rerr == nil {
				t.Fatal("RestoreBin accepted corrupt heap state")
			}
		})
	}
	if err := ValidateHeapState([]float64{2, 1}, []float64{3}); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if err := ValidateHeapState(nil, nil); err != nil {
		t.Fatalf("empty state rejected: %v", err)
	}
}

func TestRestoreBinRejectsNegativeGroups(t *testing.T) {
	if _, err := RestoreBin([]float64{1}, nil, -1); !errors.Is(err, ErrHeapInvariant) {
		t.Fatalf("err = %v, want ErrHeapInvariant", err)
	}
}
