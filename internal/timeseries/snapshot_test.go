package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

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
