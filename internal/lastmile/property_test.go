package lastmile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: PairwiseFromRTTs always yields len(priv)*len(pub) samples and
// each sample equals some pub minus some priv.
func TestPairwiseFromRTTsProperty(t *testing.T) {
	f := func(privRaw, pubRaw []float64) bool {
		priv := clampFinite(privRaw, 3)
		pub := clampFinite(pubRaw, 3)
		samples := PairwiseFromRTTs(priv, pub)
		if len(priv) == 0 || len(pub) == 0 {
			return samples == nil
		}
		if len(samples) != len(priv)*len(pub) {
			return false
		}
		k := 0
		for _, p := range pub {
			for _, q := range priv {
				if samples[k] != p-q {
					return false
				}
				k++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: shifting every RTT by a constant shifts every pairwise sample
// by zero — the estimator is invariant to absolute RTT level, which is
// what makes it a *last-mile* estimator rather than an end-to-end one.
func TestPairwiseShiftInvariance(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		priv := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		pub := []float64{1 + rng.Float64(), 1 + rng.Float64(), 1 + rng.Float64()}
		base := PairwiseFromRTTs(priv, pub)
		sp := make([]float64, 3)
		su := make([]float64, 3)
		for i := range priv {
			sp[i] = priv[i] + shift
			su[i] = pub[i] + shift
		}
		shifted := PairwiseFromRTTs(sp, su)
		for i := range base {
			if math.Abs(base[i]-shifted[i]) > 1e-6*math.Max(1, math.Abs(shift)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// clampFinite keeps up to n finite values.
func clampFinite(xs []float64, n int) []float64 {
	var out []float64
	for _, v := range xs {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
			if len(out) == n {
				break
			}
		}
	}
	return out
}
