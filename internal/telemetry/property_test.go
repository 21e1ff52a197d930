package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// boundaryDraw is a quick.Generator producing observation sets whose
// values are drawn from a histogram's own bucket boundaries — the regime
// where nearest-rank bucket quantiles are exact against a sorted slice.
type boundaryDraw struct {
	Bounds []float64
	Values []float64
}

func (boundaryDraw) Generate(r *rand.Rand, size int) reflect.Value {
	nb := 1 + r.Intn(16)
	bounds := make([]float64, nb)
	v := float64(1 + r.Intn(3))
	for i := range bounds {
		bounds[i] = v
		v += float64(1 + r.Intn(5))
	}
	nv := 1 + r.Intn(size*8+1)
	values := make([]float64, nv)
	for i := range values {
		values[i] = bounds[r.Intn(nb)]
	}
	return reflect.ValueOf(boundaryDraw{Bounds: bounds, Values: values})
}

// exactQuantile is the reference: nearest-rank over a sorted copy.
func exactQuantile(values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// TestQuantilePropertyMatchesSort pins the tentpole's exactness claim:
// for observations drawn from the boundary set, histogram p50/p95/p99
// equal the sort-based nearest-rank quantiles bit for bit.
func TestQuantilePropertyMatchesSort(t *testing.T) {
	prop := func(d boundaryDraw) bool {
		h := NewHistogram(d.Bounds)
		for _, v := range d.Values {
			h.Observe(v)
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			want := exactQuantile(d.Values, q)
			got := h.Quantile(q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("q=%v: histogram=%v sort=%v (bounds=%v n=%d)", q, got, want, d.Bounds, len(d.Values))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
