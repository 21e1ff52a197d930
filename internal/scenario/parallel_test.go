package scenario

import (
	"math"
	"runtime"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/core"
)

// surveyAtProcs runs w.RunSurvey(p) at GOMAXPROCS procs and restores
// the previous setting.
func surveyAtProcs(t *testing.T, w *World, p Period, procs int) *core.Survey {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := w.RunSurvey(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunSurveyParallelMatchesSerial is the package-level determinism
// contract: the same world surveyed at GOMAXPROCS 1 (the serial run) and
// at GOMAXPROCS 8 must produce bit-identical per-AS results. Run under
// -race it also stresses the parallel survey path end to end.
func TestRunSurveyParallelMatchesSerial(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.ASes = 100
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := LongitudinalPeriods()[5]
	a, b := surveyAtProcs(t, w, p, 1), surveyAtProcs(t, w, p, 8)
	if a.Len() != b.Len() {
		t.Fatalf("AS count differs: serial %d, parallel %d", a.Len(), b.Len())
	}
	for asn, ra := range a.Results {
		rb := b.Results[asn]
		if rb == nil {
			t.Fatalf("AS%v present serially, missing in parallel run", asn)
		}
		if ra.Probes != rb.Probes || ra.Class != rb.Class {
			t.Fatalf("AS%v verdict differs: serial {probes %d, %v}, parallel {probes %d, %v}",
				asn, ra.Probes, ra.Class, rb.Probes, rb.Class)
		}
		// Signals carry NaN gap bins; compare bit patterns, not values.
		if len(ra.Signal.Values) != len(rb.Signal.Values) {
			t.Fatalf("AS%v signal length differs", asn)
		}
		for i := range ra.Signal.Values {
			if math.Float64bits(ra.Signal.Values[i]) != math.Float64bits(rb.Signal.Values[i]) {
				t.Fatalf("AS%v signal bin %d differs: %v vs %v",
					asn, i, ra.Signal.Values[i], rb.Signal.Values[i])
			}
		}
	}
}
