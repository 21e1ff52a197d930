// Delay-study guard (§6): protecting latency-based inference from
// persistent last-mile congestion.
//
// The paper's discussion warns that geolocation and other latency studies
// "should avoid making inferences during peak hours and with probes
// affected by persistent last-mile congestion". This example shows the
// full guard workflow on two synthetic ASes — one congested, one clean:
//
//  1. build each probe's queuing-delay series,
//  2. classify the aggregate and bootstrap the verdict's stability (§5's
//     probe-variability caveat, quantified),
//  3. derive the peak-hour mask and apply it to a toy geolocation-style
//     minimum-RTT estimate, showing the bias the mask removes.
//
// Run it with:
//
//	go run ./examples/guard
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
)

const binsPerDay = 48

func main() {
	start := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	days := 15

	for _, tc := range []struct {
		name    string
		peakMs  float64
		comment string
	}{
		{"congested-AS", 5.0, "legacy shared infrastructure"},
		{"clean-AS", 0.0, "own fiber plant"},
	} {
		fmt.Printf("== %s (%s) ==\n", tc.name, tc.comment)

		// 1. Per-probe queuing-delay series (8 probes).
		var perProbe []*lastmile.Series
		rng := rand.New(rand.NewSource(42))
		for p := 0; p < 8; p++ {
			s, err := lastmile.NewSeries(start, 30*time.Minute, days*binsPerDay)
			if err != nil {
				log.Fatal(err)
			}
			for i := range s.Values {
				hour := (i / 2) % 24
				v := math.Abs(rng.NormFloat64()) * 0.1
				if hour >= 19 && hour < 23 {
					v += tc.peakMs * (0.8 + 0.4*rng.Float64())
				}
				s.Values[i] = v
			}
			perProbe = append(perProbe, s)
		}

		// 2. Classify + bootstrap.
		signal, err := lastmile.AggregateMedian(perProbe)
		if err != nil {
			log.Fatal(err)
		}
		verdict, err := lastmile.Classify(signal, lastmile.DefaultClassifierOptions())
		if err != nil {
			log.Fatal(err)
		}
		boot, err := lastmile.BootstrapAmplitude(perProbe, lastmile.BootstrapOptions{Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("verdict: %s\n", boot)

		// 3. Guard mask, applied to a latency-inference toy: estimate the
		// "distance" to this AS via minimum observed RTT. Congestion
		// inflates RTT samples taken at peak hours; masking them removes
		// the bias.
		mask, err := lastmile.PeakHourMask(signal, verdict, lastmile.DefaultGuardOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mask excludes %.0f%% of bins\n", 100*lastmile.MaskedFraction(mask))

		// Latency campaigns average samples taken at arbitrary hours; a
		// congested AS biases that average upward. (The per-bin median
		// used by the *detector* resists this — which is exactly why
		// the paper had to look at the daily pattern, not the level.)
		const baseRTT = 42.0 // ms, the "true" propagation distance
		var naiveSum, guardSum float64
		var naiveN, guardN int
		for i, v := range signal.Values {
			if math.IsNaN(v) {
				continue
			}
			sample := baseRTT + v
			naiveSum += sample
			naiveN++
			if !mask[i] {
				guardSum += sample
				guardN++
			}
		}
		fmt.Printf("geolocation-style mean RTT estimate: naive %.2f ms, guarded %.2f ms (truth %.1f)\n\n",
			naiveSum/float64(naiveN), guardSum/float64(guardN), baseRTT)
	}
}
