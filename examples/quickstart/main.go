// Quickstart: the whole pipeline on handcrafted traceroutes.
//
// We synthesise two weeks of traceroutes for three probes in one AS — a
// last mile that queues for six hours every evening — then run the
// paper's §2 methodology end to end: last-mile estimation, per-probe
// median binning, population aggregation, Welch analysis, and
// classification.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
)

func main() {
	start := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 15)
	rng := rand.New(rand.NewSource(42))

	// 1. Feed each probe's traceroutes into a survey feed, which
	// estimates their last-mile samples and bins them per probe.
	const asn = 64500
	feed := lastmile.NewSurveyFeed(lastmile.SurveyOptions{})
	for probe := 1; probe <= 3; probe++ {
		// Atlas built-ins yield ~24 traceroutes per 30 minutes; 6 are
		// plenty for the median.
		for ts := start; ts.Before(end); ts = ts.Add(5 * time.Minute) {
			if err := feed.Add(asn, trace(probe, ts, rng)); err != nil {
				log.Fatal(err)
			}
		}
	}

	// 2. Aggregate the population into one queuing-delay signal and
	// classify it.
	survey, skipped, err := feed.Survey("quickstart")
	if err != nil {
		log.Fatal(err)
	}
	if len(skipped) > 0 {
		log.Fatalf("AS%d not classified: %v", asn, skipped[0].Reason)
	}
	verdict := survey.Results[asn]
	fmt.Printf("aggregated %d probes into %d half-hour bins\n", verdict.Probes, verdict.Signal.Len())
	fmt.Printf("classification:     %v\n", verdict.Class)
	fmt.Printf("daily amplitude:    %.2f ms (thresholds: Low >0.5, Mild >1, Severe >3)\n", verdict.DailyAmplitude)
	fmt.Printf("prominent component: %.4f cycles/hour (daily = %.4f) daily=%v\n",
		verdict.Peak.Freq, lastmile.DailyFreq, verdict.IsDaily)

	if verdict.Class == lastmile.None {
		fmt.Println("no persistent last-mile congestion detected")
		os.Exit(0)
	}
	fmt.Println("persistent last-mile congestion detected")
}

// trace fabricates one traceroute: a private home gateway hop and a
// public ISP edge hop whose extra delay spikes every evening.
func trace(probeID int, ts time.Time, rng *rand.Rand) *lastmile.Result {
	gateway := netip.MustParseAddr("192.168.1.1")
	edge := netip.MustParseAddr("203.0.113.1")

	// Base last-mile RTT ~2 ms; 19:00–01:00 adds up to 5 ms of queueing.
	queue := 0.0
	if h := ts.Hour(); h >= 19 || h < 1 {
		queue = max(5*math.Sin(math.Pi*float64((h+5)%24-23+24)/6), 0) // smooth bump
	}
	r := &lastmile.Result{
		ProbeID:   probeID,
		MsmID:     5004,
		Timestamp: ts,
		AF:        4,
		SrcAddr:   netip.MustParseAddr("192.168.1.10"),
		FromAddr:  netip.MustParseAddr("203.0.113.77"),
		DstAddr:   netip.MustParseAddr("198.41.0.4"),
		Proto:     "ICMP",
	}
	h1 := lastmile.HopResult{Hop: 1}
	h2 := lastmile.HopResult{Hop: 2}
	for i := 0; i < 3; i++ {
		lan := 0.4 + rng.Float64()*0.1
		h1.Replies = append(h1.Replies, lastmile.Reply{From: gateway, RTT: lan, TTL: 64})
		h2.Replies = append(h2.Replies, lastmile.Reply{
			From: edge, RTT: lan + 2 + queue + rng.Float64()*0.3, TTL: 254,
		})
	}
	r.Hops = []lastmile.HopResult{h1, h2}
	return r
}
