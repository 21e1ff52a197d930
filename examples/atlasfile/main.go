// Analyse an Atlas traceroute file: the downstream-user workflow.
//
// Feed any newline-delimited RIPE Atlas traceroute JSON — downloaded from
// the Atlas API, or generated with cmd/atlasgen — and get per-probe
// last-mile statistics plus an AS-level congestion verdict, using only
// the public API.
//
//	go run ./cmd/atlasgen -isp A -days 8 -out /tmp/ispa.jsonl
//	go run ./examples/atlasfile /tmp/ispa.jsonl
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	lastmile "github.com/last-mile-congestion/lastmile"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: %s <traceroutes.jsonl>\n", os.Args[0])
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// One pass: the feed estimates each traceroute's last-mile samples
	// and bins them per probe as it is read, keeping nothing of the
	// record, so the decoder's reused Result goes straight in. Both
	// encodings decode on every core, in archive order. JSON archives
	// carry no AS and land in AS0, while wire archives carry theirs.
	feed := lastmile.NewSurveyFeed(lastmile.SurveyOptions{})
	traceroutes := map[int]int{}
	noSegment := 0
	err = lastmile.ScanResults(f, func(r *lastmile.Result, asn lastmile.ASN) error {
		if _, ok := lastmile.FindSegment(r); !ok {
			noSegment++
		}
		traceroutes[r.ProbeID]++
		return feed.Add(asn, r)
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(traceroutes) == 0 {
		log.Fatal("no traceroutes found")
	}
	start, end := feed.Bounds()
	fmt.Printf("%d probes, %s .. %s, %d traceroutes without a last-mile segment\n\n",
		len(traceroutes), start.Format("2006-01-02 15:04"), end.Format("2006-01-02 15:04"), noSegment)
	probeIDs := make([]int, 0, len(traceroutes))
	for id := range traceroutes {
		probeIDs = append(probeIDs, id)
	}
	sort.Ints(probeIDs)
	for _, id := range probeIDs {
		fmt.Printf("probe %-7d traceroutes=%d\n", id, traceroutes[id])
	}

	// Aggregate and classify each AS's probe population.
	survey, skipped, err := feed.Survey(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for _, asn := range survey.ASNs() {
		v := survey.Results[asn]
		fmt.Printf("%v: %d probes -> class %v, daily amplitude %.2f ms, prominent %.4f c/h (daily=%v)\n",
			asn, v.Probes, v.Class, v.DailyAmplitude, v.Peak.Freq, v.IsDaily)
	}
	// A capture shorter than about 4 days cannot resolve the daily cycle.
	for _, s := range skipped {
		fmt.Printf("%v: not classified: %v\n", s.ASN, s.Reason)
	}
}
