// Command lmsurvey runs the paper's last-mile congestion pipeline over a
// traceroute dataset: per-probe last-mile estimation, 30-minute median
// binning, population aggregation, and Welch-based classification.
//
// It reads newline-delimited RIPE Atlas traceroute JSON or the binary
// wire format (cmd/atlasgen -format binary), detecting the encoding
// automatically — either genuine Atlas API output or synthetic data —
// groups probes by origin AS (probe metadata, then an optional RIB
// longest-prefix match, then the archive's own in-band attribution for
// wire input; a source with no answer falls through to the next), and
// streams each attributed traceroute into the survey feed, which
// reduces it to last-mile samples in the shared incremental delay
// engine and keeps nothing of the record itself. Memory is therefore
// engine state, at most 9 float64 per usable traceroute: it still grows
// with the archive, but by those samples, not by a copy of each record.
//
// Usage:
//
//	atlasgen -isp A -days 8 | lmsurvey
//	lmsurvey -in traces.jsonl -rib rib.txt -csv signals/
//	lmsurvey -in traces.jsonl -workers 8
//	lmsurvey -in archive.lmw
//
// The feed is serial, into one engine. -workers fans the per-AS
// classification out (default GOMAXPROCS); the report is byte-identical
// at any worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/report"
)

func main() {
	var (
		in       = flag.String("in", "-", "traceroute JSONL input (- for stdin)")
		ribIn    = flag.String("rib", "", "optional RIB file ('prefix origin' lines) for probe->AS mapping")
		probesIn = flag.String("probes", "", "optional probe metadata file (Atlas probe-archive JSON) for probe->AS mapping and anchor exclusion")
		csvDir   = flag.String("csv", "", "optional directory for per-AS signal CSV dumps")
		workers  = flag.Int("workers", 0, "worker goroutines for the per-AS classification (0 = GOMAXPROCS, 1 = serial; output is identical at any count)")
		metrics  = flag.String("metrics", "", "write an end-of-run telemetry snapshot (Prometheus text) to this file (- for stdout)")
	)
	flag.Parse()
	if err := run(os.Stdout, *in, *ribIn, *probesIn, *csvDir, *metrics, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "lmsurvey:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, in, ribIn, probesIn, csvDir, metricsOut string, workers int) error {
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer ioutil.CloseQuiet(f)
		r = f
	}
	var rib *lastmile.RIB
	if ribIn != "" {
		f, err := os.Open(ribIn)
		if err != nil {
			return err
		}
		parsed, err := lastmile.ParseRIB(f)
		ioutil.CloseQuiet(f)
		if err != nil {
			return err
		}
		rib = parsed
	}
	var registry *lastmile.ProbeRegistry
	if probesIn != "" {
		f, err := os.Open(probesIn)
		if err != nil {
			return err
		}
		parsed, err := lastmile.ParseProbeRegistry(f)
		ioutil.CloseQuiet(f)
		if err != nil {
			return err
		}
		registry = parsed
	}

	// One pass: resolve each probe's origin AS once (probe metadata,
	// when given, also drives the §2 anchor exclusion) and stream every
	// traceroute into the survey feed, which keeps nothing of it, so the
	// scanner's reused Result goes straight in.
	reg := lastmile.DefaultMetrics()
	feed := lastmile.NewSurveyFeed(lastmile.SurveyOptions{
		Workers: workers,
		Metrics: reg,
	})
	probeASN := map[int]lastmile.ASN{}
	asProbes := map[lastmile.ASN]map[int]bool{}
	sc := lastmile.NewResultScanner(r)
	total, anchorsSkipped := 0, 0
	for sc.Scan() {
		res := sc.Result()
		total++
		var meta *lastmile.ProbeInfo
		if registry != nil {
			if info, ok := registry.ByID(res.ProbeID); ok {
				if info.IsAnchor {
					anchorsSkipped++
					continue
				}
				meta = info
			}
		}
		asn, seen := probeASN[res.ProbeID]
		if !seen {
			asn = attribute(meta, rib, res.FromAddr, sc.ASN())
			probeASN[res.ProbeID] = asn
		}
		if asProbes[asn] == nil {
			asProbes[asn] = map[int]bool{}
		}
		asProbes[asn][res.ProbeID] = true
		if err := feed.Add(asn, res); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	switch {
	case total == 0:
		return errors.New("no traceroutes in input")
	case total == anchorsSkipped:
		return fmt.Errorf("all %d traceroutes come from anchors, which the survey excludes", total)
	}
	start, end := feed.Bounds()

	fmt.Fprintf(out, "lmsurvey: %d traceroutes, %d probes, %d AS group(s), %s .. %s",
		total, len(probeASN), len(asProbes), start.Format(time.RFC3339), end.Format(time.RFC3339))
	if anchorsSkipped > 0 {
		fmt.Fprintf(out, " (%d anchor traceroutes excluded)", anchorsSkipped)
	}
	fmt.Fprint(out, "\n\n")

	survey, skipped, err := feed.Survey(start.Format("2006-01"))
	if err != nil {
		return err
	}
	if metricsOut != "" {
		defer func() {
			if derr := reg.DumpFile(metricsOut); derr != nil {
				fmt.Fprintln(os.Stderr, "lmsurvey: metrics dump:", derr)
			}
		}()
	}
	skipReason := map[lastmile.ASN]error{}
	for _, s := range skipped {
		skipReason[s.ASN] = s.Reason
	}

	// One row per input AS in ASN order: classified ASes with their
	// verdicts, skipped ASes with their reasons.
	asns := make([]lastmile.ASN, 0, survey.Len()+len(skipped))
	asns = append(asns, survey.ASNs()...)
	for _, s := range skipped {
		asns = append(asns, s.ASN)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	tb := report.NewTable("AS", "probes", "class", "daily amp (ms)", "peak freq (c/h)", "signal")
	for _, asn := range asns {
		res := survey.Results[asn]
		if res == nil {
			reason := skipReason[asn]
			label := fmt.Sprintf("(unclassifiable: %v)", reason)
			if errors.Is(reason, lastmile.ErrNoUsableData) {
				label = "(no usable data)"
			}
			tb.AddRowf(asn.String(), len(asProbes[asn]), label, "-", "-", "")
			continue
		}
		tb.AddRowf(asn.String(), res.Probes, res.Class.String(),
			fmt.Sprintf("%.2f", res.DailyAmplitude),
			fmt.Sprintf("%.3f", res.Peak.Freq),
			report.Sparkline(report.Downsample(res.Signal.Values, 48), 0))
		if csvDir != "" {
			if err := dumpCSV(csvDir, asn, res.Signal); err != nil {
				return err
			}
		}
	}
	return tb.Render(out)
}

// attribute resolves a probe's origin AS: probe metadata first, then a
// RIB longest-prefix match on the probe's public address, then the
// archive's in-band attribution (0 for JSON, which carries none). A
// source with no answer falls through to the next.
func attribute(meta *lastmile.ProbeInfo, rib *lastmile.RIB, from netip.Addr, inBand lastmile.ASN) lastmile.ASN {
	if meta != nil && meta.ASNv4 != 0 {
		return meta.ASNv4
	}
	if rib != nil && from.IsValid() {
		if origin, err := rib.OriginOf(from); err == nil {
			return origin
		}
	}
	return inBand
}

func dumpCSV(dir string, asn lastmile.ASN, signal *lastmile.Series) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s.csv", asn)))
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	return report.WriteSeriesCSV(f, "agg_queuing_delay_ms", signal)
}
