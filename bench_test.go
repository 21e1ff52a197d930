// Benchmark harness: one benchmark per paper table and figure, plus the
// ablation benches for the design choices DESIGN.md calls out. Each bench
// regenerates its artefact end to end at a reduced-but-faithful scale (the
// full 646-AS / 340-probe scale is a multi-minute batch job; run it via
// cmd/lmexp). Use:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig5 -benchtime 3x
package lastmile_test

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/experiments"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// workerCounts are the fan-out widths the parallel benches compare: the
// serial baseline against a modest pool. Output is bit-identical across
// the two, so the delta is pure scheduling.
var workerCounts = []int{1, 4}

// benchOpts is the reduced scale shared by all benches.
func benchOpts() experiments.Options {
	return experiments.Options{
		Seed:              2020,
		WorldASes:         100,
		FleetSize:         48,
		CDNClients:        150,
		TraceroutesPerBin: 4,
	}
}

// BenchmarkFig1 regenerates Figure 1: weekly aggregated queuing delay for
// ISP_DE and ISP_US across the seven measurement periods.
func BenchmarkFig1(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: the Welch periodograms of the
// Figure 1 signals.
func BenchmarkFig2(b *testing.B) {
	o := benchOpts()
	f1, err := experiments.Fig1(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2From(f1)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSurveySet runs the seven surveys once for the survey-derived
// benches.
func benchSurveySet(b *testing.B) *experiments.SurveySet {
	b.Helper()
	set, err := experiments.RunSurveys(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkSurveys measures the end-to-end survey pipeline itself: the
// world's ASes measured and classified for all seven periods, at the
// serial baseline and on a 4-worker pool.
func BenchmarkSurveys(b *testing.B) {
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := benchOpts()
			o.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunSurveys(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3 regenerates Figure 3: the prominent-frequency and
// daily-amplitude distributions across monitored ASes.
func BenchmarkFig3(b *testing.B) {
	set := benchSurveySet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig3From(set).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: the classification breakdown by
// APNIC rank bucket, September 2019 vs April 2020.
func BenchmarkFig4(b *testing.B) {
	set := benchSurveySet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig4From(set).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadline regenerates the §3 headline table (reported counts,
// churn, COVID growth, geography).
func BenchmarkHeadline(b *testing.B) {
	set := benchSurveySet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.HeadlineFrom(set).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTokyoSet runs the Tokyo case study once for the Tokyo-derived
// benches.
func benchTokyoSet(b *testing.B) *experiments.TokyoSet {
	b.Helper()
	ts, err := experiments.RunTokyo(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkTokyo measures the end-to-end §4 case study: delays for 21
// probes plus CDN log generation and throughput estimation for six
// service arms, at the serial baseline and on a 4-worker pool.
func BenchmarkTokyo(b *testing.B) {
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := benchOpts()
			o.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTokyo(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5 regenerates Figure 5: Tokyo aggregated last-mile delays.
func BenchmarkFig5(b *testing.B) {
	ts := benchTokyoSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig5From(ts).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: Tokyo CDN throughput, broadband vs
// mobile.
func BenchmarkFig6(b *testing.B) {
	ts := benchTokyoSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig6From(ts).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: the delay/throughput Spearman
// correlations.
func BenchmarkFig7(b *testing.B) {
	ts := benchTokyoSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig7From(ts).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (Appendix B): ISP_D probes vs
// anchor.
func BenchmarkFig8(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (Appendix C): IPv4 vs IPv6
// throughput.
func BenchmarkFig9(b *testing.B) {
	ts := benchTokyoSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig9From(ts).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches: the design choices DESIGN.md §5 calls out.

func BenchmarkAblationAggregation(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAggregation(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBinWidth(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBinWidth(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWelch(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWelch(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEstimator(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEstimator(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDiscard(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDiscard(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationThresholds(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationThresholds(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorObserve measures concurrent ingestion into the
// streaming monitor's sharded engine. Every goroutine feeds its own AS
// with advancing timestamps, so the shards=1 sub-benchmark serialises on
// a single stripe while shards=8 spreads the same load — the delta is
// the striping win. Verdicts are identical at any shard count; only
// throughput changes.
func BenchmarkMonitorObserve(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m := lastmile.NewStreamMonitor(lastmile.StreamOptions{
				Window:      6 * time.Hour,
				MaxLateness: 24 * time.Hour,
				Shards:      shards,
			})
			var gid atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := int(gid.Add(1))
				asn := lastmile.ASN(64500 + g)
				tmpl := buildTrace(g, t0, 2)
				i := 0
				for pb.Next() {
					r := *tmpl
					r.Timestamp = t0.Add(time.Duration(i) * time.Second)
					i++
					if err := m.Observe(asn, &r); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkSurveyFeed measures the batch survey's per-record path: one
// reused Result, as a scanner hands it out, estimated and observed into
// the feed's engine. Timestamps advance one second per op, so a new bin
// opens every 1800 ops; 0 allocs/op is gated by check.sh.
func BenchmarkSurveyFeed(b *testing.B) {
	feed := lastmile.NewSurveyFeed(lastmile.SurveyOptions{})
	r := buildTrace(1, t0, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Timestamp = t0.Add(time.Duration(i) * time.Second)
		if err := feed.Add(64500, r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ingest path (decode + replay) ---

// ingestBenchData builds one day of traceroutes in every shape the
// ingest benches need: individual Atlas JSON lines, the concatenated
// JSONL archive, the binary wire archive, and the raw frame payloads.
func ingestBenchData(b *testing.B) (lines [][]byte, jsonArchive, wireArchive []byte, payloads [][]byte) {
	b.Helper()
	var jsonBuf, wireBuf bytes.Buffer
	jw := lastmile.NewResultWriter(&jsonBuf)
	ww := lastmile.NewBinaryResultWriter(&wireBuf)
	end := t0.Add(24 * time.Hour)
	for ts := t0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
		for probe := 1; probe <= 4; probe++ {
			r := buildTrace(probe, ts, 2.0+float64(probe))
			line, err := lastmile.MarshalAtlasResult(r)
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, line)
			payloads = append(payloads, wire.AppendResult(nil, 64500, r))
			if err := jw.Write(r); err != nil {
				b.Fatal(err)
			}
			if err := ww.WriteResult(64500, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := jw.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := ww.Flush(); err != nil {
		b.Fatal(err)
	}
	return lines, jsonBuf.Bytes(), wireBuf.Bytes(), payloads
}

func byteTotal(chunks [][]byte) int64 {
	var n int64
	for _, c := range chunks {
		n += int64(len(c))
	}
	return n
}

// BenchmarkIngestDecodeJSONStdlib is the before picture: one op decodes
// the day's results through encoding/json (the pre-rewrite ingest path).
func BenchmarkIngestDecodeJSONStdlib(b *testing.B) {
	lines, _, _, _ := ingestBenchData(b)
	b.SetBytes(byteTotal(lines))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, line := range lines {
			if _, err := lastmile.ParseAtlasResult(line); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIngestDecodeJSON is the hand-rolled zero-alloc JSON parser
// decoding into one reused Result — 0 allocs/op is gated by check.sh.
func BenchmarkIngestDecodeJSON(b *testing.B) {
	lines, _, _, _ := ingestBenchData(b)
	b.SetBytes(byteTotal(lines))
	b.ReportAllocs()
	var r lastmile.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, line := range lines {
			if err := traceroute.ParseAtlasInto(&r, line); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIngestDecodeWire is the binary frame decoder on the same
// results — 0 allocs/op is gated by check.sh.
func BenchmarkIngestDecodeWire(b *testing.B) {
	_, _, _, payloads := ingestBenchData(b)
	b.SetBytes(byteTotal(payloads))
	b.ReportAllocs()
	var r lastmile.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			if _, err := wire.DecodeResultInto(&r, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIngestEncodeJSON is the Atlas JSON encoder: one op writes the
// day's results through one reused Writer into io.Discard — 0 allocs/op
// is gated by check.sh.
func BenchmarkIngestEncodeJSON(b *testing.B) {
	lines, jsonArchive, _, _ := ingestBenchData(b)
	results := make([]*lastmile.Result, len(lines))
	for i, line := range lines {
		r, err := lastmile.ParseAtlasResult(line)
		if err != nil {
			b.Fatal(err)
		}
		results[i] = r
	}
	w := lastmile.NewResultWriter(io.Discard)
	b.SetBytes(int64(len(jsonArchive)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIngestReplayJSON replays the whole JSONL archive through the
// auto-detecting public scanner, end to end.
func BenchmarkIngestReplayJSON(b *testing.B) {
	lines, jsonArchive, _, _ := ingestBenchData(b)
	b.SetBytes(int64(len(jsonArchive)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := lastmile.NewResultScanner(bytes.NewReader(jsonArchive))
		n := 0
		for sc.Scan() {
			n++
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if n != len(lines) {
			b.Fatalf("replayed %d of %d results", n, len(lines))
		}
	}
}

// BenchmarkIngestReplayWire replays the same campaign from the binary
// archive — the MB/s headroom over BenchmarkIngestReplayJSON is what the
// wire format buys (note the archive is also ~5x smaller).
func BenchmarkIngestReplayWire(b *testing.B) {
	lines, _, wireArchive, _ := ingestBenchData(b)
	b.SetBytes(int64(len(wireArchive)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := lastmile.NewResultScanner(bytes.NewReader(wireArchive))
		n := 0
		for sc.Scan() {
			n++
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if n != len(lines) {
			b.Fatalf("replayed %d of %d results", n, len(lines))
		}
	}
}
