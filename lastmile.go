// Package lastmile detects persistent last-mile congestion from
// traceroute measurements, reproducing the methodology of "Persistent
// Last-mile Congestion: Not so Uncommon" (Fontugne, Shah, Cho — ACM IMC
// 2020).
//
// The pipeline has four stages, each usable on its own:
//
//  1. Parse traceroutes — Atlas-format JSON via ParseAtlasResult,
//     NewResultScanner (one record at a time) or ScanResults (a whole
//     archive, JSONL decoded on every core), or construct Result values
//     directly.
//  2. Estimate last-mile RTT samples per traceroute (EstimateLastMile):
//     the pairwise differences between the last private hop and the first
//     public hop.
//  3. Bin per-probe median RTT in 30-minute bins, subtract each probe's
//     minimum and aggregate a probe population into a queuing-delay
//     signal. SurveyFeed (or RunSurvey) does this per AS, through the
//     same engine the streaming monitor and the simulator use.
//  4. Classify the signal (Classify): a Welch periodogram normalised to
//     peak-to-peak amplitude locates the prominent frequency; signals
//     whose prominent component is the daily cycle are classified
//     Severe / Mild / Low by amplitude.
//
// CDN-side validation (§4 of the paper) is available through the
// throughput estimator (NewThroughputEstimator): median per-IP throughput
// of large cache-hit transfers in 15-minute bins, with mobile prefixes
// excluded, and Spearman correlation against the delay signal.
//
// A full synthetic measurement world — the RIPE Atlas platform, access
// networks with shared aggregation devices, and a CDN log stream — lives
// under internal/scenario and internal/experiments and powers the
// reproduction of every figure in the paper; see cmd/lmexp.
package lastmile

import (
	"bufio"
	"io"
	"net/netip"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/apnic"
	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/cdn"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/dsp"
	lmioutil "github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/ipnet"
	lm "github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// --- Traceroute results (RIPE Atlas format) ---

// Result is one traceroute measurement result.
type Result = traceroute.Result

// HopResult groups the probe replies of one TTL.
type HopResult = traceroute.HopResult

// Reply is a single probe reply.
type Reply = traceroute.Reply

// ParseAtlasResult decodes one RIPE Atlas traceroute result JSON object.
func ParseAtlasResult(data []byte) (*Result, error) { return traceroute.ParseAtlas(data) }

// MarshalAtlasResult encodes a result in the RIPE Atlas JSON format.
func MarshalAtlasResult(r *Result) ([]byte, error) { return traceroute.MarshalAtlas(r) }

// ResultScanner streams traceroute results from an archive in either
// supported encoding — newline-delimited Atlas JSON or the binary wire
// format — detected automatically by NewResultScanner.
type ResultScanner interface {
	// Scan advances to the next result. It returns false at end of
	// input or on the first error; check Err.
	Scan() bool
	// Result returns the result decoded by the last successful Scan.
	// The pointer and everything it references are valid until the next
	// Scan call, which reuses the same storage; callers that retain a
	// result across Scans must Clone it (or CopyFrom into their own
	// Result).
	Result() *Result
	// ASN returns the origin AS attributed to the last scanned result
	// in the archive itself. JSON archives carry no attribution, so the
	// JSON scanner always reports 0.
	ASN() ASN
	// Err returns the first error encountered, or nil at clean end of
	// input.
	Err() error
}

// NewResultScanner wraps r for traceroute input, transparently
// decompressing gzip and detecting the encoding by its leading bytes: a
// wire stream signature selects the binary decoder, anything else is
// read as Atlas JSONL.
func NewResultScanner(r io.Reader) ResultScanner {
	rd, isWire := sniffWire(r)
	if isWire {
		return wire.NewScanner(rd)
	}
	return jsonResultScanner{traceroute.NewScanner(rd)}
}

// ScanResults reads a whole archive, detecting its encoding as
// NewResultScanner does, and calls fn on every result in archive order
// with its in-band AS (0 for JSON). It returns what a NewResultScanner
// loop that stops at fn's first error returns. Both encodings decode on
// GOMAXPROCS goroutines, in batches that reach fn in archive order on
// the caller's goroutine (traceroute.ScanAll for JSONL, wire.ScanAll
// for wire archives). The *Result is valid only until fn returns.
// Readers that must hand out each record as it arrives, such as a live
// stream, keep NewResultScanner.
func ScanResults(r io.Reader, fn func(*Result, ASN) error) error {
	rd, isWire := sniffWire(r)
	if isWire {
		return wire.ScanAll(rd, fn)
	}
	return traceroute.ScanAll(rd, func(res *Result) error { return fn(res, 0) })
}

// jsonResultScanner adapts the JSONL scanner, which has no in-band AS
// attribution, to the ResultScanner interface.
type jsonResultScanner struct{ *traceroute.Scanner }

// ASN always reports 0: JSON archives carry no attribution.
func (jsonResultScanner) ASN() ASN { return 0 }

// sniffWire peeks past an optional gzip layer at the first bytes of r
// and reports whether they carry the wire stream signature. The
// returned reader replays the stream from the start.
func sniffWire(r io.Reader) (io.Reader, bool) {
	rd, err := lmioutil.MaybeGzip(r)
	if err != nil {
		// A broken gzip header surfaces as the chosen scanner's first
		// error.
		return errReader{err}, false
	}
	br := bufio.NewReader(rd)
	head, _ := br.Peek(4)
	return br, wire.IsMagic(head)
}

// errReader surfaces a sniff-time error on the first read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// ResultWriter streams results as newline-delimited Atlas JSON.
type ResultWriter = traceroute.Writer

// NewResultWriter wraps w for JSONL traceroute output.
func NewResultWriter(w io.Writer) *ResultWriter { return traceroute.NewWriter(w) }

// WireWriter streams attributed results or CDN log entries in the
// compact binary wire format — the fast, zero-allocation counterpart of
// the JSON and CSV writers. Archives it produces are read back through
// NewResultScanner / NewLogScanner, which detect the format
// automatically.
type WireWriter = wire.Writer

// NewBinaryResultWriter wraps w for binary traceroute output. Each
// result is written with its origin AS, so the archive round-trips the
// attribution that JSON archives must reconstruct from a RIB or probe
// metadata.
func NewBinaryResultWriter(w io.Writer) *WireWriter {
	return wire.NewWriter(w, wire.StreamResults)
}

// NewBinaryLogWriter wraps w for binary CDN access-log output.
func NewBinaryLogWriter(w io.Writer) *WireWriter {
	return wire.NewWriter(w, wire.StreamCDNLog)
}

// --- Last-mile estimation (§2.1) ---

// Segment is the last-mile boundary within a traceroute: last private
// hop, first public hop.
type Segment = lm.Segment

// EstimateLastMile extracts a traceroute's last-mile RTT samples: up to 9
// pairwise (public − private) differences. ok is false when the
// traceroute carries no usable last-mile segment.
func EstimateLastMile(r *Result) (samples []float64, seg Segment, ok bool) {
	return lm.Estimate(r)
}

// FindSegment locates the last-mile segment of a traceroute.
func FindSegment(r *Result) (Segment, bool) { return lm.FindSegment(r) }

// Binning defaults of the paper's pipeline.
const (
	// DefaultBinWidth is the 30-minute aggregation bin of §2.1.
	DefaultBinWidth = lm.DefaultBinWidth
	// DefaultMinTraceroutes is the per-bin sanity threshold of §2.
	DefaultMinTraceroutes = lm.DefaultMinTraceroutes
)

// --- Time series ---

// Series is a regularly sampled time series; NaN marks gaps.
type Series = timeseries.Series

// NewSeries returns a Series of n gap values starting at start.
func NewSeries(start time.Time, step time.Duration, n int) (*Series, error) {
	return timeseries.NewSeries(start, step, n)
}

// SubtractMin converts an RTT series into a queuing-delay estimate by
// pinning its minimum at zero.
func SubtractMin(s *Series) (*Series, error) { return timeseries.SubtractMin(s) }

// AggregateMedian combines aligned series by per-bin median.
func AggregateMedian(series []*Series) (*Series, error) {
	return timeseries.AggregateMedian(series)
}

// DayHourProfile folds a series onto a Monday-to-Sunday weekly template.
func DayHourProfile(s *Series) ([]float64, error) { return timeseries.DayHourProfile(s) }

// --- Classification (§2.3) ---

// Class is a persistent-congestion severity class.
type Class = core.Class

// The paper's four classes.
const (
	None   = core.None
	Low    = core.Low
	Mild   = core.Mild
	Severe = core.Severe
)

// DailyFreq is the daily cycle frequency in cycles per hour (1/24).
const DailyFreq = core.DailyFreq

// Thresholds holds the classifier's amplitude cut-offs.
type Thresholds = core.Thresholds

// DefaultThresholds returns the paper's 0.5 / 1 / 3 ms cut-offs.
func DefaultThresholds() Thresholds { return core.DefaultThresholds() }

// ClassifierOptions configures Classify.
type ClassifierOptions = core.ClassifierOptions

// DefaultClassifierOptions returns the paper pipeline's configuration.
func DefaultClassifierOptions() ClassifierOptions { return core.DefaultClassifierOptions() }

// Classification is the detector's verdict on one aggregated signal.
type Classification = core.Classification

// Classify runs the §2.3 detector on an aggregated queuing-delay signal.
func Classify(signal *Series, opts ClassifierOptions) (Classification, error) {
	return core.Classify(signal, opts)
}

// --- Spectral analysis ---

// Periodogram is a Welch spectral estimate calibrated so a sinusoid of
// peak-to-peak amplitude X reads X at its frequency bin.
type Periodogram = dsp.Periodogram

// WelchOptions configures the Welch estimate.
type WelchOptions = dsp.WelchOptions

// WelchDefaults returns the paper pipeline's Welch configuration.
func WelchDefaults() WelchOptions { return dsp.WelchDefaults() }

// Welch estimates the spectrum of xs sampled at sampleRate samples per
// unit time.
func Welch(xs []float64, sampleRate float64, opts WelchOptions) (*Periodogram, error) {
	return dsp.Welch(xs, sampleRate, opts)
}

// --- Surveys (§3) ---

// Survey holds per-AS results for one measurement period.
type Survey = core.Survey

// NewSurvey creates an empty survey for a period label.
func NewSurvey(period string) *Survey { return core.NewSurvey(period) }

// ASResult is one AS's outcome in one period.
type ASResult = core.ASResult

// AttributedResult pairs a traceroute result with its origin AS for a
// batch survey.
type AttributedResult = core.AttributedResult

// SurveyOptions configures RunSurvey.
type SurveyOptions = core.SurveyOptions

// SkippedAS records why an AS present in the input could not be
// classified, so no AS silently vanishes from a report.
type SkippedAS = core.SkippedAS

// ErrNoUsableData is the skip reason for an AS none of whose
// traceroutes carried a usable last-mile segment.
var ErrNoUsableData = core.ErrNoUsableData

// RunSurvey runs the batch pipeline over a completed measurement
// period: it replays the attributed traceroutes through the shared
// incremental delay engine and classifies every AS, returning the
// survey plus the skip reason for each unclassifiable AS. Zero
// Start/End derive the period from the observed timestamps.
func RunSurvey(period string, results []AttributedResult, opts SurveyOptions) (*Survey, []SkippedAS, error) {
	return core.RunSurvey(period, results, opts)
}

// SurveyFeed is the streaming form of RunSurvey: Add each attributed
// traceroute as it is decoded, then Survey classifies. The feed keeps
// nothing of a record, so a scanner's reused Result can be passed
// straight in; memory is engine state, at most 9 float64 per usable
// traceroute.
type SurveyFeed = core.SurveyFeed

// NewSurveyFeed creates a survey feed over one engine.
func NewSurveyFeed(opts SurveyOptions) *SurveyFeed {
	return core.NewSurveyFeed(opts)
}

// ASN is an autonomous system number.
type ASN = bgp.ASN

// RIB is a routing table with longest-prefix match, used to resolve
// probe and client addresses to origin ASes.
type RIB = bgp.RIB

// ParseRIB reads "prefix origin" lines into a RIB.
func ParseRIB(r io.Reader) (*RIB, error) { return bgp.ParseRIB(r) }

// Ranking is an APNIC-style eyeball population ranking.
type Ranking = apnic.Ranking

// ParseRanking reads "asn cc users" lines into a Ranking.
func ParseRanking(r io.Reader) (*Ranking, error) { return apnic.ParseRanking(r) }

// --- CDN throughput validation (§4.2) ---

// LogEntry is one CDN access-log record.
type LogEntry = cdn.LogEntry

// CacheStatus is the CDN cache outcome of a request.
type CacheStatus = cdn.CacheStatus

// Cache outcomes.
const (
	CacheHit  = cdn.Hit
	CacheMiss = cdn.Miss
)

// LogScanner streams CDN access-log entries from an archive in either
// supported encoding — CSV or the binary wire format — detected
// automatically by NewLogScanner.
type LogScanner interface {
	// Scan advances to the next entry. It returns false at end of input
	// or on the first error; check Err.
	Scan() bool
	// Entry returns the entry decoded by the last successful Scan.
	Entry() LogEntry
	// Err returns the first error encountered, or nil at clean end of
	// input.
	Err() error
}

// NewLogScanner streams log entries from the CSV produced by
// NewLogWriter or the binary wire format produced by NewBinaryLogWriter,
// detecting the encoding (and gzip compression) automatically.
func NewLogScanner(r io.Reader) LogScanner {
	rd, isWire := sniffWire(r)
	if isWire {
		return wire.NewLogScanner(rd)
	}
	return cdn.NewScanner(rd)
}

// NewLogWriter streams log entries as CSV.
func NewLogWriter(w io.Writer) *cdn.Writer { return cdn.NewWriter(w) }

// ThroughputOptions configures the throughput estimator.
type ThroughputOptions = cdn.ThroughputOptions

// DefaultThroughputOptions returns the paper's §4.2 filters: >3 MB
// cache hits, 15-minute bins.
func DefaultThroughputOptions() ThroughputOptions { return cdn.DefaultThroughputOptions() }

// ThroughputEstimator aggregates log entries into the median per-IP
// throughput series.
type ThroughputEstimator = cdn.Estimator

// NewThroughputEstimator creates an estimator covering [start, end).
func NewThroughputEstimator(start, end time.Time, opts ThroughputOptions) (*ThroughputEstimator, error) {
	return cdn.NewEstimator(start, end, opts)
}

// PrefixSet is a set of prefixes with longest-prefix-match membership,
// used for the mobile-prefix filter.
type PrefixSet = ipnet.PrefixSet

// IsPrivate reports whether an address belongs to the subscriber side of
// the last mile (RFC 1918, CGNAT, link-local, loopback, ULA).
func IsPrivate(addr netip.Addr) bool { return ipnet.IsPrivate(addr) }

// IsPublic reports whether an address is globally routable unicast.
func IsPublic(addr netip.Addr) bool { return ipnet.IsPublic(addr) }

// Spearman returns Spearman's rank correlation of two paired samples,
// dropping pairs with NaN on either side — the §4.3 delay/throughput
// join.
func Spearman(xs, ys []float64) (float64, error) { return stats.Spearman(xs, ys) }

// --- Probe metadata (Atlas probe archive) ---

// ProbeInfo is one Atlas probe's metadata record.
type ProbeInfo = atlas.ProbeInfo

// ProbeRegistry indexes probe metadata for the paper's selections
// (exclude anchors, group by ASN, filter by city).
type ProbeRegistry = atlas.Registry

// ProbeSelect narrows a probe selection.
type ProbeSelect = atlas.SelectOptions

// ParseProbeRegistry reads probe metadata as a JSON array or JSONL, the
// shapes the Atlas probe archive ships in.
func ParseProbeRegistry(r io.Reader) (*ProbeRegistry, error) { return atlas.ParseRegistry(r) }

// --- Robustness and guard rails ---

// BootstrapOptions configures BootstrapAmplitude.
type BootstrapOptions = core.BootstrapOptions

// BootstrapResult summarises the resampled amplitude distribution.
type BootstrapResult = core.BootstrapResult

// BootstrapAmplitude quantifies probe-population variability (§5): it
// resamples per-probe queuing-delay series with replacement and reports
// a confidence interval on the daily amplitude plus class stability.
func BootstrapAmplitude(perProbe []*Series, opts BootstrapOptions) (*BootstrapResult, error) {
	return core.BootstrapAmplitude(perProbe, opts)
}

// GuardOptions tunes PeakHourMask.
type GuardOptions = core.GuardOptions

// DefaultGuardOptions returns the recommended guard configuration.
func DefaultGuardOptions() GuardOptions { return core.DefaultGuardOptions() }

// PeakHourMask implements §6's recommendation for delay studies: one
// boolean per bin, true where latency-based inference should avoid this
// AS's probes.
func PeakHourMask(signal *Series, cls Classification, opts GuardOptions) ([]bool, error) {
	return core.PeakHourMask(signal, cls, opts)
}

// MaskedFraction returns the share of bins a mask excludes.
func MaskedFraction(mask []bool) float64 { return core.MaskedFraction(mask) }

// --- Streaming (online) monitoring ---

// StreamOptions configures a streaming monitor.
type StreamOptions = stream.Options

// StreamMonitor ingests traceroute results continuously and classifies
// ASes over a sliding window with bounded memory.
type StreamMonitor = stream.Monitor

// StreamVerdict is one AS's online classification. It is the same type
// as ASResult: a verdict over the monitor's window carries exactly what
// a batch survey's verdict over its period does.
type StreamVerdict = stream.Verdict

// StreamStats reports a monitor's ingestion counters and live window
// gauges (tracked ASes, probes, resident bins and samples, evicted
// bins).
type StreamStats = stream.Stats

// NewStreamMonitor creates a streaming monitor.
func NewStreamMonitor(opts StreamOptions) *StreamMonitor { return stream.NewMonitor(opts) }

// RestoreStreamMonitor rebuilds a monitor from a state snapshot written
// by StreamMonitor.Snapshot or a StreamCheckpointer's state file,
// resuming with the window contents, watermark, and counters of the
// checkpointed monitor — the checkpoint/resume path of a long-running
// monitor. Semantic options left zero adopt the snapshot's values;
// non-zero ones must match it. A torn segment after the base yields the
// monitor as of the last complete segment along with an error.
func RestoreStreamMonitor(r io.Reader, opts StreamOptions) (*StreamMonitor, error) {
	return stream.RestoreMonitor(r, opts)
}

// StreamCheckpointer keeps one monitor's state in a file, gated on the
// observation watermark crossing a bin boundary: a base snapshot
// written by atomic rename, then at each boundary a segment of only the
// bins that changed, appended, with a fresh base once the segments
// outgrow it. Checkpoint always writes a fresh base. Drive it from the
// goroutine that feeds the monitor.
type StreamCheckpointer = stream.Checkpointer

// NewStreamCheckpointer returns a checkpointer writing m's checkpoints
// to path.
func NewStreamCheckpointer(m *StreamMonitor, path string) *StreamCheckpointer {
	return stream.NewCheckpointer(m, path)
}

// --- Telemetry ---

// MetricsRegistry is a named collection of lock-free counters, gauges,
// and latency histograms with deterministic snapshot ordering. Pass one
// via SurveyOptions.Metrics or StreamOptions.Metrics to observe the
// pipeline's hot paths; expose it with its Prometheus-text or JSON
// handlers. Telemetry is observation-only — wiring a registry never
// changes a verdict.
type MetricsRegistry = telemetry.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// DefaultMetrics returns the process-wide registry that package-level
// subsystems (the dsp plan caches, the parallel worker pool) register
// into.
func DefaultMetrics() *MetricsRegistry { return telemetry.Default() }
