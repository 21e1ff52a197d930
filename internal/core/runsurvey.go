package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	lm "github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// AttributedResult pairs one traceroute result with its origin AS.
// Attribution (RIB longest-prefix match, probe metadata, or a fixed
// mapping) is the caller's concern; the survey only needs the pairing.
type AttributedResult struct {
	ASN    bgp.ASN
	Result *traceroute.Result
}

// SurveyOptions configures RunSurvey.
type SurveyOptions struct {
	// BinWidth is the aggregation bin (default 30 minutes).
	BinWidth time.Duration
	// MinTraceroutes is the per-bin sanity threshold (default 3).
	MinTraceroutes int
	// Start and End bound the measurement period. Zero values are
	// derived from the data: Start floors the earliest timestamp to a
	// bin boundary, End ceils the latest.
	Start, End time.Time
	// Classifier configures the detector; the zero value selects
	// DefaultClassifierOptions.
	Classifier ClassifierOptions
	// Workers bounds the per-AS classification fan-out (default
	// GOMAXPROCS). Results are identical at any worker count.
	Workers int
	// Shards is the engine's lock-stripe count (default 1). Results are
	// identical at any shard count.
	Shards int
	// Metrics is the registry the survey's engine and phase timers
	// register into. Nil means a private registry. Telemetry is
	// observation-only: verdicts are bit-identical with or without it
	// (pinned by TestRunSurveyMetricsEquivalence).
	Metrics *telemetry.Registry
}

// withDefaults fills zero fields.
func (o SurveyOptions) withDefaults() SurveyOptions {
	if o.BinWidth == 0 {
		o.BinWidth = lm.DefaultBinWidth
	}
	if o.MinTraceroutes == 0 {
		o.MinTraceroutes = lm.DefaultMinTraceroutes
	}
	if o.Classifier.MaxGapFrac == 0 {
		o.Classifier = DefaultClassifierOptions()
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// SkippedAS records why an AS present in the input produced no survey
// verdict, so a misbehaving AS is observable instead of silently
// vanishing from the report.
type SkippedAS struct {
	ASN    bgp.ASN
	Reason error
}

// ErrNoUsableData marks an AS none of whose traceroutes carried a
// usable last-mile segment.
var ErrNoUsableData = errors.New("no usable last-mile data")

// errNilResult is allocated once; Add must not build error values per
// call.
var errNilResult = errors.New("core: nil result")

// RunSurvey runs the paper's batch pipeline (§2.1 + §2.3) over one
// completed measurement period: it replays the attributed results
// through the shared incremental delay engine (the same engine the
// streaming monitor drives continuously), then classifies every AS.
// ASes that cannot be classified are returned with their reasons. The
// survey is identical at any Workers and Shards count, and identical to
// streaming the same results through stream.Monitor with a window
// covering the period. It is a loop over results into a SurveyFeed.
func RunSurvey(period string, results []AttributedResult, opts SurveyOptions) (*Survey, []SkippedAS, error) {
	f := NewSurveyFeed(opts)
	for i, ar := range results {
		if err := f.Add(ar.ASN, ar.Result); err != nil {
			return nil, nil, fmt.Errorf("%w at index %d", err, i)
		}
	}
	return f.Survey(period)
}

// SurveyFeed is the streaming form of RunSurvey. Add reduces each
// record to its last-mile samples and observes them into the feed's
// engine; Survey classifies. The feed keeps nothing a record
// references, so a scanner's reused Result can be passed straight in.
// Survey memory is engine state: at most 9 float64 per usable
// traceroute (engine_resident_samples), held until Survey. It still
// grows with the number of records, but by those samples only, not by a
// copy of each record.
//
// The feed is serial and not safe for concurrent use; classification
// in Survey fans out over SurveyOptions.Workers.
//
// survey_feed_seconds times the feed from the first Add to Survey. A
// caller that decodes records in the same loop (lmsurvey) therefore
// counts its decode and attribution time there too.
type SurveyFeed struct {
	opts     SurveyOptions
	eng      *engine.Engine
	reg      *telemetry.Registry
	feedHist *telemetry.Histogram
	// n counts the records added. ases holds every AS added, usable or
	// not, so wholly unusable ASes surface as skipped.
	n          int
	ases       map[bgp.ASN]struct{}
	tMin, tMax time.Time
	scratch    []float64
	feedTimer  telemetry.Timer
	surveyed   bool
}

// NewSurveyFeed creates a feed over one engine.
func NewSurveyFeed(opts SurveyOptions) *SurveyFeed {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &SurveyFeed{
		opts: opts,
		eng: engine.New(engine.Options{
			BinWidth:       opts.BinWidth,
			MinTraceroutes: opts.MinTraceroutes,
			Shards:         opts.Shards,
			Metrics:        reg,
		}),
		reg:      reg,
		feedHist: reg.Histogram("survey_feed_seconds", telemetry.DefLatencyBuckets),
		ases:     make(map[bgp.ASN]struct{}),
		scratch:  make([]float64, 0, 16),
	}
}

// Add feeds one record attributed to asn. It keeps nothing that aliases
// r, so the caller may reuse r as soon as Add returns.
//
//lmvet:hotpath
func (f *SurveyFeed) Add(asn bgp.ASN, r *traceroute.Result) error {
	if r == nil {
		return errNilResult
	}
	switch {
	case f.n == 0:
		f.tMin, f.tMax = r.Timestamp, r.Timestamp
		f.feedTimer = f.feedHist.Start()
	case r.Timestamp.Before(f.tMin):
		f.tMin = r.Timestamp
	case r.Timestamp.After(f.tMax):
		f.tMax = r.Timestamp
	}
	f.n++
	f.ases[asn] = struct{}{}
	samples, _, ok := lm.EstimateInto(f.scratch[:0], r)
	f.scratch = samples
	if ok {
		f.eng.Observe(asn, r.ProbeID, r.Timestamp, samples)
	}
	return nil
}

// Bounds returns the survey period: SurveyOptions.Start and End where
// pinned, otherwise derived from the records added so far — Start floors
// the earliest timestamp to a bin boundary, End ceils the latest.
// Derived bounds are zero before the first Add.
func (f *SurveyFeed) Bounds() (start, end time.Time) {
	start, end = f.opts.Start, f.opts.End
	if f.n == 0 {
		return start, end
	}
	if start.IsZero() {
		start = f.tMin.Truncate(f.opts.BinWidth)
	}
	if end.IsZero() {
		end = f.tMax.Add(f.opts.BinWidth).Truncate(f.opts.BinWidth)
	}
	return start, end
}

// Survey ends the feed: it fixes the period bounds and classifies every
// AS added, returning the ASes that cannot be classified with their
// reasons. The feed must not be used afterwards; a second Survey returns
// an error.
func (f *SurveyFeed) Survey(period string) (*Survey, []SkippedAS, error) {
	if f.surveyed {
		return nil, nil, errors.New("core: survey feed already surveyed")
	}
	f.surveyed = true
	if f.n == 0 {
		return nil, nil, errors.New("core: no results to survey")
	}
	f.feedTimer.Stop()
	start, end := f.Bounds()
	if !start.Before(end) {
		return nil, nil, fmt.Errorf("core: survey period start %v does not precede end %v", start, end)
	}
	nBins := int(end.Sub(start) / f.opts.BinWidth)
	if end.Sub(start)%f.opts.BinWidth != 0 {
		nBins++
	}

	universe := make([]bgp.ASN, 0, len(f.ases))
	for asn := range f.ases {
		universe = append(universe, asn)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	return classifySurvey(period, f.eng, universe, start, nBins, f.opts, f.reg)
}

// classifySurvey runs the §2.3 classification pass over a fed engine
// for every AS of the sorted universe and assembles the survey.
func classifySurvey(period string, eng *engine.Engine, universe []bgp.ASN, start time.Time, nBins int, opts SurveyOptions, reg *telemetry.Registry) (*Survey, []SkippedAS, error) {
	engineASes := make(map[bgp.ASN]bool)
	for _, asn := range eng.ASNs() {
		engineASes[asn] = true
	}

	type verdict struct {
		result *ASResult
		reason error
	}
	classifyTimer := reg.Histogram("survey_classify_seconds", telemetry.DefLatencyBuckets).Start()
	verdicts, err := parallel.Map(context.Background(), opts.Workers, len(universe), func(i int) (verdict, error) {
		asn := universe[i]
		if !engineASes[asn] {
			return verdict{reason: ErrNoUsableData}, nil
		}
		signal, n, err := eng.Signal(asn, start, nBins)
		if err != nil {
			return verdict{reason: err}, nil
		}
		cls, err := Classify(signal, opts.Classifier)
		if err != nil {
			return verdict{reason: fmt.Errorf("unclassifiable: %w", err)}, nil
		}
		return verdict{result: &ASResult{ASN: asn, Probes: n, Signal: signal, Classification: cls}}, nil
	})
	classifyTimer.Stop()
	if err != nil {
		return nil, nil, err
	}

	survey := NewSurvey(period)
	var skipped []SkippedAS
	for i, v := range verdicts {
		switch {
		case v.result != nil:
			survey.Add(v.result)
		default:
			skipped = append(skipped, SkippedAS{ASN: universe[i], Reason: v.reason})
		}
	}
	return survey, skipped, nil
}
