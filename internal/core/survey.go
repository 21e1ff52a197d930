package core

import (
	"sort"

	"github.com/last-mile-congestion/lastmile/internal/apnic"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// ASResult is one AS's outcome in one measurement period.
type ASResult struct {
	ASN bgp.ASN
	// Probes is the number of probes that contributed to the aggregate.
	Probes int
	// Signal is the aggregated queuing-delay series.
	Signal *timeseries.Series
	// Classification is the detector verdict.
	Classification
}

// Survey holds the per-AS results of one measurement period.
type Survey struct {
	// Period labels the measurement period, e.g. "2019-09".
	Period string
	// Results maps each monitored AS to its outcome.
	Results map[bgp.ASN]*ASResult
}

// NewSurvey creates an empty survey for the given period label.
func NewSurvey(period string) *Survey {
	return &Survey{Period: period, Results: make(map[bgp.ASN]*ASResult)}
}

// Add records one AS result, replacing any previous result for the same
// AS.
func (s *Survey) Add(r *ASResult) { s.Results[r.ASN] = r }

// Len returns the number of monitored ASes.
func (s *Survey) Len() int { return len(s.Results) }

// CountByClass tallies ASes per class.
func (s *Survey) CountByClass() map[Class]int {
	out := make(map[Class]int)
	for _, r := range s.Results {
		out[r.Class]++
	}
	return out
}

// ReportedASes returns the ASes classified as congested (not None),
// sorted by ASN for stable output.
func (s *Survey) ReportedASes() []bgp.ASN {
	var out []bgp.ASN
	for asn, r := range s.Results {
		if r.Class.Reported() {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ASNs returns every monitored AS, sorted.
func (s *Survey) ASNs() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(s.Results))
	for asn := range s.Results {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BucketBreakdown is Fig. 4's content for one period: per APNIC rank
// bucket, the share of that bucket's ASes in each class, in percent.
type BucketBreakdown struct {
	Period string
	// Counts[bucket][class] is the number of ASes.
	Counts [apnic.NumBuckets][4]int
	// Totals[bucket] is the number of monitored ASes in the bucket.
	Totals [apnic.NumBuckets]int
}

// Percent returns the percentage of bucket b's ASes in class c, or 0 when
// the bucket is empty.
func (bb *BucketBreakdown) Percent(b apnic.RankBucket, c Class) float64 {
	if bb.Totals[b] == 0 {
		return 0
	}
	return 100 * float64(bb.Counts[b][c]) / float64(bb.Totals[b])
}

// BreakdownByBucket crosses a survey with an APNIC ranking (Fig. 4).
// ASes missing from the ranking land in the "more than 10k" bucket, as
// APNIC effectively treats invisible ASes.
func BreakdownByBucket(s *Survey, ranking *apnic.Ranking) *BucketBreakdown {
	bb := &BucketBreakdown{Period: s.Period}
	for asn, r := range s.Results {
		rank, ok := ranking.Rank(asn)
		if !ok {
			rank = 0 // buckets as BucketOver10k
		}
		b := apnic.BucketOf(rank)
		bb.Counts[b][r.Class]++
		bb.Totals[b]++
	}
	return bb
}

// GeoBreakdown summarises the geographical distribution of reported ASes
// (§3.2): per country, how many monitored ASes were reported at all and
// how many were Severe.
type GeoBreakdown struct {
	// Monitored, Reported, Severe count ASes per country code.
	Monitored, Reported, Severe map[string]int
}

// BreakdownByCountry crosses one or more surveys with the ranking's
// country attribution. An AS is counted once per survey, matching the
// paper's "18% of Severe reports over the two years" accounting.
func BreakdownByCountry(surveys []*Survey, ranking *apnic.Ranking) *GeoBreakdown {
	gb := &GeoBreakdown{
		Monitored: make(map[string]int),
		Reported:  make(map[string]int),
		Severe:    make(map[string]int),
	}
	for _, s := range surveys {
		for asn, r := range s.Results {
			cc, ok := ranking.Country(asn)
			if !ok {
				cc = "??"
			}
			gb.Monitored[cc]++
			if r.Class.Reported() {
				gb.Reported[cc]++
			}
			if r.Class == Severe {
				gb.Severe[cc]++
			}
		}
	}
	return gb
}

// SevereShare returns country cc's share of all Severe reports, in
// [0, 1].
func (gb *GeoBreakdown) SevereShare(cc string) float64 {
	total := 0
	for _, n := range gb.Severe {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(gb.Severe[cc]) / float64(total)
}

// CountriesWithReports returns how many countries have at least one
// reported AS and at least one Severe AS across the surveys.
func (gb *GeoBreakdown) CountriesWithReports() (reported, severe int) {
	seenR := make(map[string]bool)
	seenS := make(map[string]bool)
	for cc, n := range gb.Reported {
		if n > 0 {
			seenR[cc] = true
		}
	}
	for cc, n := range gb.Severe {
		if n > 0 {
			seenS[cc] = true
		}
	}
	return len(seenR), len(seenS)
}

// Churn counts, for each AS reported in at least one survey, the number
// of surveys in which it was reported. The paper: "36 ASes are reported
// for at least half of the measurement periods."
func Churn(surveys []*Survey) map[bgp.ASN]int {
	out := make(map[bgp.ASN]int)
	for _, s := range surveys {
		for _, asn := range s.ReportedASes() {
			out[asn]++
		}
	}
	return out
}

// ReportedAtLeast returns how many ASes were reported in at least k of
// the surveys.
func ReportedAtLeast(surveys []*Survey, k int) int {
	n := 0
	for _, c := range Churn(surveys) {
		if c >= k {
			n++
		}
	}
	return n
}
