package core

import (
	"math"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/apnic"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
)

func mkSurvey(period string, classes map[bgp.ASN]Class) *Survey {
	s := NewSurvey(period)
	for asn, c := range classes {
		s.Add(&ASResult{ASN: asn, Probes: 5, Classification: Classification{Class: c}})
	}
	return s
}

func testRanking(t *testing.T) *apnic.Ranking {
	t.Helper()
	r, err := apnic.NewRanking([]apnic.Estimate{
		{ASN: 1, CC: "JP", Users: 10_000_000},
		{ASN: 2, CC: "US", Users: 9_000_000},
		{ASN: 3, CC: "JP", Users: 8_000_000},
		{ASN: 4, CC: "DE", Users: 7_000_000},
		{ASN: 5, CC: "US", Users: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSurveyCounts(t *testing.T) {
	s := mkSurvey("2019-09", map[bgp.ASN]Class{
		1: Severe, 2: Mild, 3: None, 4: Low, 5: None,
	})
	if s.Len() != 5 {
		t.Fatalf("len = %d", s.Len())
	}
	counts := s.CountByClass()
	if counts[None] != 2 || counts[Severe] != 1 || counts[Mild] != 1 || counts[Low] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	reported := s.ReportedASes()
	if len(reported) != 3 {
		t.Fatalf("reported = %v", reported)
	}
	// Sorted ascending.
	for i := 1; i < len(reported); i++ {
		if reported[i-1] >= reported[i] {
			t.Fatalf("not sorted: %v", reported)
		}
	}
	if got := s.ASNs(); len(got) != 5 || got[0] != 1 {
		t.Fatalf("asns = %v", got)
	}
}

func TestSurveyAddReplaces(t *testing.T) {
	s := NewSurvey("p")
	s.Add(&ASResult{ASN: 1, Classification: Classification{Class: None}})
	s.Add(&ASResult{ASN: 1, Classification: Classification{Class: Severe}})
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Results[1].Class != Severe {
		t.Fatal("second add should replace")
	}
}

func TestBreakdownByBucket(t *testing.T) {
	s := mkSurvey("2019-09", map[bgp.ASN]Class{
		1: Severe, // rank 1  -> bucket 1-10
		2: None,   // rank 2  -> bucket 1-10
		3: Mild,   // rank 3  -> bucket 1-10
		4: None,   // rank 4  -> bucket 1-10
		9: Low,    // unranked -> bucket >10k
	})
	bb := BreakdownByBucket(s, testRanking(t))
	if bb.Totals[apnic.Bucket1to10] != 4 {
		t.Fatalf("bucket 1-10 total = %d", bb.Totals[apnic.Bucket1to10])
	}
	if bb.Counts[apnic.Bucket1to10][Severe] != 1 || bb.Counts[apnic.Bucket1to10][Mild] != 1 {
		t.Fatalf("bucket counts = %v", bb.Counts[apnic.Bucket1to10])
	}
	if bb.Totals[apnic.BucketOver10k] != 1 || bb.Counts[apnic.BucketOver10k][Low] != 1 {
		t.Fatal("unranked AS should land in the >10k bucket")
	}
	if p := bb.Percent(apnic.Bucket1to10, Severe); p != 25 {
		t.Fatalf("percent = %v", p)
	}
	if p := bb.Percent(apnic.Bucket101to1k, Severe); p != 0 {
		t.Fatalf("empty bucket percent = %v", p)
	}
}

func TestBreakdownByCountry(t *testing.T) {
	s1 := mkSurvey("a", map[bgp.ASN]Class{1: Severe, 2: Mild, 3: None, 4: None})
	s2 := mkSurvey("b", map[bgp.ASN]Class{1: Severe, 2: None, 3: Severe, 4: Low})
	gb := BreakdownByCountry([]*Survey{s1, s2}, testRanking(t))
	// JP severe reports: AS1 twice + AS3 once = 3; US: 0; total severe = 3.
	if gb.Severe["JP"] != 3 {
		t.Fatalf("JP severe = %d", gb.Severe["JP"])
	}
	if got := gb.SevereShare("JP"); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("JP severe share = %v", got)
	}
	if gb.Monitored["JP"] != 4 { // AS1+AS3 in two surveys
		t.Fatalf("JP monitored = %d", gb.Monitored["JP"])
	}
	reported, severe := gb.CountriesWithReports()
	// Reported countries: JP (AS1, AS3), US (AS2 in s1), DE (AS4 in s2).
	if reported != 3 {
		t.Fatalf("reported countries = %d", reported)
	}
	if severe != 1 {
		t.Fatalf("severe countries = %d", severe)
	}
}

func TestBreakdownUnknownCountry(t *testing.T) {
	s := mkSurvey("a", map[bgp.ASN]Class{42: Severe})
	gb := BreakdownByCountry([]*Survey{s}, testRanking(t))
	if gb.Severe["??"] != 1 {
		t.Fatalf("unknown country severe = %v", gb.Severe)
	}
}

func TestSevereShareNoSevere(t *testing.T) {
	s := mkSurvey("a", map[bgp.ASN]Class{1: None})
	gb := BreakdownByCountry([]*Survey{s}, testRanking(t))
	if gb.SevereShare("JP") != 0 {
		t.Fatal("no severe reports: share must be 0")
	}
}

func TestChurn(t *testing.T) {
	s1 := mkSurvey("a", map[bgp.ASN]Class{1: Severe, 2: Mild, 3: None})
	s2 := mkSurvey("b", map[bgp.ASN]Class{1: Low, 2: None, 3: None})
	s3 := mkSurvey("c", map[bgp.ASN]Class{1: Mild, 2: None, 3: Low})
	surveys := []*Survey{s1, s2, s3}
	churn := Churn(surveys)
	if churn[1] != 3 || churn[2] != 1 || churn[3] != 1 {
		t.Fatalf("churn = %v", churn)
	}
	if got := ReportedAtLeast(surveys, 2); got != 1 {
		t.Fatalf("reported >= 2 periods: %d, want 1 (AS1)", got)
	}
	if got := ReportedAtLeast(surveys, 1); got != 3 {
		t.Fatalf("reported >= 1: %d", got)
	}
}
