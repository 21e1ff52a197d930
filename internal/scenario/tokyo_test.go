package scenario

import (
	"math"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	"github.com/last-mile-congestion/lastmile/internal/stats"
)

// medianOf returns the median of the non-NaN values (test helper).
func medianOf(vals []float64) float64 {
	return stats.MedianIgnoringNaN(vals)
}

// newTestEngine builds an Atlas engine for scenario tests.
func newTestEngine(seed uint64) *atlas.Engine {
	return atlas.NewEngine(seed)
}

func buildTokyo(t *testing.T) *Tokyo {
	t.Helper()
	tk, err := BuildTokyo(42, 200)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestTokyoShape(t *testing.T) {
	tk := buildTokyo(t)
	if len(tk.ISPA.Probes) != 8 || len(tk.ISPB.Probes) != 5 || len(tk.ISPC.Probes) != 8 {
		t.Fatalf("probe counts = %d/%d/%d, want 8/5/8 (§4)",
			len(tk.ISPA.Probes), len(tk.ISPB.Probes), len(tk.ISPC.Probes))
	}
	if len(tk.ISPD.Probes) != 6 {
		t.Fatalf("ISP_D probes = %d, want 6", len(tk.ISPD.Probes))
	}
	if tk.ISPDAnchor == nil || !tk.ISPDAnchor.IsAnchor {
		t.Fatal("missing anchor")
	}
	// ISP_A mobile is a different AS; ISP_B/C mobile share the broadband
	// AS.
	if tk.ISPAMobile.Network.ASN == tk.ISPA.Network.ASN {
		t.Fatal("ISP_A mobile must be a separate AS (§4.2)")
	}
	if tk.ISPBMobile.Network.ASN != tk.ISPB.Network.ASN {
		t.Fatal("ISP_B mobile shares the broadband AS")
	}
	if tk.MobilePrefixes.Len() != 6 {
		t.Fatalf("mobile prefixes = %d, want 3 v4 + 3 v6", tk.MobilePrefixes.Len())
	}
	// Mobile prefixes cover mobile clients but not broadband ones.
	if !tk.MobilePrefixes.Contains(tk.ISPAMobile.Network.Prefix.Addr().Next()) {
		t.Fatal("mobile prefix not covered")
	}
	if tk.MobilePrefixes.Contains(tk.ISPA.Network.Prefix.Addr().Next()) {
		t.Fatal("broadband prefix wrongly covered by mobile set")
	}
}

func TestTokyoProbesInGreaterTokyo(t *testing.T) {
	tk := buildTokyo(t)
	valid := map[string]bool{"Tokyo": true, "Yokohama": true, "Chiba": true, "Saitama": true}
	for _, p := range tk.ISPA.Probes {
		if !valid[p.City] {
			t.Fatalf("probe city %q outside Greater Tokyo", p.City)
		}
		if p.CC != "JP" {
			t.Fatal("probe not in JP")
		}
	}
}

// tokyoSignal aggregates one Tokyo ISP's probes over the case-study week.
func tokyoSignal(t *testing.T, tk *Tokyo, ti *TokyoISP) []float64 {
	t.Helper()
	res, err := SimulatePopulationDelay(ti.Probes, TokyoPeriod(), 6, tk.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return res.Signal.Values
}

func TestTokyoDelayContrast(t *testing.T) {
	// §4.1: ISP_A and ISP_B show clear peak-hour delay; ISP_C stays an
	// order of magnitude lower.
	tk := buildTokyo(t)
	maxOf := func(vals []float64) float64 {
		m := 0.0
		for _, v := range vals {
			if !math.IsNaN(v) && v > m {
				m = v
			}
		}
		return m
	}
	aMax := maxOf(tokyoSignal(t, tk, tk.ISPA))
	bMax := maxOf(tokyoSignal(t, tk, tk.ISPB))
	cMax := maxOf(tokyoSignal(t, tk, tk.ISPC))
	if aMax < 2 || bMax < 1.5 {
		t.Fatalf("legacy ISPs not congested: A=%.2f B=%.2f", aMax, bMax)
	}
	if cMax > aMax/5 {
		t.Fatalf("ISP_C max %.2f not an order below ISP_A %.2f", cMax, aMax)
	}
}

func TestTokyoAnchorVsProbes(t *testing.T) {
	// Appendix B: ISP_D probes congested, anchor flat.
	tk := buildTokyo(t)
	p := TokyoPeriod()
	probeVals := tokyoSignal(t, tk, tk.ISPD)
	anchor := engine.New(engine.Options{})
	if err := SimulateProbeDelay(anchor, tk.ISPDAnchor, p, 6, tk.Seed); err != nil {
		t.Fatal(err)
	}
	anchorQDs, err := anchor.ProbeDelays(tk.ISPDAnchor.ASN, p.Start, p.Bins())
	if err != nil {
		t.Fatal(err)
	}
	anchorQD := anchorQDs[0]
	probeMax, anchorMax := 0.0, 0.0
	for _, v := range probeVals {
		if !math.IsNaN(v) && v > probeMax {
			probeMax = v
		}
	}
	for _, v := range anchorQD.Values {
		if !math.IsNaN(v) && v > anchorMax {
			anchorMax = v
		}
	}
	if probeMax < 1.5 {
		t.Fatalf("ISP_D probes max delay %.2f, want congestion", probeMax)
	}
	if anchorMax > 1 {
		t.Fatalf("anchor max delay %.2f, want flat", anchorMax)
	}
}

func TestTokyoDeterministic(t *testing.T) {
	a := buildTokyo(t)
	b := buildTokyo(t)
	for i := range a.ISPA.Probes {
		if a.ISPA.Probes[i].PublicAddr != b.ISPA.Probes[i].PublicAddr {
			t.Fatal("Tokyo world not deterministic")
		}
	}
	if a.ISPA.Devices.V4[0].PeakUtilization != b.ISPA.Devices.V4[0].PeakUtilization {
		t.Fatal("devices not deterministic")
	}
}

func TestTokyoRIB(t *testing.T) {
	tk := buildTokyo(t)
	asn, err := tk.RIB.OriginOf(tk.ISPA.Probes[0].PublicAddr)
	if err != nil || asn != ASNTokyoA {
		t.Fatalf("RIB lookup = %v, %v", asn, err)
	}
	asn, err = tk.RIB.OriginOf(tk.ISPBMobile.Network.Prefix.Addr().Next())
	if err != nil || asn != ASNTokyoB {
		t.Fatalf("mobile prefix lookup = %v, %v", asn, err)
	}
}

func TestTokyoDefaultClients(t *testing.T) {
	tk, err := BuildTokyo(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tk.ISPA.CDNClients != 2000 {
		t.Fatalf("default clients = %d", tk.ISPA.CDNClients)
	}
}
