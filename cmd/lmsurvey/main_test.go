package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

var t0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

// testProbe is one probe of the test campaign; a negative bump means
// its traceroutes never reach a public hop.
type testProbe struct {
	id   int
	asn  lastmile.ASN
	from string
	bump float64
}

// testProbes spans a congested AS, a flat AS and an AS with no usable
// data, so the report holds classified rows and a skipped row.
var testProbes = []testProbe{
	{1, 64500, "198.51.100.1", 5},
	{2, 64500, "198.51.100.2", 5},
	{3, 64501, "203.0.113.1", 0},
	{4, 64501, "203.0.113.2", 0},
	{5, 64502, "192.0.2.1", -1},
}

// campaign is one 8-day campaign written as a wire archive (AS in-band),
// as Atlas JSONL, and as the probe metadata that attributes the JSONL.
type campaign struct{ wire, jsonl, probes string }

func trace(p testProbe, ts time.Time, delta float64) *lastmile.Result {
	r := &lastmile.Result{
		ProbeID: p.id, MsmID: 5010, Timestamp: ts, AF: 4, Proto: "ICMP",
		SrcAddr:  netip.MustParseAddr("192.168.1.10"),
		FromAddr: netip.MustParseAddr(p.from),
		DstAddr:  netip.MustParseAddr("193.0.14.129"),
	}
	priv, pub := lastmile.HopResult{Hop: 1}, lastmile.HopResult{Hop: 2}
	for i := 0; i < 3; i++ {
		priv.Replies = append(priv.Replies, lastmile.Reply{From: netip.MustParseAddr("192.168.1.1"), RTT: 0.5, TTL: 64})
		pub.Replies = append(pub.Replies, lastmile.Reply{From: netip.MustParseAddr("203.0.113.254"), RTT: 0.5 + delta, TTL: 254})
	}
	r.Hops = []lastmile.HopResult{priv}
	if p.bump >= 0 {
		r.Hops = append(r.Hops, pub)
	}
	return r
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeProbes(t *testing.T, path string, anchors bool) {
	t.Helper()
	infos := make([]lastmile.ProbeInfo, len(testProbes))
	for i, p := range testProbes {
		infos[i] = lastmile.ProbeInfo{ID: p.id, ASNv4: p.asn, CountryCode: "JP", IsAnchor: anchors}
	}
	data, err := json.Marshal(infos)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, data)
}

func writeCampaign(t *testing.T) campaign {
	t.Helper()
	dir := t.TempDir()
	c := campaign{
		wire:   filepath.Join(dir, "campaign.wire"),
		jsonl:  filepath.Join(dir, "campaign.jsonl"),
		probes: filepath.Join(dir, "probes.json"),
	}
	var wireBuf, jsonBuf bytes.Buffer
	ww, jw := lastmile.NewBinaryResultWriter(&wireBuf), lastmile.NewResultWriter(&jsonBuf)
	for ts := t0; ts.Before(t0.AddDate(0, 0, 8)); ts = ts.Add(10 * time.Minute) {
		for _, p := range testProbes {
			delta := 2.0
			if h := ts.Hour(); h >= 18 && h < 23 && p.bump > 0 {
				delta += p.bump
			}
			r := trace(p, ts, delta)
			if err := ww.WriteResult(p.asn, r); err != nil {
				t.Fatal(err)
			}
			if err := jw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, c.wire, wireBuf.Bytes())
	writeFile(t, c.jsonl, jsonBuf.Bytes())
	writeProbes(t, c.probes, false)
	return c
}

func runReport(in, rib, probes string, workers int) (string, error) {
	var out bytes.Buffer
	err := run(&out, in, rib, probes, "", "", workers)
	return out.String(), err
}

// rows maps each report row's AS label to its remaining fields.
func rows(out string) map[string][]string {
	m := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && strings.HasPrefix(f[0], "AS") && f[0] != "AS" {
			m[f[0]] = f[1:]
		}
	}
	return m
}

// TestRunReportIdentical: the wire archive and the JSONL archive
// attributed by -probes print byte-identical reports at every worker
// count.
func TestRunReportIdentical(t *testing.T) {
	c := writeCampaign(t)
	want, err := runReport(c.wire, "", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows(want)
	if len(r) != 3 || r["AS64500"][1] == "None" || r["AS64501"][1] != "None" || !strings.Contains(want, "(no usable data)") {
		t.Fatalf("campaign does not discriminate:\n%s", want)
	}
	for _, workers := range []int{1, 8} {
		for _, enc := range []struct{ name, in, probes string }{{"wire", c.wire, ""}, {"json", c.jsonl, c.probes}} {
			got, err := runReport(enc.in, "", enc.probes, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", enc.name, workers, err)
			}
			if got != want {
				t.Fatalf("%s workers=%d: report differs\ngot:\n%s\nwant:\n%s", enc.name, workers, got, want)
			}
		}
	}
}

// TestRunTruncatedWireArchive: a truncated wire archive returns its
// located CorruptError and prints nothing.
func TestRunTruncatedWireArchive(t *testing.T) {
	c := writeCampaign(t)
	data, err := os.ReadFile(c.wire)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "truncated.wire")
	writeFile(t, path, data[:len(data)-1])
	out, err := runReport(path, "", "", 1)
	var ce *wire.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *wire.CorruptError", err)
	}
	if out != "" {
		t.Fatalf("printed output for a corrupt archive:\n%s", out)
	}
}

// TestRunAnchorsOnly: an input whose every probe is an anchor is an
// error, not an empty report.
func TestRunAnchorsOnly(t *testing.T) {
	c := writeCampaign(t)
	anchors := filepath.Join(t.TempDir(), "anchors.json")
	writeProbes(t, anchors, true)
	out, err := runReport(c.jsonl, "", anchors, 1)
	if err == nil || out != "" {
		t.Fatalf("err = %v, output %q; want an error and no output", err, out)
	}
}

// TestRunRIBMissFallsThroughToInBand: with -rib on a wire archive, a
// probe the RIB covers takes the RIB's origin and a probe it misses
// keeps the archive's in-band AS instead of landing in AS0.
func TestRunRIBMissFallsThroughToInBand(t *testing.T) {
	c := writeCampaign(t)
	rib := filepath.Join(t.TempDir(), "rib.txt")
	writeFile(t, rib, []byte("198.51.100.1/32 64999\n"))
	out, err := runReport(c.wire, rib, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows(out)
	if _, ok := r["AS0"]; ok {
		t.Fatalf("RIB misses grouped under AS0:\n%s", out)
	}
	for asn, probes := range map[string]string{"AS64999": "1", "AS64500": "1", "AS64501": "2"} {
		if got := r[asn]; len(got) == 0 || got[0] != probes {
			t.Fatalf("%s row = %v, want %s probe(s):\n%s", asn, got, probes, out)
		}
	}
}
