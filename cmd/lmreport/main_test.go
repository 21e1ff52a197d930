package main

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestRunReportIdenticalAcrossGOMAXPROCS pins that the report does not
// depend on the fan-out width: for one AS of a 77-AS world (the smallest
// scenario.Build accepts), run writes the same bytes at GOMAXPROCS 1,
// the serial run, and at GOMAXPROCS 4.
func TestRunReportIdenticalAcrossGOMAXPROCS(t *testing.T) {
	report := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf bytes.Buffer
		if err := run(&buf, 64501, "2019-09", 2020, 77); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return buf.String()
	}
	serial, wide := report(1), report(4)
	if serial != wide {
		t.Fatalf("report differs between GOMAXPROCS 1 and 4:\n%s\n---\n%s", serial, wide)
	}
	for _, want := range []string{
		"Last-mile congestion report — AS64501-JP-severe, period 2019-09",
		"contributing probes                 18",
		"classification                      Severe",
		"Aggregated queuing delay (",
		"Periodogram (DC..Nyquist, peak-to-peak ms):",
	} {
		if !strings.Contains(serial, want) {
			t.Errorf("report lacks %q:\n%s", want, serial)
		}
	}
}

func TestRunRejectsUnknownASAndPeriod(t *testing.T) {
	for _, c := range []struct {
		asn    uint64
		period string
		want   string
	}{
		{64577, "2019-09", "AS64577 is not in the world (range: 64500..64576)"},
		{64500, "2019-10", `unknown period "2019-10"`},
	} {
		err := run(io.Discard, c.asn, c.period, 2020, 77)
		if err == nil || err.Error() != c.want {
			t.Errorf("run(AS%d, %s) = %v, want %q", c.asn, c.period, err, c.want)
		}
	}
}
