package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("period", "probes", "amp")
	tb.AddRow("2019-09", "324", "0.41")
	tb.AddRowf("2020-04", 345, 1.19)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[0], "period") || !strings.Contains(lines[0], "amp") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "345") || !strings.Contains(lines[3], "1.19") {
		t.Fatalf("row = %q", lines[3])
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("x")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x") {
		t.Fatal("missing cell")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	start := time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	s, _ := timeseries.NewSeries(start, 30*time.Minute, 3)
	s.Values[0] = 1.5
	s.Values[2] = 2.25
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "delay_ms", s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "time,delay_ms" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",1.5000") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",") {
		t.Fatalf("NaN row = %q, want empty value", lines[2])
	}
	if !strings.HasPrefix(lines[1], "2019-09-19T00:00:00Z") {
		t.Fatalf("timestamp = %q", lines[1])
	}
}

func TestSparkline(t *testing.T) {
	out := Sparkline([]float64{0, 0.5, 1}, 1)
	runes := []rune(out)
	if len(runes) != 3 {
		t.Fatalf("runes = %d", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("sparkline = %q", out)
	}
	withNaN := Sparkline([]float64{math.NaN(), 1}, 1)
	if []rune(withNaN)[0] != ' ' {
		t.Fatalf("NaN glyph = %q", withNaN)
	}
	if got := Sparkline([]float64{0, 0}, 0); []rune(got)[0] != '▁' {
		t.Fatalf("all-zero sparkline = %q", got)
	}
}

func TestDownsample(t *testing.T) {
	vals := []float64{1, 1, 3, 3, 5, 5}
	out := Downsample(vals, 3)
	want := []float64{1, 3, 5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
	// Shorter input passes through (as a copy).
	same := Downsample(vals, 10)
	if len(same) != 6 {
		t.Fatalf("len = %d", len(same))
	}
	same[0] = 99
	if vals[0] != 1 {
		t.Fatal("Downsample aliased input")
	}
	// NaN blocks stay NaN.
	nan := Downsample([]float64{math.NaN(), math.NaN(), 2, 2}, 2)
	if !math.IsNaN(nan[0]) || nan[1] != 2 {
		t.Fatalf("nan downsample = %v", nan)
	}
}
