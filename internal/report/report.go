// Package report renders pipeline results for terminals and files: aligned
// text tables, CSV series dumps, and compact ASCII charts of delay and
// throughput signals. Every figure the experiments package reproduces is
// ultimately emitted through these helpers.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted cells, one format per cell value.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(row...)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteSeriesCSV writes a time series as "time,value" rows (RFC 3339
// timestamps, NaN bins as empty values) — the format the paper's public
// result server uses for its plots.
func WriteSeriesCSV(w io.Writer, name string, s *timeseries.Series) error {
	if _, err := fmt.Fprintf(w, "time,%s\n", name); err != nil {
		return err
	}
	for i, v := range s.Values {
		val := ""
		if !math.IsNaN(v) {
			val = fmt.Sprintf("%.4f", v)
		}
		if _, err := fmt.Fprintf(w, "%s,%s\n", s.TimeAt(i).Format(time.RFC3339), val); err != nil {
			return err
		}
	}
	return nil
}

// sparkLevels are the glyphs used by Sparkline, lowest to highest.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a one-line unicode chart. NaN values render
// as spaces. The scale runs from 0 to max(values) unless maxVal > 0 is
// given.
func Sparkline(values []float64, maxVal float64) string {
	if maxVal <= 0 {
		for _, v := range values {
			if !math.IsNaN(v) && v > maxVal {
				maxVal = v
			}
		}
	}
	var sb strings.Builder
	for _, v := range values {
		switch {
		case math.IsNaN(v):
			sb.WriteRune(' ')
		case maxVal <= 0:
			sb.WriteRune(sparkLevels[0])
		default:
			idx := int(v / maxVal * float64(len(sparkLevels)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkLevels) {
				idx = len(sparkLevels) - 1
			}
			sb.WriteRune(sparkLevels[idx])
		}
	}
	return sb.String()
}

// Downsample reduces values to at most n points by block averaging,
// skipping NaNs; blocks that are entirely NaN stay NaN.
func Downsample(values []float64, n int) []float64 {
	if n <= 0 || len(values) <= n {
		out := make([]float64, len(values))
		copy(out, values)
		return out
	}
	out := make([]float64, n)
	block := float64(len(values)) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * block)
		hi := int(float64(i+1) * block)
		if hi > len(values) {
			hi = len(values)
		}
		sum, cnt := 0.0, 0
		for _, v := range values[lo:hi] {
			if !math.IsNaN(v) {
				sum += v
				cnt++
			}
		}
		if cnt == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sum / float64(cnt)
		}
	}
	return out
}
