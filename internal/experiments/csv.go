package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/last-mile-congestion/lastmile/internal/apnic"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// CSV export: every figure result can dump the series behind it as CSV,
// so the plots can be regenerated with external tooling — the interface
// the paper's public results server exposes.

// csvFile creates dir/name.csv.
func csvFile(dir, name string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(dir, name+".csv"))
}

// writeCSV creates dir/name.csv and has fill write its rows through a
// buffered writer. It returns the first write error, which the buffered
// writer keeps and reports at Flush, else the close error — so fill can
// ignore the errors of its individual writes and a full disk still fails
// the export.
func writeCSV(dir, name string, fill func(w io.Writer)) (err error) {
	f, err := csvFile(dir, name)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	bw := bufio.NewWriter(f)
	fill(bw)
	return bw.Flush()
}

// writeSeries dumps one series under the given file name.
func writeSeries(dir, name, column string, s *timeseries.Series) error {
	return writeCSV(dir, name, func(w io.Writer) {
		_ = report.WriteSeriesCSV(w, column, s) // its only errors are w's, which writeCSV returns
	})
}

// safe turns a label into a file-name fragment.
func safe(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, label)
}

// WriteCSV dumps the Fig. 1 aggregated delay signals, one file per ISP
// and period.
func (r *Fig1Result) WriteCSV(dir string) error {
	for _, group := range []struct {
		name     string
		profiles []PeriodProfile
	}{{"ISP_DE", r.DE}, {"ISP_US", r.US}} {
		for _, p := range group.profiles {
			name := fmt.Sprintf("fig1_%s_%s", group.name, safe(p.Period))
			if err := writeSeries(dir, name, "agg_queuing_delay_ms", p.Signal); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV dumps the Fig. 2 periodograms as frequency/amplitude rows.
func (r *Fig2Result) WriteCSV(dir string) error {
	write := func(name string, views []PeriodogramView) error {
		for _, v := range views {
			err := writeCSV(dir, fmt.Sprintf("fig2_%s_%s", name, safe(v.Period)), func(w io.Writer) {
				fmt.Fprintln(w, "freq_cph,p2p_ms")
				for i := range v.Freqs {
					fmt.Fprintf(w, "%.6f,%.6f\n", v.Freqs[i], v.P2P[i])
				}
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("ISP_DE", r.DE); err != nil {
		return err
	}
	return write("ISP_US", r.US)
}

// WriteCSV dumps the Fig. 3 distributions: per period, sorted prominent
// frequencies and daily amplitudes (CDF x-values).
func (r *Fig3Result) WriteCSV(dir string) error {
	column := func(header string, values []float64) func(w io.Writer) {
		return func(w io.Writer) {
			fmt.Fprintln(w, header)
			for _, v := range values {
				fmt.Fprintf(w, "%.6f\n", v)
			}
		}
	}
	for i, period := range r.Periods {
		if err := writeCSV(dir, "fig3_freqs_"+safe(period), column("peak_freq_cph", r.PeakFreqs[i])); err != nil {
			return err
		}
		if err := writeCSV(dir, "fig3_amps_"+safe(period), column("daily_amp_ms", r.DailyAmps[i])); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV dumps the Fig. 4 bucket breakdown.
func (r *Fig4Result) WriteCSV(dir string) error {
	return writeCSV(dir, "fig4_breakdown", func(w io.Writer) {
		fmt.Fprintln(w, "period,bucket,ases,severe_pct,mild_pct,low_pct,none_pct")
		for _, bb := range []*core.BucketBreakdown{r.Sep2019, r.Apr2020} {
			for b := apnic.Bucket1to10; b < apnic.NumBuckets; b++ {
				fmt.Fprintf(w, "%s,%s,%d,%.2f,%.2f,%.2f,%.2f\n",
					bb.Period, b, bb.Totals[b],
					bb.Percent(b, core.Severe), bb.Percent(b, core.Mild),
					bb.Percent(b, core.Low), bb.Percent(b, core.None))
			}
		}
	})
}

// WriteCSV dumps the Fig. 5 delay series, one file per ISP.
func (r *Fig5Result) WriteCSV(dir string) error {
	for _, row := range []struct {
		name string
		s    *timeseries.Series
	}{{"ISP_A", r.DelayA}, {"ISP_B", r.DelayB}, {"ISP_C", r.DelayC}} {
		if err := writeSeries(dir, "fig5_"+row.name, "agg_queuing_delay_ms", row.s); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV dumps the Fig. 6 throughput series, one file per service arm.
func (r *Fig6Result) WriteCSV(dir string) error {
	for name, s := range r.Broadband {
		if err := writeSeries(dir, "fig6_"+safe(name)+"_broadband", "median_throughput_mbps", s); err != nil {
			return err
		}
	}
	for name, s := range r.Mobile {
		if err := writeSeries(dir, "fig6_"+safe(name)+"_mobile", "median_throughput_mbps", s); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV dumps the Fig. 7 scatter points.
func (r *Fig7Result) WriteCSV(dir string) error {
	for _, row := range []struct {
		name   string
		points [][2]float64
	}{{"ISP_A", r.PointsA}, {"ISP_C", r.PointsC}} {
		err := writeCSV(dir, "fig7_"+row.name, func(w io.Writer) {
			fmt.Fprintln(w, "agg_queuing_delay_ms,median_throughput_mbps")
			for _, p := range row.points {
				fmt.Fprintf(w, "%.4f,%.4f\n", p[0], p[1])
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV dumps the Fig. 8 weekly folds.
func (r *Fig8Result) WriteCSV(dir string) error {
	for i, period := range r.Periods {
		err := writeCSV(dir, "fig8_"+safe(period), func(w io.Writer) {
			fmt.Fprintln(w, "week_slot,probes_delay_ms,anchor_delay_ms")
			for slot := range r.ProbeWeekly[i] {
				fmt.Fprintf(w, "%d,%.4f,%.4f\n", slot, r.ProbeWeekly[i][slot], r.AnchorWeekly[i][slot])
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV dumps the Fig. 9 per-family throughput series.
func (r *Fig9Result) WriteCSV(dir string) error {
	for name, s := range r.V4 {
		if err := writeSeries(dir, "fig9_"+safe(name)+"_ipv4", "median_throughput_mbps", s); err != nil {
			return err
		}
	}
	for name, s := range r.V6 {
		if err := writeSeries(dir, "fig9_"+safe(name)+"_ipv6", "median_throughput_mbps", s); err != nil {
			return err
		}
	}
	return nil
}
