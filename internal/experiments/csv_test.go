package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/core"
)

// TestWriteCSVFullDisk pins that a figure export onto a full disk fails:
// the figure's CSV file is a symlink to /dev/full, where every write
// returns ENOSPC, so WriteCSV must return that error rather than nil.
func TestWriteCSVFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, tc := range []struct {
		file string
		w    interface{ WriteCSV(string) error }
	}{
		{"fig4_breakdown.csv", &Fig4Result{
			Sep2019: &core.BucketBreakdown{Period: "2019-09"},
			Apr2020: &core.BucketBreakdown{Period: "2020-04"},
		}},
		{"fig3_amps_p.csv", &Fig3Result{
			Periods:   []string{"p"},
			PeakFreqs: [][]float64{{1}},
			DailyAmps: [][]float64{{2}},
		}},
	} {
		dir := t.TempDir()
		if err := os.Symlink("/dev/full", filepath.Join(dir, tc.file)); err != nil {
			t.Fatal(err)
		}
		if err := tc.w.WriteCSV(dir); !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("%s on a full disk: WriteCSV = %v, want ENOSPC", tc.file, err)
		}
	}
}
