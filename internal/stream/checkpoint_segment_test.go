package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
)

// monitorBytes returns m's full Snapshot.
func monitorBytes(t *testing.T, m *Monitor) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// fileBytes reads the state file.
func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openExpect opens the state file and asserts it resumes, warning or
// not as given, to a monitor whose Snapshot bytes are want.
func openExpect(t *testing.T, path string, want []byte, warn bool, label string) {
	t.Helper()
	res, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	if !res.Resumed || (res.Warning != nil) != warn {
		t.Fatalf("%s: resumed %v, warning %v; want resumed, warning %v", label, res.Resumed, res.Warning, warn)
	}
	if got := monitorBytes(t, res.Monitor); !bytes.Equal(got, want) {
		t.Fatalf("%s: restored snapshot (%d bytes) differs from the checkpointed one (%d bytes)", label, len(got), len(want))
	}
}

// TestCheckpointSegmentsRestoreEveryCheckpoint drives a Checkpointer
// through four days of a one-day window: bases, a segment per bin
// boundary, evictions, compaction into fresh bases, and a late record
// that re-creates a bin the sweep had just evicted. After every
// checkpoint, base or segment, the state file must restore to a monitor
// whose full Snapshot bytes equal the live monitor's, and the byte
// counters must add up to what was written. It runs at GOMAXPROCS 2,
// so the engine has two stripes, each with its own sweep mark.
func TestCheckpointSegmentsRestoreEveryCheckpoint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	reg := telemetry.NewRegistry()
	m := NewMonitor(Options{Window: 24 * time.Hour, Metrics: reg})
	path := filepath.Join(t.TempDir(), "state.lmw")
	c := NewCheckpointer(m, path)
	var checkpoints, bases, recreated int
	end := t0.AddDate(0, 0, 4)
	// Off the bin grid, so each bin's first record sweeps with a horizon
	// inside a bin, and a late record can land in the bin just swept.
	for ts := t0.Add(5 * time.Minute); ts.Before(end); ts = ts.Add(10 * time.Minute) {
		before := m.Stats()
		for asn := bgp.ASN(64500); asn < 64502; asn++ {
			for p := 1; p <= 3; p++ {
				if err := m.Observe(asn, mkTrace(p, ts, float64(ts.Hour()%5+p))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if recreated == 0 && ts.After(t0.AddDate(0, 0, 2)) && m.Stats().EvictedBins > before.EvictedBins {
			// The sweep just evicted the bin holding the horizon; a
			// record at the horizon re-creates it.
			late := ts.Add(-25*time.Hour + time.Minute)
			bins := m.Stats().Bins
			if err := m.Observe(64500, mkTrace(2, late, 1)); err != nil {
				t.Fatal(err)
			}
			if st := m.Stats(); st.Bins != bins+1 || st.Dropped != 0 {
				t.Fatalf("late record at the horizon did not re-create its bin: %+v", st)
			}
			recreated++
		}
		wrote, err := c.MaybeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !wrote {
			continue
		}
		checkpoints++
		if c.segs == 0 {
			bases++
		}
		openExpect(t, path, monitorBytes(t, m), false, "checkpoint")
	}
	baseBytes := reg.Counter(`stream_checkpoint_bytes_total{kind="base"}`).Value()
	segBytes := reg.Counter(`stream_checkpoint_bytes_total{kind="segment"}`).Value()
	if size := int64(len(fileBytes(t, path))); size != c.base+c.segs || segBytes < c.segs || baseBytes < c.base {
		t.Fatalf("file of %d bytes, checkpointer counts base %d + segments %d, counters base %d segment %d",
			size, c.base, c.segs, baseBytes, segBytes)
	}
	if st := m.Stats(); checkpoints < 150 || bases < 3 || recreated != 1 || st.EvictedBins == 0 {
		t.Fatalf("%d checkpoints, %d bases, %d re-created bins, %d evictions: want every case exercised",
			checkpoints, bases, recreated, st.EvictedBins)
	}
	// The drain's Checkpoint is a fresh base, byte-identical to Snapshot.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileBytes(t, path), monitorBytes(t, m)) {
		t.Fatal("Checkpoint wrote something other than the monitor's Snapshot")
	}
	if errs := reg.Counter("stream_checkpoint_errors_total").Value(); errs != 0 {
		t.Fatalf("%d checkpoint errors", errs)
	}
}

// TestCheckpointSegmentSmallOnceWindowFull fills a 7-day window, writes
// a base, then feeds one more bin: the segment that bin appends must be
// under 2% of the base.
func TestCheckpointSegmentSmallOnceWindowFull(t *testing.T) {
	m := NewMonitor(Options{Window: 7 * 24 * time.Hour})
	path := filepath.Join(t.TempDir(), "state.lmw")
	c := NewCheckpointer(m, path)
	for asn := bgp.ASN(64500); asn < 64504; asn++ {
		feedDiurnal(t, m, asn, 4, 8, 3)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := int64(len(fileBytes(t, path)))
	next := t0.AddDate(0, 0, 8)
	for i := 0; i < 3; i++ {
		for asn := bgp.ASN(64500); asn < 64504; asn++ {
			for p := 1; p <= 4; p++ {
				if err := m.Observe(asn, mkTrace(p, next.Add(time.Duration(i)*10*time.Minute), 2)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if wrote, err := c.MaybeCheckpoint(); err != nil || !wrote || c.segs == 0 {
		t.Fatalf("MaybeCheckpoint = %v, %v (segment bytes %d), want a segment", wrote, err, c.segs)
	}
	if seg := int64(len(fileBytes(t, path))) - base; seg*50 >= base {
		t.Fatalf("segment of %d bytes is not under 2%% of the %d-byte base", seg, base)
	}
	openExpect(t, path, monitorBytes(t, m), false, "segment")
}

// segmentedFixture checkpoints a small monitor whose one-hour window
// evicts: a base, then three segments. It returns the state file's
// bytes, the file length at the end of each checkpoint, and the
// monitor's Snapshot at each checkpoint.
func segmentedFixture(t *testing.T) (data []byte, ends []int, states [][]byte) {
	t.Helper()
	m := NewMonitor(Options{Window: time.Hour, MaxLateness: 30 * time.Minute})
	path := filepath.Join(t.TempDir(), "state.lmw")
	c := NewCheckpointer(m, path)
	for ts := t0; ts.Before(t0.Add(3*time.Hour + 15*time.Minute)); ts = ts.Add(15 * time.Minute) {
		for p := 1; p <= 2; p++ {
			if err := m.Observe(64500, mkTrace(p, ts, float64(p))); err != nil {
				t.Fatal(err)
			}
		}
		if ts.Before(t0.Add(90 * time.Minute)) {
			continue // the base holds the first hour and a half
		}
		if wrote, err := c.MaybeCheckpoint(); err != nil {
			t.Fatal(err)
		} else if wrote {
			if len(ends) > 0 && c.segs == 0 {
				t.Fatal("fixture compacted into a second base")
			}
			ends = append(ends, len(fileBytes(t, path)))
			states = append(states, monitorBytes(t, m))
		}
	}
	if len(ends) != 4 || m.Stats().EvictedBins == 0 {
		t.Fatalf("fixture holds %d checkpoints, %d evictions; want a base, three segments and evictions",
			len(ends), m.Stats().EvictedBins)
	}
	return fileBytes(t, path), ends, states
}

// TestOpenCheckpointSegmentCorruptionMatrix runs Open over every
// truncation and every single-byte bit flip of a state file holding a
// base and three segments. A truncation after the base must restore
// exactly the last checkpoint whose commit frame is complete, warning
// when it drops a partial segment; a truncation of the base meets the
// base-only matrix's contract. A bit flip must give a warned cold start
// or a structurally valid monitor, resumed with or without a warning.
// Nothing may panic or return a hard error.
func TestOpenCheckpointSegmentCorruptionMatrix(t *testing.T) {
	data, ends, states := segmentedFixture(t)
	path := filepath.Join(t.TempDir(), "state.lmw")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		last := -1
		for i, end := range ends {
			if end <= cut {
				last = i
			}
		}
		if last < 0 {
			// Inside the base, the base-only matrix's contract holds: a
			// warned cold start, or — cut at a frame boundary, which a
			// base cannot tell from a smaller base — a structurally valid
			// monitor.
			openCorrupt(t, path, data[:cut])
			continue
		}
		openExpect(t, path, states[last], cut != ends[last], "truncation")
	}
	outcomes := map[string]int{}
	for i := 0; i < len(data); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			b := append([]byte(nil), data...)
			b[i] ^= flip
			outcomes[openFlipped(t, path, b)]++
		}
	}
	t.Logf("bit flips: %v", outcomes)
}

// openFlipped opens a bit-flipped state file and checks the outcome is
// one Open allows: a clean cold start with a warning, or a resumed
// monitor that is structurally valid — its Snapshot restores whole —
// and usable.
func openFlipped(t *testing.T, path string, data []byte) string {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open on a flipped file returned a hard error: %v", err)
	}
	outcome := "resumed"
	switch {
	case !res.Resumed && res.Warning != nil:
		if st := res.Monitor.Stats(); st.Ingested != 0 || st.ASes != 0 || st.Bins != 0 {
			t.Fatalf("cold start after warning carries state: %+v", st)
		}
		outcome = "cold start"
	case !res.Resumed:
		t.Fatal("a flipped file opened as a silent cold start")
	case res.Warning != nil:
		outcome = "resumed with warning"
	}
	if res.Resumed {
		if _, err := RestoreMonitor(bytes.NewReader(monitorBytes(t, res.Monitor)), Options{}); err != nil {
			t.Fatalf("resumed monitor is not structurally valid: %v", err)
		}
	}
	if err := res.Monitor.Observe(64501, mkTrace(9, t0.Add(4*time.Hour), 3)); err != nil {
		t.Fatalf("monitor unusable after flipped open: %v", err)
	}
	_, _ = res.Monitor.ClassifyAll()
	return outcome
}

// errInjected is the failure faultFS injects.
var errInjected = errors.New("injected checkpoint fault")

// faultFS is the real file system with one operation failing: "create",
// "write", "sync", "rename", or "short" (an append that writes half its
// bytes, then fails).
type faultFS struct {
	osFS
	fail string
}

func (fs faultFS) CreateTemp(dir, pattern string) (file, error) {
	if fs.fail == "create" {
		return nil, errInjected
	}
	f, err := fs.osFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return faultFile{file: f, fail: fs.fail}, nil
}

func (fs faultFS) OpenAppend(name string) (file, error) {
	f, err := fs.osFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return faultFile{file: f, fail: fs.fail}, nil
}

func (fs faultFS) Rename(oldpath, newpath string) error {
	if fs.fail == "rename" {
		return errInjected
	}
	return fs.osFS.Rename(oldpath, newpath)
}

type faultFile struct {
	file
	fail string
}

func (f faultFile) Write(p []byte) (int, error) {
	switch f.fail {
	case "write":
		return 0, errInjected
	case "short":
		n, _ := f.file.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.file.Write(p)
}

func (f faultFile) Sync() error {
	if f.fail == "sync" {
		return errInjected
	}
	return f.file.Sync()
}

// TestCheckpointFailureKeepsPreviousRestorable injects each file
// failure into a checkpoint that follows a base and a segment: a
// failing create, write, sync or rename of a fresh base, and a short
// append of a segment. The failure must be returned and counted, the
// state file must still restore the previous checkpoint — dropping the
// torn tail, with a warning, after the short append — and the next
// checkpoint must be a fresh base.
func TestCheckpointFailureKeepsPreviousRestorable(t *testing.T) {
	for _, fail := range []string{"create", "write", "sync", "rename", "short"} {
		t.Run(fail, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			m := NewMonitor(Options{Window: 24 * time.Hour, Metrics: reg})
			dir := t.TempDir()
			path := filepath.Join(dir, "state.lmw")
			c := NewCheckpointer(m, path)
			observeBin := func(bin int) {
				for i := 0; i < 3; i++ {
					ts := t0.Add(time.Duration(bin)*30*time.Minute + time.Duration(i)*10*time.Minute)
					if err := m.Observe(64500, mkTrace(1, ts, 2)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for bin := 0; bin < 2; bin++ {
				observeBin(bin)
				if wrote, err := c.MaybeCheckpoint(); err != nil || !wrote {
					t.Fatalf("checkpoint %d: %v, %v", bin, wrote, err)
				}
			}
			if c.segs == 0 {
				t.Fatal("precondition: the second checkpoint must be a segment")
			}
			prev := monitorBytes(t, m)

			observeBin(2)
			c.fs = faultFS{fail: fail}
			var err error
			if fail == "short" {
				_, err = c.MaybeCheckpoint()
			} else {
				err = c.Checkpoint()
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("checkpoint error = %v, want the injected fault", err)
			}
			if n := reg.Counter("stream_checkpoint_errors_total").Value(); n != 1 {
				t.Fatalf("stream_checkpoint_errors_total = %d, want 1", n)
			}
			openExpect(t, path, prev, fail == "short", "after the failed checkpoint")

			c.fs = osFS{}
			if wrote, err := c.MaybeCheckpoint(); err != nil || !wrote {
				t.Fatalf("checkpoint after the failure: %v, %v", wrote, err)
			}
			if !bytes.Equal(fileBytes(t, path), monitorBytes(t, m)) {
				t.Fatal("the checkpoint after a failure is not a fresh base")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Fatalf("state dir holds %d entries, want just the checkpoint", len(entries))
			}
		})
	}
}
