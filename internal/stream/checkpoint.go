package stream

// Checkpoint/resume plumbing for long-running monitors. A Checkpointer
// keeps one monitor's state in one file: a base — a full engine
// snapshot, written through a same-directory temp file, fsync, rename
// and a directory fsync — followed by segments appended at later bin
// boundaries, each holding only what changed since the checkpoint
// before it. A killed monitor restarts from its last complete
// checkpoint instead of from nothing. MaybeCheckpoint writes only when
// the observation watermark has crossed into a new bin since the last
// checkpoint, which bounds checkpoint I/O to one write per bin width no
// matter how fast results arrive. How often it is asked is the caller's
// choice: the serve daemon asks on a maintenance tick every half bin of
// wall time, so a live feed checkpoints once per bin and an archive
// replayed faster than real time less often.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/last-mile-congestion/lastmile/internal/engine"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
)

// compactRatio bounds the segments appended after a base: once they
// total compactRatio times the base's size, the next checkpoint writes
// a fresh base instead. At 1 the state file stays under about twice a
// base, so a restore reads at most two bases' worth of bytes, and every
// base is paid for by at least its own size in segments, so the bytes
// written stay under twice the bytes changed plus one base.
const compactRatio = 1

// OpenResult reports how Open produced its monitor.
type OpenResult struct {
	// Monitor is always non-nil on a nil error.
	Monitor *Monitor
	// Resumed is true when the monitor carries a checkpoint's state.
	Resumed bool
	// Warning is non-nil when a state file existed but was not usable
	// whole. With Resumed false the monitor is a clean cold start: the
	// file was truncated, bit-flipped, or not a monitor checkpoint. With
	// Resumed true the base and the segments up to the last complete one
	// restored, and the tail after it was dropped. The daemon keeps
	// running either way (crash recovery must never be the thing that
	// crashes); callers log the warning so the data loss is observable.
	Warning error
}

// Open builds a monitor, resuming from the checkpoint file at path when
// a usable one exists. The failure contract is deliberately asymmetric:
//
//   - No state file: clean cold start, no warning.
//   - Damaged base (truncation, bit flips, wrong stream type, an
//     unbounded-engine snapshot): clean cold start with Warning set —
//     never a panic, an error, or a silent partial restore. The wire
//     layer validates structure exhaustively on decode, so a base
//     either restores whole or is rejected whole.
//   - Damaged or unfinished segment: the state as of the last complete
//     segment, with Resumed and Warning both set. A segment is applied
//     only once its commit frame is read and checked.
//   - Caller error (options conflicting with the snapshot's, an
//     unreadable path): a real error — these are fixable misconfigur-
//     ations, and silently ignoring them would run the wrong monitor.
func Open(path string, opts Options) (OpenResult, error) {
	if path == "" {
		return OpenResult{Monitor: NewMonitor(opts)}, nil
	}
	f, err := os.Open(path)
	switch {
	case os.IsNotExist(err):
		return OpenResult{Monitor: NewMonitor(opts)}, nil
	case err != nil:
		return OpenResult{}, fmt.Errorf("stream: open checkpoint: %w", err)
	}
	defer ioutil.CloseQuiet(f)
	m, err := RestoreMonitor(f, opts)
	switch {
	case err == nil:
		return OpenResult{Monitor: m, Resumed: true}, nil
	case m != nil:
		return OpenResult{
			Monitor: m,
			Resumed: true,
			Warning: fmt.Errorf("stream: checkpoint %s resumed from its last complete segment: %w", path, err),
		}, nil
	case errors.Is(err, engine.ErrSnapshotOptions):
		return OpenResult{}, fmt.Errorf("stream: resume from %s: %w", path, err)
	}
	return OpenResult{
		Monitor: NewMonitor(opts),
		Warning: fmt.Errorf("stream: checkpoint %s unusable, cold-starting: %w", path, err),
	}, nil
}

// Checkpointer writes one monitor's checkpoints to a state file. It is
// driven at a consistent cut (no Observe in flight: from the goroutine
// that feeds the monitor, or with every ingest path held off) and is
// not safe for concurrent use.
type Checkpointer struct {
	m    *Monitor
	path string
	fs   fileSystem
	// lastBin is the watermark's bin key at the last checkpoint;
	// MaybeCheckpoint fires only when the watermark leaves it.
	lastBin int64
	// base is the byte size of the base the state file starts with and
	// segs the bytes of the segments appended since. base is zero before
	// the first checkpoint and after a failed one: the next checkpoint
	// is then a fresh base, so nothing is ever appended after a torn
	// write or to a file this checkpointer did not write.
	base, segs int64
}

// NewCheckpointer returns a checkpointer writing m's checkpoints to
// path. No checkpoint is taken until the first Checkpoint or triggering
// MaybeCheckpoint call, and that first one is a base.
func NewCheckpointer(m *Monitor, path string) *Checkpointer {
	return &Checkpointer{m: m, path: path, fs: osFS{}, lastBin: -1 << 62}
}

// MaybeCheckpoint checkpoints the monitor iff the newest observation
// has crossed a bin boundary since the last checkpoint (or since
// start). It appends a segment of what changed, or writes a fresh base
// when there is none yet, the last checkpoint failed, or the segments
// have outgrown compactRatio times the base. It reports whether a
// checkpoint was written. Asking often is cheap: the bin-boundary gate
// costs a watermark load and a comparison in the common case.
func (c *Checkpointer) MaybeCheckpoint() (bool, error) {
	bin, ok := c.m.NewestBin()
	if !ok || bin == c.lastBin {
		return false, nil
	}
	if err := c.checkpointAt(bin, c.base == 0 || c.segs >= compactRatio*c.base); err != nil {
		return false, err
	}
	return true, nil
}

// Checkpoint writes a fresh base unconditionally — the shutdown path
// (SIGTERM, end of input), where losing the partial bin since the last
// boundary is not acceptable. Its file is byte-identical to
// Monitor.Snapshot of the same state.
func (c *Checkpointer) Checkpoint() error {
	bin, ok := c.m.NewestBin()
	if !ok {
		// Nothing observed: nothing worth persisting, and writing an
		// empty snapshot over a previous one would lose state.
		return nil
	}
	return c.checkpointAt(bin, true)
}

// checkpointAt writes a base or appends a segment and records the
// covered bin. A failure is counted and makes the next checkpoint a
// base; the previous checkpoint stays restorable either way — a base
// only replaces the file by rename once it is complete and synced, and
// a segment cut short is a torn tail that restore drops.
func (c *Checkpointer) checkpointAt(bin int64, base bool) error {
	write, written := c.appendSegment, c.m.checkpointSegmentBytes
	if base {
		write, written = c.writeBase, c.m.checkpointBaseBytes
	}
	n, err := write()
	if err != nil {
		c.base = 0
		c.m.checkpointErrors.Inc()
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	if base {
		c.base, c.segs = n, 0
	} else {
		c.segs += n
	}
	written.Add(n)
	c.lastBin = bin
	return nil
}

// writeBase writes the base to a temp file in the state file's
// directory, fsyncs it, renames it over the state file and fsyncs the
// directory, so the rename itself survives a crash. A crash before the
// rename leaves the previous checkpoint intact.
func (c *Checkpointer) writeBase() (int64, error) {
	dir, name := filepath.Split(c.path)
	if dir == "" {
		dir = "."
	}
	tmp, err := c.fs.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := countingWriter{w: tmp}
	err = c.m.eng.WriteBase(&w)
	if err == nil {
		err = tmp.Sync()
	}
	ioutil.CloseJoin(tmp, &err)
	if err == nil {
		err = c.fs.Rename(tmp.Name(), c.path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	return w.n, err
}

// syncDir fsyncs a directory, making a rename in it durable.
func syncDir(dir string) (err error) {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(d, &err)
	return d.Sync()
}

// appendSegment appends one segment to the state file and fsyncs it.
func (c *Checkpointer) appendSegment() (int64, error) {
	f, err := c.fs.OpenAppend(c.path)
	if err != nil {
		return 0, err
	}
	w := countingWriter{w: f}
	err = c.m.eng.AppendSegment(&w)
	if err == nil {
		err = f.Sync()
	}
	ioutil.CloseJoin(f, &err)
	return w.n, err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// fileSystem is the checkpointer's file-operations seam: osFS in
// production, a failing stand-in in tests.
type fileSystem interface {
	CreateTemp(dir, pattern string) (file, error)
	// OpenAppend opens an existing file for appending.
	OpenAppend(name string) (file, error)
	Rename(oldpath, newpath string) error
}

// file is what the checkpointer writes through; *os.File is one.
type file interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// osFS is the fileSystem of package os.
type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (file, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenAppend(name string) (file, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
