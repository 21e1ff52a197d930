package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

var testT0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

// mkTrace builds a 2-hop traceroute with the given last-mile delta.
func mkTrace(probeID int, ts time.Time, deltaMs float64) *traceroute.Result {
	priv := netip.MustParseAddr("192.168.1.1")
	pub := netip.MustParseAddr("203.0.113.1")
	r := &traceroute.Result{
		ProbeID: probeID, MsmID: 5004, Timestamp: ts, AF: 4,
		SrcAddr: netip.MustParseAddr("192.168.1.10"),
		DstAddr: netip.MustParseAddr("198.41.0.4"),
	}
	h1 := traceroute.HopResult{Hop: 1}
	h2 := traceroute.HopResult{Hop: 2}
	for i := 0; i < 3; i++ {
		h1.Replies = append(h1.Replies, traceroute.Reply{From: priv, RTT: 0.5, TTL: 64})
		h2.Replies = append(h2.Replies, traceroute.Reply{From: pub, RTT: 0.5 + deltaMs, TTL: 254})
	}
	r.Hops = []traceroute.HopResult{h1, h2}
	return r
}

// syntheticTraces returns days of diurnal traceroutes for nProbes in
// time order. Each probe measures every 10 minutes, three traceroutes
// per 30-minute bin, so its bins pass the paper's three-traceroute rule
// and the reports carry verdicts.
func syntheticTraces(nProbes, days int) []*traceroute.Result {
	var out []*traceroute.Result
	end := testT0.AddDate(0, 0, days)
	for ts := testT0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
		delta := 2.0
		if h := ts.Hour(); h >= 12 && h < 18 {
			delta += 8
		}
		for p := 1; p <= nProbes; p++ {
			out = append(out, mkTrace(p, ts, delta))
		}
	}
	return out
}

// syntheticJSONL renders syntheticTraces as the newline-delimited Atlas
// JSON lmmonitor consumes.
func syntheticJSONL(t *testing.T, nProbes, days int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := traceroute.NewWriter(&buf)
	for _, r := range syntheticTraces(nProbes, days) {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden compares a run's stdout with testdata/<name>.golden byte
// for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestRunEndToEnd drives run on a synthetic stream and pins its stdout
// byte for byte: the scheduled reports at the -every cadence and the
// one final block, sorted, and unsorted with a window short enough to
// evict bins.
func TestRunEndToEnd(t *testing.T) {
	input := syntheticJSONL(t, 3, 6)
	for _, tc := range []struct {
		golden        string
		window, every time.Duration
		sortIn        bool
	}{
		{"sorted", 5 * 24 * time.Hour, 48 * time.Hour, true},
		{"unsorted_evicting", 48 * time.Hour, 24 * time.Hour, false},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := config{
				window:  tc.window,
				every:   tc.every,
				sortIn:  tc.sortIn,
				metrics: telemetry.NewRegistry(),
			}
			if err := run(context.Background(), cfg, bytes.NewReader(input), &buf, io.Discard); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.golden, buf.Bytes())
		})
	}
}

// cancelAtEOFReader serves its bytes, then fires cancel on the read
// that would report EOF — a deterministic SIGTERM: the monitor has
// ingested exactly this data when the signal lands.
type cancelAtEOFReader struct {
	data   []byte
	cancel context.CancelFunc
}

func (r *cancelAtEOFReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		r.cancel()
		return 0, io.EOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestRunResumeAfterInterrupt pins the -state contract end to end: a
// run killed mid-stream checkpoints everything it ingested, and a
// second run resuming from that file and fed the remainder ends in a
// final state byte-identical to a run that was never interrupted —
// verdicts, signals, and ingestion counters alike. Both runs' stdout is
// pinned byte for byte.
func TestRunResumeAfterInterrupt(t *testing.T) {
	input := syntheticJSONL(t, 3, 6)
	// Cut at a line boundary so each half is a valid JSONL stream.
	half := bytes.IndexByte(input[len(input)/2:], '\n') + len(input)/2 + 1
	statePath := filepath.Join(t.TempDir(), "state.lmw")

	mkCfg := func(state string) config {
		return config{
			window:  10 * 24 * time.Hour,
			every:   48 * time.Hour,
			sortIn:  false, // stream mode: the checkpoint path under test
			metrics: telemetry.NewRegistry(),
			state:   state,
		}
	}
	finalState := func(out string) string {
		i := strings.LastIndex(out, "final state:")
		if i < 0 {
			t.Fatalf("no final state block:\n%s", out)
		}
		return out[i:]
	}

	// Run 1: interrupted exactly at the half-way line.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf1 bytes.Buffer
	err := run(ctx, mkCfg(statePath), &cancelAtEOFReader{data: input[:half], cancel: cancel}, &buf1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "resume_part1", buf1.Bytes())
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}

	// Run 2: resume from the checkpoint, feed the remainder.
	var buf2 bytes.Buffer
	if err := run(context.Background(), mkCfg(statePath), bytes.NewReader(input[half:]), &buf2, io.Discard); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "resume_part2", buf2.Bytes())

	// Control: one uninterrupted run over the full stream.
	var bufU bytes.Buffer
	if err := run(context.Background(), mkCfg(""), bytes.NewReader(input), &bufU, io.Discard); err != nil {
		t.Fatal(err)
	}

	if got, want := finalState(buf2.String()), finalState(bufU.String()); got != want {
		t.Fatalf("resumed final state differs from uninterrupted run:\n--- resumed\n%s\n--- uninterrupted\n%s", got, want)
	}
}

// cancelAfterReader passes reads through and fires cancel once n bytes
// have been read: a SIGINT landing mid-stream, with no wall-clock sleep
// deciding when.
type cancelAfterReader struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (r *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if r.n -= n; r.n <= 0 {
		r.cancel()
	}
	return n, err
}

// TestRunInterruptFlushesOnce pins SIGINT as the daemon's drain: an
// interrupt landing mid-stream, with the input pipe left open so the run
// can end only through the drain, yields exactly one final report.
func TestRunInterruptFlushesOnce(t *testing.T) {
	input := syntheticJSONL(t, 3, 6)
	pr, pw := io.Pipe()
	go func() {
		// Dribble the stream, then leave the pipe open: the run can only
		// end via cancellation, never via a too-fast end of stream.
		for len(input) > 0 {
			n := 16 << 10
			if n > len(input) {
				n = len(input)
			}
			if _, err := pw.Write(input[:n]); err != nil {
				return
			}
			input = input[n:]
		}
	}()
	defer pw.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := config{
		window:  5 * 24 * time.Hour,
		every:   24 * time.Hour,
		sortIn:  false, // stream mode: process as results arrive
		metrics: telemetry.NewRegistry(),
	}
	var buf bytes.Buffer
	if err := run(ctx, cfg, &cancelAfterReader{r: pr, n: 64 << 10, cancel: cancel}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if got := strings.Count(s, "final state:"); got != 1 {
		t.Fatalf("final flush count = %d, want 1\n%s", got, s)
	}
	if !strings.Contains(s, "\ninterrupted; final state:\n") {
		t.Fatalf("missing interrupted header:\n%s", s)
	}
}

// TestRunInterruptStopsSortingScanner pins that an interrupt stops the
// sorting scanner while it still holds records it has not sent: the
// interrupt lands when the scanner reads the end of input, before it
// sorts, and once run returns the scanner goroutine exits rather than
// blocking on a send nobody receives.
func TestRunInterruptStopsSortingScanner(t *testing.T) {
	scanners := func() int {
		buf := make([]byte, 1<<20)
		return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*source).scan("))
	}
	before := scanners()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := config{
		window:  5 * 24 * time.Hour,
		every:   24 * time.Hour,
		sortIn:  true,
		metrics: telemetry.NewRegistry(),
	}
	r := &cancelAtEOFReader{data: syntheticJSONL(t, 3, 6), cancel: cancel}
	if err := run(ctx, cfg, r, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for scanners() > before {
		if time.Now().After(deadline) {
			t.Fatal("the sorting scanner still runs after the interrupted run returned")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunColdStartsOnCorruptState pins crash recovery at the command
// level: a garbage -state file must not abort the run — it cold-starts,
// processes the stream, and leaves behind a fresh, resumable checkpoint.
func TestRunColdStartsOnCorruptState(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.lmw")
	if err := os.WriteFile(statePath, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := config{
		window:  5 * 24 * time.Hour,
		every:   48 * time.Hour,
		sortIn:  true,
		metrics: telemetry.NewRegistry(),
		state:   statePath,
	}
	if err := run(context.Background(), cfg, bytes.NewReader(syntheticJSONL(t, 3, 4)), &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "final state:") {
		t.Fatalf("no final report after corrupt-state cold start:\n%s", buf.String())
	}
	// The run replaced the garbage with a checkpoint a new run resumes
	// from cleanly.
	res, err := stream.Open(statePath, stream.Options{})
	if err != nil || res.Warning != nil || !res.Resumed {
		t.Fatalf("checkpoint after cold start: res %+v, err %v, want clean resume", res, err)
	}
	if res.Monitor.Stats().Ingested == 0 {
		t.Fatal("checkpoint carries no ingested data")
	}
}

// TestRunRejectsBadFlags pins the flag values that cannot run: each makes
// run fail before it reads any input, with nothing on stdout and no
// state file.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(*config)
	}{
		{"every 0", func(c *config) { c.every = 0 }},
		{"every -1h", func(c *config) { c.every = -time.Hour }},
		{"window -1h", func(c *config) { c.window = -time.Hour }},
		{"shards -1", func(c *config) { c.shards = -1 }},
		{"workers -1", func(c *config) { c.workers = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			statePath := filepath.Join(t.TempDir(), "state.lmw")
			cfg := config{
				window:  5 * 24 * time.Hour,
				every:   24 * time.Hour,
				metrics: telemetry.NewRegistry(),
				state:   statePath,
			}
			tc.bad(&cfg)
			in := &countingReader{r: bytes.NewReader(syntheticJSONL(t, 3, 1))}
			var buf bytes.Buffer
			if err := run(context.Background(), cfg, in, &buf, io.Discard); err == nil {
				t.Fatal("run accepted a value that cannot run")
			}
			if buf.Len() != 0 {
				t.Fatalf("stdout = %q, want nothing", buf.String())
			}
			if n := in.n.Load(); n != 0 {
				t.Fatalf("read %d input bytes before rejecting", n)
			}
			if _, err := os.Stat(statePath); !os.IsNotExist(err) {
				t.Fatalf("state file stat = %v, want none", err)
			}
		})
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestRunDecodeErrorCheckpoints pins the decode-error path: a wire
// archive cut inside a frame fails the run with the located decode error
// and no final report, after the drain has checkpointed every record
// decoded before the cut, and the daemon counts the target as failed.
func TestRunDecodeErrorCheckpoints(t *testing.T) {
	const before = 1004 // records decoded before the cut, mid-bin
	var buf bytes.Buffer
	ww := wire.NewWriter(&buf, wire.StreamResults)
	cut := 0
	for i, r := range syntheticTraces(3, 6) {
		if err := ww.WriteResult(64500, r); err != nil {
			t.Fatal(err)
		}
		if err := ww.Flush(); err != nil {
			t.Fatal(err)
		}
		if i == before-1 {
			cut = buf.Len() + 3 // three bytes into the next frame
		}
	}
	statePath := filepath.Join(t.TempDir(), "state.lmw")
	reg := telemetry.NewRegistry()
	cfg := config{
		window:  5 * 24 * time.Hour,
		every:   24 * time.Hour,
		sortIn:  false,
		metrics: reg,
		state:   statePath,
	}
	var out bytes.Buffer
	err := run(context.Background(), cfg, bytes.NewReader(buf.Bytes()[:cut]), &out, io.Discard)
	var ce *wire.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("run error = %v, want a *wire.CorruptError", err)
	}
	if strings.Contains(out.String(), "final state:") {
		t.Fatalf("final report after a decode error:\n%s", out.String())
	}
	res, err := stream.Open(statePath, stream.Options{})
	if err != nil || !res.Resumed {
		t.Fatalf("state file: res %+v, err %v, want a resumable checkpoint", res, err)
	}
	if got := res.Monitor.Stats().Ingested; got != before {
		t.Fatalf("state file restored %d records, want the %d before the cut", got, before)
	}
	if got := reg.Counter("serve_target_failures_total").Value(); got != 1 {
		t.Fatalf("serve_target_failures_total = %d, want 1", got)
	}
}
