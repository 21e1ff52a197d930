// Command lmserved is the long-running last-mile monitoring daemon: a
// stream.Monitor wrapped in the internal/serve lifecycle — declarative
// config file, one ingest goroutine per target, all started at once,
// SIGHUP/poll hot reload with target diffing, bin-boundary checkpoints,
// and an ops HTTP endpoint (/metrics, /debug/pprof, /api/*).
//
// Usage:
//
//	lmserved -config lmserved.json
//
// SIGHUP re-reads the config and applies the target diff; SIGINT or
// SIGTERM drains every target, writes a final checkpoint, and prints
// the final classification report to stdout. A second SIGINT or SIGTERM
// ends the process at once, as if lmserved caught none.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/serve"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

func main() {
	cfgPath := flag.String("config", "", "daemon config file (JSON; required)")
	flag.Parse()
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "lmserved: -config is required")
		flag.Usage()
		os.Exit(2)
	}

	// The first SIGINT or SIGTERM drains; the next takes the default
	// action, so a drain or report held up by a stalled stdout can still
	// be ended. A base replaces the state file by rename and restore
	// drops a torn segment, so that leaves the last complete checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	hup := make(chan os.Signal, 4)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	if err := run(ctx, hup, *cfgPath, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lmserved:", err)
		os.Exit(1)
	}
}

// run wires a daemon to the process environment: file-backed sources,
// stderr logging, and the ops HTTP listener. It returns after the
// daemon drains and the final report is written to out.
func run(ctx context.Context, hup <-chan os.Signal, cfgPath string, out, errw io.Writer) error {
	d, err := serve.New(cfgPath, serve.Options{
		Open: openFileSource,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(errw, "lmserved: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	stopHTTP, err := d.ListenHTTP()
	if err != nil {
		return err
	}
	runErr := d.Run(ctx, hup)
	// The daemon has drained; in-flight reads of the final snapshot are
	// not worth delaying exit for.
	stopHTTP()
	if err := d.WriteReport(out); err != nil {
		return err
	}
	return runErr
}

// fileSource adapts a result archive file (Atlas JSONL or binary wire,
// optionally gzipped) to the serve.Source interface.
type fileSource struct {
	f  *os.File
	sc lastmile.ResultScanner
}

// openFileSource opens Target.Source as an archive path.
func openFileSource(t serve.Target) (serve.Source, error) {
	f, err := os.Open(t.Source)
	if err != nil {
		return nil, err
	}
	return &fileSource{f: f, sc: lastmile.NewResultScanner(f)}, nil
}

// Next returns the next archived result. The scanner reuses its result
// storage across Scans, which is safe here: the daemon delivers each
// result to the engine before asking for the next. Attribution comes
// from the archive when it carries it in-band (wire); the daemon falls
// back to the target's configured ASN otherwise.
func (s *fileSource) Next(ctx context.Context) (bgp.ASN, *traceroute.Result, error) {
	// File reads are not cancellable mid-call; honour ctx between
	// results, which bounds drain latency to one decode.
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return 0, nil, err
		}
		return 0, nil, io.EOF
	}
	return bgp.ASN(s.sc.ASN()), s.sc.Result(), nil
}

// Close releases the archive file.
func (s *fileSource) Close() error { return s.f.Close() }
