package main

// The survey workloads: the lmsurvey binary, built from the tree under
// test, run repeatedly over the campaign archive in one encoding.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// surveyRow is the part of one lmsurvey report row the gate compares.
type surveyRow struct {
	AS     string `json:"as"`
	Probes string `json:"probes"`
	Class  string `json:"class"`
	Amp    string `json:"amp"`
	Freq   string `json:"freq"`
}

// asOutcome is one AS's survey outcome: a classification, or the
// reason there is none.
type asOutcome struct {
	asn    bgp.ASN
	probes int // probes in the verdict, or probes seen for a skipped AS
	cls    core.Classification
	reason error
}

// row renders the outcome exactly as lmsurvey prints it.
func (o asOutcome) row() surveyRow {
	if o.reason == nil {
		return surveyRow{
			AS: o.asn.String(), Probes: fmt.Sprint(o.probes), Class: o.cls.Class.String(),
			Amp: fmt.Sprintf("%.2f", o.cls.DailyAmplitude), Freq: fmt.Sprintf("%.3f", o.cls.Peak.Freq),
		}
	}
	label := fmt.Sprintf("(unclassifiable: %v)", o.reason)
	if errors.Is(o.reason, core.ErrNoUsableData) {
		label = "(no usable data)"
	}
	return surveyRow{AS: o.asn.String(), Probes: fmt.Sprint(o.probes), Class: label, Amp: "-", Freq: "-"}
}

// referenceRows surveys one AS's records in-process with core.RunSurvey
// and renders its rows as lmsurvey prints them.
func referenceRows(recs []core.AttributedResult, start, end time.Time) ([]surveyRow, error) {
	survey, skipped, err := core.RunSurvey("reference", recs, core.SurveyOptions{
		Start: start, End: end, Workers: 1, Shards: 1,
	})
	if err != nil {
		return nil, err
	}
	seen := map[bgp.ASN]map[int]bool{}
	for _, r := range recs {
		if seen[r.ASN] == nil {
			seen[r.ASN] = map[int]bool{}
		}
		seen[r.ASN][r.Result.ProbeID] = true
	}
	var rows []surveyRow
	for _, asn := range survey.ASNs() {
		res := survey.Results[asn]
		rows = append(rows, asOutcome{asn: asn, probes: res.Probes, cls: res.Classification}.row())
	}
	for _, sk := range skipped {
		rows = append(rows, asOutcome{asn: sk.ASN, probes: len(seen[sk.ASN]), reason: sk.Reason}.row())
	}
	return rows, nil
}

// parseReport reads lmsurvey's report: the summary line's traceroute
// count, then the table, whose dashed separator line gives the column
// offsets (the last column, a sparkline, may hold spaces).
func parseReport(out []byte) (records int, rows []surveyRow, err error) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return 0, nil, errors.New("lmsurvey printed nothing")
	}
	if _, err := fmt.Sscanf(sc.Text(), "lmsurvey: %d traceroutes", &records); err != nil {
		return 0, nil, fmt.Errorf("lmsurvey summary line %q: %w", sc.Text(), err)
	}
	var cols [][2]int
	for sc.Scan() {
		line := sc.Text()
		if cols == nil {
			if strings.HasPrefix(line, "--") {
				cols = columns(line)
			}
			continue
		}
		cell := func(i int) string {
			from, to := cols[i][0], min(cols[i][1], len(line))
			if from >= to {
				return ""
			}
			return strings.TrimSpace(line[from:to])
		}
		if len(cols) < 5 {
			return 0, nil, errors.New("lmsurvey report has fewer than 5 columns")
		}
		rows = append(rows, surveyRow{AS: cell(0), Probes: cell(1), Class: cell(2), Amp: cell(3), Freq: cell(4)})
	}
	if cols == nil {
		return 0, nil, errors.New("lmsurvey report has no table")
	}
	return records, rows, sc.Err()
}

// columns returns the [from, to) byte range of each dashed run.
func columns(sep string) [][2]int {
	var cols [][2]int
	for i := 0; i < len(sep); {
		if sep[i] != '-' {
			i++
			continue
		}
		j := i
		for j < len(sep) && sep[j] == '-' {
			j++
		}
		cols = append(cols, [2]int{i, j})
		i = j
	}
	return cols
}

// checkReport compares one lmsurvey report with the campaign's
// reference survey.
func checkReport(c *campaign, out []byte) error {
	records, rows, err := parseReport(out)
	if err != nil {
		return err
	}
	if records != c.Records {
		return fmt.Errorf("lmsurvey read %d traceroutes, the campaign has %d", records, c.Records)
	}
	return sameRows(rows, c.Reference)
}

// sameRows compares survey rows with the reference, in AS order.
func sameRows(rows, ref []surveyRow) error {
	if len(rows) != len(ref) {
		return fmt.Errorf("%d ASes surveyed, the reference has %d", len(rows), len(ref))
	}
	rows, ref = byAS(rows), byAS(ref)
	for i, r := range rows {
		if r != ref[i] {
			return fmt.Errorf("row %+v, reference %+v", r, ref[i])
		}
	}
	return nil
}

// byAS returns a copy of rows sorted by AS.
func byAS(rows []surveyRow) []surveyRow {
	out := append([]surveyRow(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].AS < out[j].AS })
	return out
}

// encodeWire re-encodes the campaign archive through the wire encoder.
// The copy is byte-identical: the format is bijective.
func encodeWire(c *campaign, w io.Writer) error {
	ww := wire.NewWriter(w, wire.StreamResults)
	if err := scanArchive(c.path(archiveFile), ww.WriteResult); err != nil {
		return err
	}
	return ww.Flush()
}

// encodeJSON encodes the campaign as Atlas JSONL, the form Atlas dumps
// ship in.
func encodeJSON(c *campaign, w io.Writer) error {
	tw := traceroute.NewWriter(w)
	if err := scanArchive(c.path(archiveFile), func(_ bgp.ASN, r *traceroute.Result) error {
		return tw.Write(r)
	}); err != nil {
		return err
	}
	return tw.Flush()
}

// Survey run lengths: set-up repetitions, and the fewest timed execs a
// run reports however long each one takes.
const (
	surveySetups   = 3
	surveyMinExecs = 3
)

// execStat is one finished lmsurvey process.
type execStat struct {
	wall   time.Duration
	cpu    time.Duration
	maxRSS int64 // bytes
	out    []byte
}

func runLMSurvey(ctx context.Context, bin string, args []string) (execStat, error) {
	var out, errOut bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	start := time.Now()
	err := cmd.Run()
	st := execStat{wall: time.Since(start), out: out.Bytes()}
	if err != nil {
		return st, fmt.Errorf("lmsurvey %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(errOut.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		st.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		st.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	return st, nil
}

// runSurvey measures one survey workload. Set-up encodes the archive
// lmsurvey reads, timed into a writer that keeps nothing, so the time is
// the encoder's and not the disk's: survey-wire checks that the wire
// encoder's copy hashes equal to the campaign archive, which lmsurvey
// then reads; survey-json writes its JSONL once more, untimed. One
// untimed exec warms the page cache and is checked against the
// reference; then timed execs run for the run's duration and must print
// the same report.
func runSurvey(ctx context.Context, e *env, c *campaign, name string, seconds float64) (*result, error) {
	if err := c.verify(archiveFile, metaFile); err != nil {
		return nil, err
	}
	res := &result{workload: name}
	encode := encodeWire
	if name == "survey-json" {
		encode = encodeJSON
	}
	setups, err := timedSetups(surveySetups, func() error { return encode(c, io.Discard) })
	if err != nil {
		return nil, err
	}
	args := []string{"-in", c.path(archiveFile)}
	if name == "survey-wire" {
		h := sha256.New()
		if err := encodeWire(c, h); err != nil {
			return nil, err
		}
		if hex.EncodeToString(h.Sum(nil)) != c.Files[archiveFile] {
			return res.fail(errors.New("the wire encoder's copy of the campaign archive differs from it")), nil
		}
	} else {
		archive := filepath.Join(e.work, "survey.jsonl")
		defer os.Remove(archive)
		if err := writeFile(archive, func(w io.Writer) error { return encodeJSON(c, w) }); err != nil {
			return nil, err
		}
		args = []string{"-in", archive, "-probes", c.path(metaFile)}
	}

	res.attempted++
	warm, err := runLMSurvey(ctx, e.lmsurvey, args)
	if err != nil {
		return nil, err
	}
	if err := checkReport(c, warm.out); err != nil {
		return res.fail(fmt.Errorf("lmsurvey against the reference: %w", err)), nil
	}

	var walls, cpus, rss []float64
	for start := time.Now(); len(walls) < surveyMinExecs || time.Since(start).Seconds() < seconds; {
		res.attempted++
		st, err := runLMSurvey(ctx, e.lmsurvey, args)
		if err != nil {
			res.failed++
			fmt.Fprintln(os.Stderr, "bench:", err)
			if res.failed > surveyMinExecs {
				return nil, err
			}
			continue
		}
		if !bytes.Equal(st.out, warm.out) {
			return res.fail(errors.New("lmsurvey printed a different report on a repeated run")), nil
		}
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds()*1e3/(float64(c.Records)/1e3))
		rss = append(rss, float64(st.maxRSS)/(1<<20))
	}

	res.correct = true
	res.add(endToEnd, "setup_s", "s", median(setups), setups)
	res.add(endToEnd, "result_latency_ms", "ms", median(walls)*1e3, scale(walls, 1e3))
	res.add(endToEnd, "cpu_ms_per_krec", "ms/krec", median(cpus), cpus)
	res.add(endToEnd, "peak_rss_mb", "MB", median(rss), rss)
	res.add(diagnostic, "survey_s", "s", median(walls), walls)
	res.add(diagnostic, "records_per_s", "rec/s", float64(c.Records)/median(walls), nil)
	res.add(diagnostic, "records", "count", float64(c.Records), nil)
	return res, nil
}
