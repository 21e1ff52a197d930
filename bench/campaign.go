package main

// The campaign: one seeded synthetic measurement period, generated once
// per (seed, size, source tree) and cached on disk. The programs under
// test only ever see the files written here, never the generator.
//
// Generation runs per AS and k-way merges the per-AS runs, so at no
// point does the generator hold the whole campaign in memory.

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// params fixes the campaign's size; the seed fixes its contents.
type params struct {
	// ASes is the number of monitored ASes passed to scenario.Build.
	ASes int
	// ProbesPerAS caps each AS's probe fleet.
	ProbesPerAS int
	// Probes caps the whole fleet (0 = no cap). About 2% of probe slots
	// are inactive in the COVID period, so a cap just below the expected
	// fleet makes the record count, and with it every timing, independent
	// of the seed.
	Probes int
	// Days is the campaign length from the start of
	// scenario.COVIDPeriod().
	Days int
	// CutDay is where the serve-live checkpoint ends: it holds days
	// [0, CutDay) and the live replay serves the rest.
	CutDay int
	// Msm is how many of atlas.BuiltinMeasurements() each probe runs:
	// the first Msm root-server traceroutes, once per 30-minute bin each.
	Msm int
}

// defaultParams is the benchmark's campaign: 80 ASes of up to 2 probes,
// 8 days, 6 traceroutes per probe per bin (twice the paper's floor of 3).
var defaultParams = params{ASes: 80, ProbesPerAS: 2, Probes: 100, Days: 8, CutDay: 5, Msm: 6}

const (
	binWidth       = lastmile.DefaultBinWidth
	minTraceroutes = lastmile.DefaultMinTraceroutes
	maxLateness    = time.Hour
)

// window is the daemon's analysis window: one day short of the
// campaign, so the windowed engine evicts during the last day, and long
// enough that the checkpointed days keep every AS under the
// classifier's 50% gap limit.
func (p params) window() time.Duration { return time.Duration(p.Days-1) * 24 * time.Hour }

// streamOptions are the monitor options shared by the checkpoint, the
// daemon's config and the traced serve replica; a resumed monitor
// refuses a checkpoint taken under different semantics.
func (p params) streamOptions() stream.Options {
	return stream.Options{
		Window:         p.window(),
		BinWidth:       binWidth,
		MinTraceroutes: minTraceroutes,
		MaxLateness:    maxLateness,
	}
}

// Cached campaign files.
const (
	archiveFile    = "campaign.wire"    // every record, time-sorted, AS in-band
	metaFile       = "meta.json"        // probe registry, the shape of atlasgen -meta
	checkpointFile = "checkpoint.state" // stream checkpoint of days [0, CutDay)
	manifestFile   = "manifest.json"    // written last: its presence marks a complete campaign
)

// manifest describes a generated campaign.
type manifest struct {
	Seed   uint64 `json:"seed"`
	Params params `json:"params"`
	// Start and End bound the campaign; Cut is the checkpoint instant.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Cut   time.Time `json:"cut"`
	// Records counts every record; Live counts those at or after Cut.
	Records int `json:"records"`
	Live    int `json:"live"`
	Probes  int `json:"probes"`
	// ASNs lists the ASes with at least one probe, ascending.
	ASNs []bgp.ASN `json:"asns"`
	// Reference is the survey every lmsurvey report must reproduce,
	// computed in-process by core.RunSurvey.
	Reference []surveyRow `json:"reference"`
	// Files maps each cached file to its SHA-256.
	Files map[string]string `json:"files"`
}

// campaign is a generated, cached campaign.
type campaign struct {
	dir string
	manifest
}

func (c *campaign) path(name string) string { return filepath.Join(c.dir, name) }

// verify re-hashes a cached file against the manifest, so a truncated
// or edited cache fails loudly instead of skewing a run.
func (c *campaign) verify(names ...string) error {
	for _, name := range names {
		sum, err := hashFile(c.path(name))
		if err != nil {
			return err
		}
		if sum != c.Files[name] {
			return fmt.Errorf("campaign %s: %s does not match its manifest hash", c.dir, name)
		}
	}
	return nil
}

// keptCampaigns bounds the cache: every seed's campaign costs disk, and
// a benchmark session rarely returns to a seed more than a few runs
// later.
const keptCampaigns = 3

// openCampaign returns the campaign for seed and p, generating it into
// the cache first when absent. gen produces a campaign into a directory;
// the benchmark passes one that runs the generator in a child process,
// so generation's memory never counts against a measured run.
func openCampaign(cacheRoot, srcRoot string, seed uint64, p params, gen func(dir string) error) (*campaign, error) {
	code, err := treeHash(srcRoot)
	if err != nil {
		return nil, err
	}
	key := sha256.Sum256([]byte(fmt.Sprintf("%d %+v %s", seed, p, code)))
	base := filepath.Join(cacheRoot, "campaigns")
	dir := filepath.Join(base, fmt.Sprintf("%d-%s", seed, hex.EncodeToString(key[:6])))
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		tmp, err := os.MkdirTemp(base, ".gen-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		if err := gen(tmp); err != nil {
			return nil, fmt.Errorf("generate campaign (seed %d): %w", seed, err)
		}
		// A concurrent generator may have won the race; its campaign is
		// identical, so either copy serves.
		if err := os.Rename(tmp, dir); err != nil {
			if _, serr := os.Stat(filepath.Join(dir, manifestFile)); serr != nil {
				return nil, err
			}
		}
	}
	now := time.Now()
	if err := os.Chtimes(dir, now, now); err != nil {
		return nil, err
	}
	if err := evictCampaigns(base, keptCampaigns); err != nil {
		return nil, err
	}
	c := &campaign{dir: dir}
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &c.manifest); err != nil {
		return nil, fmt.Errorf("campaign %s: manifest: %w", dir, err)
	}
	return c, nil
}

// evictCampaigns removes all but the keep most recently used campaigns.
func evictCampaigns(base string, keep int) error {
	entries, err := os.ReadDir(base)
	if err != nil {
		return err
	}
	type used struct {
		name string
		at   time.Time
	}
	var dirs []used
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		dirs = append(dirs, used{e.Name(), info.ModTime()})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].at.After(dirs[j].at) })
	for i := keep; i < len(dirs); i++ {
		if err := os.RemoveAll(filepath.Join(base, dirs[i].name)); err != nil {
			return err
		}
	}
	return nil
}

// childGenerator runs the generator as "self gen" in a child process.
func childGenerator(seed uint64, p params) func(dir string) error {
	return func(dir string) error {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		enc, err := json.Marshal(p)
		if err != nil {
			return err
		}
		cmd := exec.Command(self, "gen", dir, strconv.FormatUint(seed, 10), string(enc))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		return cmd.Run()
	}
}

// runGen is the "gen" subcommand: gen DIR SEED PARAMS-JSON.
func runGen(args []string) error {
	if len(args) != 3 {
		return errors.New("usage: gen DIR SEED PARAMS-JSON")
	}
	seed, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return err
	}
	var p params
	if err := json.Unmarshal([]byte(args[2]), &p); err != nil {
		return err
	}
	return generate(args[0], seed, p)
}

// treeHash digests the module's non-test Go sources and go.mod, so a
// cached campaign is never reused across a change to the code that
// generated it.
func treeHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer ioutil.CloseQuiet(f)
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// generate writes a complete campaign into dir.
func generate(dir string, seed uint64, p params) error {
	world, err := scenario.Build(scenario.Config{Seed: seed, ASes: p.ASes, MaxProbesPerAS: p.ProbesPerAS})
	if err != nil {
		return err
	}
	period := scenario.COVIDPeriod()
	m := manifest{Seed: seed, Params: p, Start: period.Start}
	m.End = m.Start.AddDate(0, 0, p.Days)
	m.Cut = m.Start.AddDate(0, 0, p.CutDay)

	fleets := make([][]*atlas.Probe, len(world.ASes))
	for i, a := range world.ASes {
		if fleets[i], err = world.ProbesFor(a, period); err != nil {
			return err
		}
	}
	capFleet(fleets, p.Probes)

	// Pass 1: each AS's records, time-sorted, as one wire run. Every
	// draw is keyed by (seed, probe, measurement, time), so ASes generate
	// independently and in any order.
	runs := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return err
	}
	eng := &atlas.Engine{Seed: seed, Measurements: atlas.BuiltinMeasurements()[:p.Msm]}
	spans, err := parallel.Map(context.Background(), runtime.GOMAXPROCS(0), len(fleets), func(i int) ([2]time.Time, error) {
		var recs []*traceroute.Result
		for _, pr := range fleets[i] {
			if err := eng.Run(pr, m.Start, m.End, func(r *traceroute.Result) error {
				recs = append(recs, r)
				return nil
			}); err != nil {
				return [2]time.Time{}, err
			}
		}
		if len(recs) == 0 {
			return [2]time.Time{}, nil
		}
		asn := world.ASes[i].Network.ASN
		sort.Slice(recs, func(a, b int) bool { return recordLess(asn, recs[a], asn, recs[b]) })
		return [2]time.Time{recs[0].Timestamp, recs[len(recs)-1].Timestamp},
			writeRun(filepath.Join(runs, runName(asn)), asn, recs)
	})
	if err != nil {
		return err
	}
	var infos []atlas.ProbeInfo
	var tMin, tMax time.Time
	for i, span := range spans {
		if span[0].IsZero() {
			continue
		}
		if tMin.IsZero() || span[0].Before(tMin) {
			tMin = span[0]
		}
		if span[1].After(tMax) {
			tMax = span[1]
		}
		m.ASNs = append(m.ASNs, world.ASes[i].Network.ASN)
		for _, pr := range fleets[i] {
			infos = append(infos, atlas.ProbeInfo{
				ID: pr.ID, ASNv4: pr.ASN, CountryCode: pr.CC, City: pr.City,
				IsAnchor: pr.IsAnchor, Version: pr.Version, Status: "Connected",
			})
			m.Probes++
		}
	}
	if len(m.ASNs) == 0 {
		return errors.New("campaign has no records")
	}

	// Pass 2: merge the runs into the time-sorted archive, feeding the
	// checkpoint monitor everything before the cut on the way.
	mon := stream.NewMonitor(p.streamOptions())
	if err := writeFile(filepath.Join(dir, archiveFile), func(w io.Writer) error {
		ww := wire.NewWriter(w, wire.StreamResults)
		err := mergeRuns(runs, m.ASNs, func(asn bgp.ASN, r *traceroute.Result) error {
			m.Records++
			if r.Timestamp.Before(m.Cut) {
				if err := mon.Observe(asn, r); err != nil {
					return err
				}
			} else {
				m.Live++
			}
			return ww.WriteResult(asn, r)
		})
		if err != nil {
			return err
		}
		return ww.Flush()
	}); err != nil {
		return err
	}
	if err := stream.NewCheckpointer(mon, filepath.Join(dir, checkpointFile)).Checkpoint(); err != nil {
		return err
	}
	registry, err := atlas.NewRegistry(infos)
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, metaFile), registry.WriteRegistry); err != nil {
		return err
	}

	// The reference survey, one AS at a time: ASes are independent, so
	// per-AS surveys over lmsurvey's period bounds equal one survey over
	// the whole campaign.
	start, end := surveyBounds(tMin, tMax)
	rows, err := parallel.Map(context.Background(), runtime.GOMAXPROCS(0), len(m.ASNs), func(i int) ([]surveyRow, error) {
		recs, err := readRun(filepath.Join(runs, runName(m.ASNs[i])))
		if err != nil {
			return nil, err
		}
		return referenceRows(recs, start, end)
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		m.Reference = append(m.Reference, r...)
	}
	if err := os.RemoveAll(runs); err != nil {
		return err
	}

	m.Files = map[string]string{}
	for _, name := range []string{archiveFile, metaFile, checkpointFile} {
		if m.Files[name], err = hashFile(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return writeFile(filepath.Join(dir, manifestFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// capFleet trims the fleet to at most limit probes by dropping the
// extra probes of the highest-numbered ASes first, so every AS keeps at
// least one probe.
func capFleet(fleets [][]*atlas.Probe, limit int) {
	if limit <= 0 {
		return
	}
	total := 0
	for _, f := range fleets {
		total += len(f)
	}
	for i := len(fleets) - 1; i >= 0 && total > limit; i-- {
		if n := len(fleets[i]); n > 1 {
			drop := min(n-1, total-limit)
			fleets[i] = fleets[i][:n-drop]
			total -= drop
		}
	}
}

// surveyBounds returns the period lmsurvey derives from the data: the
// earliest timestamp floored to a bin, the latest ceiled.
func surveyBounds(tMin, tMax time.Time) (start, end time.Time) {
	return tMin.Truncate(binWidth), tMax.Add(binWidth).Truncate(binWidth)
}

// recordLess is the campaign's total order: time, then AS, probe and
// measurement, so equal seeds give byte-identical archives.
func recordLess(aASN bgp.ASN, a *traceroute.Result, bASN bgp.ASN, b *traceroute.Result) bool {
	if !a.Timestamp.Equal(b.Timestamp) {
		return a.Timestamp.Before(b.Timestamp)
	}
	if aASN != bASN {
		return aASN < bASN
	}
	if a.ProbeID != b.ProbeID {
		return a.ProbeID < b.ProbeID
	}
	return a.MsmID < b.MsmID
}

func runName(asn bgp.ASN) string { return asn.String() + ".wire" }

// writeFile creates path, hands it to fill and closes it, reporting the
// first error.
func writeFile(path string, fill func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	return fill(f)
}

func writeRun(path string, asn bgp.ASN, recs []*traceroute.Result) error {
	return writeFile(path, func(w io.Writer) error {
		ww := wire.NewWriter(w, wire.StreamResults)
		for _, r := range recs {
			if err := ww.WriteResult(asn, r); err != nil {
				return err
			}
		}
		return ww.Flush()
	})
}

// readRun decodes a wire run into owned results.
func readRun(path string) ([]core.AttributedResult, error) {
	var out []core.AttributedResult
	err := scanArchive(path, func(asn bgp.ASN, r *traceroute.Result) error {
		out = append(out, core.AttributedResult{ASN: asn, Result: r.Clone()})
		return nil
	})
	return out, err
}

// scanArchive streams a wire archive through fn. The result is reused
// by the next record.
func scanArchive(path string, fn func(bgp.ASN, *traceroute.Result) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer ioutil.CloseQuiet(f)
	sc := wire.NewScanner(f)
	for sc.Scan() {
		if err := fn(sc.ASN(), sc.Result()); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runHead is one run's next record in the k-way merge.
type runHead struct {
	sc  *wire.Scanner
	asn bgp.ASN
}

type mergeHeap []runHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	return recordLess(h[i].asn, h[i].sc.Result(), h[j].asn, h[j].sc.Result())
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(runHead)) }
func (h *mergeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mergeRuns streams the per-AS runs through fn in campaign order.
func mergeRuns(dir string, asns []bgp.ASN, fn func(bgp.ASN, *traceroute.Result) error) error {
	var h mergeHeap
	for _, asn := range asns {
		f, err := os.Open(filepath.Join(dir, runName(asn)))
		if err != nil {
			return err
		}
		defer ioutil.CloseQuiet(f)
		sc := wire.NewScanner(f)
		if sc.Scan() {
			h = append(h, runHead{sc: sc, asn: asn})
		} else if err := sc.Err(); err != nil {
			return err
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		top := h[0]
		if err := fn(top.asn, top.sc.Result()); err != nil {
			return err
		}
		if top.sc.Scan() {
			heap.Fix(&h, 0)
			continue
		}
		if err := top.sc.Err(); err != nil {
			return err
		}
		heap.Pop(&h)
	}
	return nil
}
