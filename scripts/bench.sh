#!/usr/bin/env bash
# bench.sh — benchmark runner with benchstat-comparable output, plus a
# record mode that snapshots the hot-path numbers into BENCH_engine.json.
#
# Usage:
#
#   scripts/bench.sh                      # every bench, 5 samples each
#   scripts/bench.sh BenchmarkSurveys     # one bench family
#   COUNT=10 scripts/bench.sh BenchmarkFig2 > new.txt
#   scripts/bench.sh record               # rewrite BENCH_engine.json
#
# Each benchmark is sampled COUNT times (default 5) so the output feeds
# straight into benchstat:
#
#   git stash && scripts/bench.sh > old.txt && git stash pop
#   scripts/bench.sh > new.txt
#   benchstat old.txt new.txt
#
# The worker-count sub-benchmarks (BenchmarkSurveys/workers=N,
# BenchmarkTokyo/workers=N) compare the serial baseline against the
# pooled run; on a multi-core machine the pooled rows should scale with
# physical parallelism, while allocs/op stays flat across widths. The
# shard-count sub-benchmarks (BenchmarkMonitorObserve/shards=N) compare
# single-stripe against striped ingestion into the streaming engine —
# the shards=8 row should beat shards=1 under concurrent load while
# allocs/op stays flat.
#
# Record mode re-measures the hot-path benchmarks — engine ingestion
# (BenchmarkMonitorObserve), the Fig-2 DSP pipeline (BenchmarkFig2), and
# the engine state codec (BenchmarkSnapshot, whose MB/s column is
# snapshot bytes over serialize wall time) — and
# rewrites BENCH_engine.json at the repo root. The ingest rows run
# long (200000 iterations per shard width) so pool warm-up and map
# growth amortise to their steady state; the checked-in allocs_per_op of
# 0 for the ingest rows is the zero-alloc hot-path contract in data
# form, and check.sh asserts it independently.
#
# Record mode also re-measures the decode path (BenchmarkIngest*: stdlib
# JSON vs the zero-alloc JSON parser vs the binary wire decoder, plus
# the end-to-end archive replays) and rewrites BENCH_ingest.json. Those
# rows carry MB/s so the JSON-vs-binary decode ratio is visible in the
# snapshot; the 0 allocs_per_op on the two Decode rows (JSON and Wire,
# not Stdlib) is the decode hot-path contract check.sh gates.
set -euo pipefail
cd "$(dirname "$0")/.."

# render_json RAW OUT NOTE — turn `go test -bench` result lines like
#   BenchmarkMonitorObserve/shards=1-8  200000  591.0 ns/op  288 B/op  0 allocs/op
# into a JSON array in run order, values floored to integers so the
# checked-in snapshot diffs cleanly. Rows with a MB/s column (benches
# that call b.SetBytes) gain an mb_per_s field.
render_json() {
  awk -v note="$3" '
    /^Benchmark/ && /allocs\/op/ {
      name = $1
      sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
      ns = ""; bytes = ""; allocs = ""; mbs = ""
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "MB/s")      mbs = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
      }
      n++
      line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %d", name, ns)
      if (mbs != "") line = line sprintf(", \"mb_per_s\": %d", mbs)
      line = line sprintf(", \"bytes_per_op\": %d, \"allocs_per_op\": %d}", bytes, allocs)
      lines[n] = line
    }
    END {
      printf "{\n"
      printf "  \"note\": \"%s\",\n", note
      printf "  \"benchmarks\": [\n"
      for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "")
      printf "  ]\n}\n"
    }
  ' "$1" > "$2"
  echo "==> wrote $2" >&2
  cat "$2"
}

record() {
  local raw
  raw="$(mktemp)"
  trap 'rm -f "$raw"' RETURN

  echo "==> measuring BenchmarkMonitorObserve (200000 iterations/shard width)" >&2
  go test -run '^$' -bench 'BenchmarkMonitorObserve' -benchmem -benchtime 200000x -count=1 . | tee -a "$raw" >&2
  echo "==> measuring BenchmarkFig2 (500 iterations)" >&2
  go test -run '^$' -bench 'BenchmarkFig2$' -benchmem -benchtime 500x -count=1 . | tee -a "$raw" >&2
  echo "==> measuring BenchmarkSnapshot (engine state codec)" >&2
  go test -run '^$' -bench 'BenchmarkSnapshot$' -benchmem -count=1 ./internal/engine | tee -a "$raw" >&2
  render_json "$raw" BENCH_engine.json \
    "hot-path benchmark snapshot; regenerate with scripts/bench.sh record"

  : > "$raw"
  echo "==> measuring BenchmarkIngest* (decode + replay, 200 iterations)" >&2
  go test -run '^$' -bench 'BenchmarkIngest' -benchmem -benchtime 200x -count=1 . | tee -a "$raw" >&2
  render_json "$raw" BENCH_ingest.json \
    "ingest decode benchmark snapshot (one op = one synthetic campaign day); regenerate with scripts/bench.sh record"
}

if [[ "${1:-}" == "record" ]]; then
  record
  exit 0
fi

pattern="${1:-.}"
count="${COUNT:-5}"

exec go test -run '^$' -bench "$pattern" -benchmem -count "$count" .
