#!/usr/bin/env bash
# check.sh — the pre-PR gate. Chains the build, go vet, the repo's own
# lmvet static-analysis suite, the full test run under the race
# detector, a focused race-stress pass over the parallel execution
# paths, and a one-iteration benchmark smoke run. Any stage failing
# fails the gate; the failing stage is named on stderr and every stage's
# wall-clock time is reported either way.
set -euo pipefail
cd "$(dirname "$0")/.."

# Stage bookkeeping: stage NAME starts a named stage (closing the
# previous one), the EXIT trap closes the last stage, names the failing
# one on a non-zero exit, and prints the timing table.
STAGE=""
STAGE_START=0
SUMMARY=""

stage_done() {
  if [ -n "${STAGE}" ]; then
    SUMMARY+=$(printf '  %4ds  %s' "$(( SECONDS - STAGE_START ))" "${STAGE}")$'\n'
  fi
}

stage() {
  stage_done
  STAGE="$1"
  STAGE_START=${SECONDS}
  echo "==> ${STAGE}"
}

on_exit() {
  local status=$?
  stage_done
  if [ "${status}" -ne 0 ] && [ -n "${STAGE}" ]; then
    echo "check.sh: FAILED at stage \"${STAGE}\" (exit ${status})" >&2
  fi
  if [ -n "${SUMMARY}" ]; then
    echo "-- stage timings (wall clock) --"
    printf '%s' "${SUMMARY}"
  fi
}
trap on_exit EXIT

stage "go build ./..."
go build ./...

stage "go vet ./..."
go vet ./...

stage "lmvet ./..."
mkdir -p artifacts
go run ./cmd/lmvet -baseline lmvet.baseline -sarif artifacts/lmvet.sarif ./...

stage "go test -race ./..."
go test -race ./...

# The worker pool and the multi-worker survey/Tokyo paths get a second,
# dedicated -race pass with caching disabled: scheduling differs run to
# run, so fresh executions are what surface ordering bugs.
stage "go test -race -count=1 (parallel paths)"
go test -race -count=1 ./internal/parallel/
go test -race -count=1 -run 'TestRunSurveyParallelMatchesSerial' ./internal/scenario/
go test -race -count=1 -run 'WorkerEquivalence' ./internal/experiments/

# The unified engine's determinism contract: batch surveys are a replay
# of the streaming engine, bit for bit, at every shard and worker count,
# and out-of-order ingestion within MaxLateness changes nothing.
stage "go test -race -count=1 (engine equivalence)"
go test -race -count=1 ./internal/engine/
go test -race -count=1 -run 'ReplayEquivalence' ./internal/experiments/
go test -race -count=1 -run 'Equivalence|OutOfOrder' ./internal/core/ ./internal/stream/

# The serializable-state contract: a K-way split-and-merge survey and a
# snapshot/restore/continue monitor both reproduce single-engine
# verdicts bit for bit, under the race detector and uncached so the
# parallel map phase reschedules every run.
stage "go test -race -count=1 (merge equivalence)"
go test -race -count=1 -run 'SplitMerge|SnapshotRestore|ShardedEquivalence' \
  ./internal/core/ ./internal/experiments/
go test -race -count=1 -run 'Checkpoint|RestoreMonitor' ./internal/stream/
go test -race -count=1 -run 'ResumeAfterInterrupt' ./cmd/lmmonitor/
go test -race -count=1 ./cmd/lmsurvey/

# Telemetry registry: a dedicated uncached -race stress pass — eight
# goroutines hammer one registry while snapshots render concurrently,
# and snapshots must be byte-identical at every worker count.
stage "go test -race -count=1 (telemetry stress)"
go test -race -count=1 ./internal/telemetry/

# Daemon soak: the short-mode deterministic soak drives simulated days
# through the lmserved lifecycle — reloads mid-window, target churn, a
# SIGHUP storm, kill-and-resume — and pins the final verdicts
# bit-identical to a batch replay of the same observations. Uncached and
# under -race: goroutine scheduling is the variable under test. The
# watchdog and API suites ride along for the same reason.
stage "serve-soak (deterministic daemon soak under -race)"
go test -race -count=1 -short -run 'TestServeSoakEquivalence' ./internal/serve/
go test -race -count=1 -run 'TestAPIConcurrentReadsDuringIngest' ./internal/serve/
go test -race -count=1 -run 'TestRunWatchdogForcesFlush|TestRunInterruptFlushesOnce' ./cmd/lmmonitor/

# Fuzz smoke: short coverage-guided runs over the two ingest decoders —
# the Atlas JSON parser (which also differential-tests the zero-alloc
# parser against encoding/json) and the binary wire codec's round-trip
# target. Seeds (testdata/fuzz + f.Add) always run under plain
# `go test`; these stages give the mutator a few seconds to hunt for
# fresh panics.
stage "go test -fuzz (Atlas JSON parser, 5s smoke)"
go test -run '^$' -fuzz 'FuzzParseAtlasJSON' -fuzztime 5s ./internal/traceroute/
stage "go test -fuzz (wire codec, 5s smoke)"
go test -run '^$' -fuzz 'FuzzWireRoundTrip' -fuzztime 5s ./internal/wire/

# Benchmark smoke: every bench must still run one iteration cleanly.
stage "go test -bench (smoke, 1 iteration)"
go test -run '^$' -bench . -benchtime 1x .

# Hot-path gate, static half: the dataflow analyzers alone, promoted to
# error severity, so an allocation or lock-order regression on an
# annotated path fails the gate even if some future default demotes
# either analyzer to warn.
stage "lmvet hot-path gate (allocguard+lockorder at error severity)"
go run ./cmd/lmvet \
  -floatcmp=false -nanguard=false -detguard=false -dettaint=false \
  -locksafe=false -errclose=false -poolsafe=false -metricsafe=false \
  -goleak=false -chanprotocol=false -ctxflow=false \
  -severity allocguard=error,lockorder=error \
  -baseline lmvet.baseline ./...

# Concurrency-lifecycle gate: the goflow analyzers alone, promoted to
# error severity — a goroutine leak, a channel-protocol violation, or an
# unthreaded Context anywhere in the module fails the gate.
stage "lmvet concurrency gate (goleak+chanprotocol+ctxflow at error severity)"
go run ./cmd/lmvet \
  -floatcmp=false -nanguard=false -detguard=false -dettaint=false \
  -locksafe=false -errclose=false -poolsafe=false -metricsafe=false \
  -allocguard=false -lockorder=false \
  -severity goleak=error,chanprotocol=error,ctxflow=error \
  -baseline lmvet.baseline ./...

# Hot-path gate, dynamic half: the ingest benchmark must report exactly
# 0 allocs/op at every shard width. 200000 uncached iterations amortise
# pool warm-up and window-map growth to steady state — the same
# measurement scripts/bench.sh record checks into BENCH_engine.json.
stage "zero-alloc ingest gate (BenchmarkMonitorObserve, BenchmarkSurveyFeed, 0 allocs/op)"
go test -run '^$' -bench 'BenchmarkMonitorObserve|BenchmarkSurveyFeed' -benchmem -benchtime 200000x -count=1 . \
  | tee /dev/stderr \
  | awk '
      /^Benchmark/ && /allocs\/op/ {
        rows++
        for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) != "0") bad++
      }
      END {
        if (rows == 0) { print "zero-alloc gate: no benchmark rows parsed" > "/dev/stderr"; exit 1 }
        if (bad > 0)   { print "zero-alloc gate: " bad " row(s) allocate on the hot path" > "/dev/stderr"; exit 1 }
      }'

# Decode hot-path gate: the two steady-state decode benches — the
# zero-alloc JSON parser and the binary wire decoder — must each report
# exactly 0 allocs/op. One op decodes a full synthetic campaign day
# (~576 results) into a reused Result, so 200 iterations amortise
# scratch growth to steady state. BenchmarkIngestDecodeJSONStdlib is the
# encoding/json baseline and is deliberately excluded.
stage "zero-alloc decode gate (BenchmarkIngestDecode{JSON,Wire}, 0 allocs/op)"
go test -run '^$' -bench 'BenchmarkIngestDecodeJSON$|BenchmarkIngestDecodeWire$' \
  -benchmem -benchtime 200x -count=1 . \
  | tee /dev/stderr \
  | awk '
      /^Benchmark/ && /allocs\/op/ {
        rows++
        for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) != "0") bad++
      }
      END {
        if (rows != 2) { print "decode gate: expected 2 benchmark rows, parsed " rows > "/dev/stderr"; exit 1 }
        if (bad > 0)   { print "decode gate: " bad " row(s) allocate on the decode hot path" > "/dev/stderr"; exit 1 }
      }'

stage_done
STAGE=""
echo "==> all checks passed"
