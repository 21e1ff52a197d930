#!/usr/bin/env bash
# check.sh — the pre-PR gate. Chains the build, go vet, a gofmt check
# of every tracked Go file outside testdata/, the repo's own lmvet
# static-analysis suite, the full test run under the race detector, a
# focused race-stress pass over the parallel execution paths, a
# one-iteration benchmark smoke run, the zero-alloc gates, and the
# bench/ module's vet and self-test. Every -run and -fuzz pattern must
# select at least one test in each package it names. Any stage failing
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

# require_tests PATTERN PKG... fails unless `go test -list PATTERN` names
# at least one test, benchmark or fuzz target in every PKG. go test
# passes when its -run or -fuzz pattern matches nothing, so a renamed or
# deleted test would otherwise leave a stage silently testing nothing.
require_tests() {
  local pattern="$1" pkg names
  shift
  for pkg in "$@"; do
    names=$(go test -list "${pattern}" "${pkg}")
    if ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"${names}"; then
      echo "check.sh: pattern '${pattern}' selects no test in ${pkg}" >&2
      return 1
    fi
  done
}

# race_run [FLAG...] PATTERN PKG... runs the tests PATTERN selects,
# uncached and under the race detector, once require_tests has found
# them in every PKG. Leading FLAGs pass through to go test.
race_run() {
  local flags=()
  while [[ "$1" == -* ]]; do
    flags+=("$1")
    shift
  done
  local pattern="$1"
  shift
  require_tests "${pattern}" "$@"
  go test -race -count=1 ${flags[@]+"${flags[@]}"} -run "${pattern}" "$@"
}

# fuzz_smoke TARGET PKG gives the fuzz target TARGET five seconds of
# coverage-guided mutation, once require_tests has found it.
fuzz_smoke() {
  require_tests "$1" "$2"
  go test -run '^$' -fuzz "$1" -fuzztime 5s "$2"
}

stage "go build ./..."
go build ./...

stage "go vet ./..."
go vet ./...

# Formatting: every tracked Go file must be gofmt-clean, except under
# testdata/, which holds a deliberately unparsable lmvet fixture and
# analysis fixtures whose `// want` comments pin line positions.
stage "gofmt -l (tracked .go files outside testdata/)"
unformatted=$(git ls-files '*.go' | grep -Ev '(^|/)testdata/' | xargs gofmt -l)
if [ -n "${unformatted}" ]; then
  echo "gofmt: these files need formatting:" >&2
  echo "${unformatted}" >&2
  exit 1
fi

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
race_run 'TestRunSurveyParallelMatchesSerial' ./internal/scenario/
race_run 'WorkerEquivalence' ./internal/experiments/

# The unified engine's determinism contract: batch surveys are a replay
# of the streaming engine, bit for bit, at every shard and worker count,
# and out-of-order ingestion within MaxLateness changes nothing.
stage "go test -race -count=1 (engine equivalence)"
go test -race -count=1 ./internal/engine/
race_run 'ReplayEquivalence' ./internal/experiments/
race_run 'Equivalence|OutOfOrder' ./internal/core/ ./internal/stream/

# The serializable-state contract: a snapshot/restore/continue monitor
# reproduces the uninterrupted monitor's verdicts bit for bit, under the
# race detector and uncached. Engine merging is pinned in the engine
# package, which the stage above runs in full.
stage "go test -race -count=1 (merge equivalence)"
race_run 'SnapshotRestore' ./internal/experiments/
race_run 'Checkpoint|RestoreMonitor' ./internal/stream/
race_run 'ResumeAfterInterrupt' ./cmd/lmmonitor/
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
race_run -short 'TestServeSoakEquivalence' ./internal/serve/
race_run 'TestAPIConcurrentReadsDuringIngest' ./internal/serve/
race_run 'TestRunWatchdogForcesFlush|TestRunInterruptFlushesOnce' ./cmd/lmmonitor/

# Fuzz smoke: short coverage-guided runs over the two ingest decoders —
# the Atlas JSON parser (which also differential-tests the zero-alloc
# parser against encoding/json) and the binary wire codec's round-trip
# target. Seeds (testdata/fuzz + f.Add) always run under plain
# `go test`; these stages give the mutator a few seconds to hunt for
# fresh panics.
stage "go test -fuzz (Atlas JSON parser, 5s smoke)"
fuzz_smoke 'FuzzParseAtlasJSON' ./internal/traceroute/
stage "go test -fuzz (wire codec, 5s smoke)"
fuzz_smoke 'FuzzWireRoundTrip' ./internal/wire/

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

# Codec hot-path gate: the three steady-state codec benches — the
# zero-alloc JSON parser, the binary wire decoder and the Atlas JSON
# encoder — must each report exactly 0 allocs/op. One op decodes (or
# encodes) a full synthetic campaign day (~576 results) into a reused
# Result (or through one reused Writer), so 200 iterations amortise
# scratch growth to steady state. BenchmarkIngestDecodeJSONStdlib is the
# encoding/json baseline and is deliberately excluded.
stage "zero-alloc codec gate (BenchmarkIngest{DecodeJSON,DecodeWire,EncodeJSON}, 0 allocs/op)"
go test -run '^$' -bench 'BenchmarkIngestDecodeJSON$|BenchmarkIngestDecodeWire$|BenchmarkIngestEncodeJSON$' \
  -benchmem -benchtime 200x -count=1 . \
  | tee /dev/stderr \
  | awk '
      /^Benchmark/ && /allocs\/op/ {
        rows++
        for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) != "0") bad++
      }
      END {
        if (rows != 3) { print "codec gate: expected 3 benchmark rows, parsed " rows > "/dev/stderr"; exit 1 }
        if (bad > 0)   { print "codec gate: " bad " row(s) allocate on the codec hot path" > "/dev/stderr"; exit 1 }
      }'

# bench/ is a module of its own, so the go build, vet and test stages
# above never compile it, though it drives the survey, daemon and codec
# APIs. Vet and self-test it offline, in bench/run.sh's environment.
stage "bench/ module (go vet, go test)"
GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local go vet -C bench ./...
GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local go test -C bench -count=1 ./...

stage_done
STAGE=""
echo "==> all checks passed"
