#!/usr/bin/env bash
# check.sh — the pre-PR gate. Chains the build, go vet, a gofmt check
# of every tracked Go file outside testdata/, the repo's own lmvet
# static-analysis suite, one uncached run of every test under the race
# detector, repeated runs of the daemon soak, fuzz smokes, a
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
go run ./cmd/lmvet -sarif artifacts/lmvet.sarif ./...

# Every test once, uncached and under the race detector: scheduling
# differs run to run, so fresh executions are what surface ordering
# bugs. This run holds the equivalence suites (batch = stream = sharded
# = snapshot/resume = daemon, serial = parallel), the registry stress
# and the daemon's lifecycle tests.
stage "go test -race -count=1 ./..."
go test -race -count=1 ./...

# Daemon soak, repeated: the deterministic soak drives simulated days
# through the daemon lifecycle — reloads mid-window, target churn, a
# SIGHUP storm, kill-and-resume — and pins the final verdicts
# bit-identical to a batch replay of the same observations. Goroutine
# scheduling is the variable under test, so it runs again in short mode
# and five more times at its full sampling cadence. The consistent-cut
# test runs ten times: it checkpoints while targets ingest, so each run
# samples different interleavings.
stage "serve-soak (deterministic daemon soak under -race)"
race_run -short 'TestServeSoakEquivalence' ./internal/serve/
race_run -count=5 'TestServeSoakEquivalence' ./internal/serve/
race_run -count=10 'TestDaemonCheckpointConsistentCut' ./internal/serve/

# Fuzz smoke: short coverage-guided runs over the two ingest decoders —
# the Atlas JSON parser (which also differential-tests the zero-alloc
# parser against encoding/json) and the binary wire codec's round-trip
# target — over the parallel JSONL and wire decodes, each of which must
# hand fn what its per-record Scanner loop hands it and return the
# loop's error, and over engine restore, which canonicalises every bin it reads
# (Snapshot -> Restore -> Snapshot must be a fixed point). Seeds
# (testdata/fuzz + f.Add) always run under plain `go test`; these stages
# give the mutator a few seconds to hunt for fresh panics.
stage "go test -fuzz (Atlas JSON parser, 5s smoke)"
fuzz_smoke 'FuzzParseAtlasJSON' ./internal/traceroute/
stage "go test -fuzz (parallel JSONL decode against the Scanner, 5s smoke)"
fuzz_smoke 'FuzzScanAllMatchesScanner' ./internal/traceroute/
stage "go test -fuzz (wire codec, 5s smoke)"
fuzz_smoke 'FuzzWireRoundTrip' ./internal/wire/
stage "go test -fuzz (parallel wire decode against the Scanner, 5s smoke)"
fuzz_smoke 'FuzzScanAllMatchesScanner' ./internal/wire/
stage "go test -fuzz (engine restore, 5s smoke)"
fuzz_smoke 'FuzzEngineRestore' ./internal/engine/

# Benchmark smoke: every bench must still run one iteration cleanly.
stage "go test -bench (smoke, 1 iteration)"
go test -run '^$' -bench . -benchtime 1x .

# Hot-path gate: the ingest benchmarks must report exactly 0 allocs/op
# at one and at eight engine stripes; lmvet's allocguard is the static
# half. The monitor's stripe count follows GOMAXPROCS, so `-cpu 1,8`
# runs each benchmark at both widths: go test names the GOMAXPROCS=8
# row with a -8 suffix and the GOMAXPROCS=1 row with none, and the gate
# fails unless it parses a row of each. 200000 uncached iterations
# amortise pool warm-up and the growth of bin storage to steady state.
# For whole-pipeline numbers, record runs with
# `bash bench/run.sh --record` and judge them with
# `bash bench/run.sh compare`.
#
# Each gate captures go test's output once, prints it, and parses the
# same text. Piping through `tee /dev/stderr` instead would reopen the
# log at offset 0 under `check.sh > log 2>&1` and overwrite every
# earlier stage's output.
stage "zero-alloc ingest gate (BenchmarkMonitorObserve, BenchmarkSurveyFeed, 0 allocs/op at -cpu 1,8)"
out=$(go test -run '^$' -bench 'BenchmarkMonitorObserve|BenchmarkSurveyFeed' -benchmem -benchtime 200000x -count=1 -cpu 1,8 .)
printf '%s\n' "${out}"
awk '
      /^Benchmark/ && /allocs\/op/ {
        rows++
        width[$1 ~ /-8$/ ? 8 : 1]++
        for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) != "0") bad++
      }
      END {
        if (rows == 0) { print "zero-alloc gate: no benchmark rows parsed" > "/dev/stderr"; exit 1 }
        if (!(1 in width) || !(8 in width)) { print "zero-alloc gate: no row at GOMAXPROCS " ((1 in width) ? 8 : 1) > "/dev/stderr"; exit 1 }
        if (bad > 0)   { print "zero-alloc gate: " bad " row(s) allocate on the hot path" > "/dev/stderr"; exit 1 }
      }' <<<"${out}"

# Codec hot-path gate: the three steady-state codec benches — the
# zero-alloc JSON parser, the binary wire decoder and the Atlas JSON
# encoder — must each report exactly 0 allocs/op. One op decodes (or
# encodes) a full synthetic campaign day (~576 results) into a reused
# Result (or through one reused Writer), so 200 iterations amortise
# scratch growth to steady state. BenchmarkIngestDecodeJSONStdlib is the
# encoding/json baseline and is deliberately excluded.
stage "zero-alloc codec gate (BenchmarkIngest{DecodeJSON,DecodeWire,EncodeJSON}, 0 allocs/op)"
out=$(go test -run '^$' -bench 'BenchmarkIngestDecodeJSON$|BenchmarkIngestDecodeWire$|BenchmarkIngestEncodeJSON$' \
  -benchmem -benchtime 200x -count=1 .)
printf '%s\n' "${out}"
awk '
      /^Benchmark/ && /allocs\/op/ {
        rows++
        for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) != "0") bad++
      }
      END {
        if (rows != 3) { print "codec gate: expected 3 benchmark rows, parsed " rows > "/dev/stderr"; exit 1 }
        if (bad > 0)   { print "codec gate: " bad " row(s) allocate on the codec hot path" > "/dev/stderr"; exit 1 }
      }' <<<"${out}"

# bench/ is a module of its own, so the go build, vet and test stages
# above never compile it, though it drives the survey, daemon and codec
# APIs. Vet and self-test it offline, in bench/run.sh's environment.
stage "bench/ module (go vet, go test)"
GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local go vet -C bench ./...
GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local go test -C bench -count=1 ./...

stage_done
STAGE=""
echo "==> all checks passed"
