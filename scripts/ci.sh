#!/usr/bin/env bash
# ci.sh — the checks a change must pass before merging.
#
#   1. gofmt -s -l + go vet   formatting and static checks, whole tree
#   2. fast-fail stages       vet + race on the hottest packages, then
#                             the RNG lint
#   3. go build               everything compiles, including cmd/
#   4. go test -race          full suite under the race detector
#   5. fuzzing                10s per Fuzz* target, in every package
#   6. benchmarks             every Benchmark* compiles and runs one
#      iteration (the heavy figure benchmarks are excluded by name; run
#      scripts/bench.sh for real numbers); a failing benchmark fails CI
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format + vet clean sweep (gofmt -s -l, go vet ./...) =="
# Formatting drift and vet findings are the cheapest checks in the file;
# run them before anything that compiles or executes tests.
if unformatted=$(gofmt -s -l cmd examples internal scripts 2>/dev/null); [ -n "$unformatted" ]; then
  echo "FAIL: gofmt -s -l reports unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi
go vet ./...

echo "== dataplane fast-fail (vet + race on flowmap/rules/httpsim/core/l4lb/tcpstore/memcache/reconfig/stateless) =="
# The compact flow-map layer, the compiled rule engine, the request
# parser it reads through, the write-barrier dataplane, the L4 mux
# refactored onto the flow map, its store client, the zero-copy
# memcached protocol+engine under it, the live reconfiguration engine,
# and the stateless derivation table the hybrid recovery mode trusts
# are where regressions bite hardest; vet and race them first so a
# broken index, barrier, parser, or cookie decode fails in seconds, not
# after the full suite.
go vet ./internal/flowmap/ ./internal/rules/ ./internal/httpsim/ ./internal/core/ ./internal/l4lb/ ./internal/tcpstore/ ./internal/memcache/ ./internal/reconfig/ ./internal/stateless/
go test -race ./internal/flowmap/ ./internal/rules/ ./internal/httpsim/ ./internal/core/ ./internal/l4lb/ ./internal/tcpstore/ ./internal/memcache/ ./internal/reconfig/ ./internal/stateless/

echo "== rng lint (grep fast-fail; TestNoStrayRNGConstruction is the test half) =="
# Only netsim (the network's RNG) and the trial-level drivers may
# construct generators; dataplane components must cache Network.Rand at
# build time, so every run reproduces from its seed.
if grep -rn --include='*.go' 'rand\.New(' cmd examples internal *.go 2>/dev/null \
  | grep -v '_test\.go:' \
  | grep -Ev '^internal/(netsim|trace|workload|experiments)/'; then
  echo "FAIL: rand.New outside the netsim/trace/workload/experiments allowlist" >&2
  exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== fuzzing (10s per Fuzz* target, every package) =="
# Every fuzz target go test lists: the differential fuzzers that pin each
# fast path to the reference kept in its test files (HTTP framers, flow
# map, rule engine, memcached session, burst and batch dispatch, cookie
# decode), plus the no-panic/round-trip fuzzers. A failing input lands in
# the package's testdata/fuzz as a regression. A listing failure fails CI.
for pkg in $(go list ./...); do
  targets=$(go test -list '^Fuzz' "$pkg")
  for target in $(awk '/^Fuzz/' <<<"$targets"); do
    go test -run '^$' -fuzz "^${target}\$" -fuzztime=10s "$pkg"
  done
done

echo "== benchmarks (1 iteration, smoke) =="
# go test's exit status decides the step; the output is filtered only
# for display, and shown in full when the step fails.
SMOKE_LOG="$(mktemp)"
smoke_rc=0
go test -run '^$' -bench '.' -benchtime=1x \
  -skip 'BenchmarkFig10|BenchmarkFig12|BenchmarkFig13|BenchmarkMemcachedRealTCP' \
  ./... >"$SMOKE_LOG" 2>&1 || smoke_rc=$?
grep -E '^(Benchmark|ok|FAIL)' "$SMOKE_LOG" || true
if [[ $smoke_rc -ne 0 ]]; then
  echo "FAIL: benchmark smoke exited $smoke_rc:" >&2
  cat "$SMOKE_LOG" >&2
  rm -f "$SMOKE_LOG"
  exit 1
fi
rm -f "$SMOKE_LOG"

echo "== bench regression gate (>15% vs BENCH_core.json fails) =="
# Guard the dataplane's headline numbers: the event-loop and flow
# fast-path microbenchmarks may not regress more than 15% over the
# recorded ns/op, and TCP bulk MB/s must stay within 15% of the recorded
# rate. Each leg reads its own baseline from the "current" section of
# BENCH_core.json; a missing baseline or a benchmark that reports no
# number fails the step. Every leg is reported before the step fails.
# Best-of-3 runs absorb machine noise; after an intentional perf change,
# re-baseline with scripts/bench.sh.
recorded() {
  local v
  v=$(awk -F'[:,]' -v k="\"$1\"" '/"current"/ {c=1} c && index($1, k) {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json)
  if [[ -z "$v" || "$v" == "null" ]]; then
    echo "FAIL: BENCH_core.json lacks a recorded $1" >&2
    return 1
  fi
  echo "$v"
}
REC_EVLOOP_NS=$(recorded event_loop_ns_op)
REC_FLOW_NS=$(recorded flow_fast_path_ns_op)
REC_TCP_MBS=$(recorded tcp_throughput_MB_s)
GATE_LOG="$(mktemp)"
go test -run '^$' -bench 'BenchmarkNetsimEventLoop$' -count=3 ./internal/netsim/ | tee "$GATE_LOG"
go test -run '^$' -bench 'BenchmarkFlowFastPath$' -count=3 ./internal/core/ | tee -a "$GATE_LOG"
go test -run '^$' -bench 'BenchmarkTCPThroughput$' -count=3 ./internal/tcp/ | tee -a "$GATE_LOG"
NEW_EVLOOP_NS=$(awk '$1 ~ /^BenchmarkNetsimEventLoop/ {if (min=="" || $3+0<min+0) min=$3} END{print min}' "$GATE_LOG")
NEW_FLOW_NS=$(awk '$1 ~ /^BenchmarkFlowFastPath/ {if (min=="" || $3+0<min+0) min=$3} END{print min}' "$GATE_LOG")
NEW_TCP_MBS=$(awk '$1 ~ /^BenchmarkTCPThroughput/ {for(i=1;i<NF;i++) if($(i+1)=="MB/s" && $i+0>max+0) max=$i} END{print max}' "$GATE_LOG")
rm -f "$GATE_LOG"
# gate <label> <measured> <recorded> <unit> <lower|higher is better>
gate() {
  awk -v l="$1" -v new="$2" -v rec="$3" -v u="$4" -v better="$5" 'BEGIN{
    if (new == "") { printf "FAIL: %s: the benchmark reported no %s\n", l, u; exit 1 }
    bad = (better == "lower") ? (new+0 > rec*1.15) : (new+0 < rec/1.15)
    if (bad) { printf "FAIL: %s %.1f %s vs recorded %.1f (>15%% regression)\n", l, new, u, rec; exit 1 }
    printf "%s %.1f %s vs recorded %.1f %s: ok\n", l, new, u, rec, u }'
}
gate_rc=0
gate "event loop" "$NEW_EVLOOP_NS" "$REC_EVLOOP_NS" ns/op lower || gate_rc=1
gate "flow fast path" "$NEW_FLOW_NS" "$REC_FLOW_NS" ns/op lower || gate_rc=1
gate "tcp throughput" "$NEW_TCP_MBS" "$REC_TCP_MBS" MB/s higher || gate_rc=1
if [[ $gate_rc -ne 0 ]]; then
  exit 1
fi

echo "CI PASS"
