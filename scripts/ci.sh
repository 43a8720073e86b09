#!/usr/bin/env bash
# ci.sh — the checks a change must pass before merging.
#
#   1. gofmt -s -l + go vet   formatting and static checks, whole tree
#   2. fast-fail stages       vet + race on the hottest packages, then
#                             the 4-shard race runs and the RNG lint
#   3. go build               everything compiles, including cmd/
#   4. go test -race          full suite under the race detector
#   5. fuzzing                10s per httpsim parser fuzz target
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

echo "== sharded dataplane fast-fail (race at 4 shards: netsim + l4lb SNAT + whole-stack e2e) =="
# The conservative-sync coordinator is lock-free by design (happens-before
# comes only from the round barriers), so the race detector on a 4-shard
# run is the proof the handoff discipline holds end to end. The l4lb run
# covers cross-shard SNAT-range reads against the mux flow tables.
go test -race ./internal/netsim/ -args -shards=4
go test -race -run 'TestSharded' ./internal/l4lb/ -args -shards=4
go test -race -run 'TestSharded' ./internal/core/ -args -shards=4
# Cross-shard batched ingest: handoff bursts ride trains into the batch
# demux path on the receiving shard; the race run proves batch dispatch
# added no cross-shard sharing.
go test -race -run 'TestShardedBatchIngest' ./internal/tcp/
# Hybrid recovery at 4 shards: exact recovery (recovered == deadFlows,
# zero leaks, zero drops, zero pending) with proof-gated adoption.
go test -race -run 'TestMflowHybrid' ./internal/experiments/

echo "== rng lint (grep fast-fail; TestNoStrayRNGConstruction is the test half) =="
# Only netsim (per-shard RNGs) and the trial-level drivers may construct
# generators; dataplane components must cache Network.Rand at build time.
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

echo "== parser fuzzing (10s per target) =="
# The streaming HTTP framers against the reference parsers kept in
# parser_reference_test.go, plus the no-panic/round-trip fuzzers. A
# failing input lands in internal/httpsim/testdata/fuzz as a regression.
for target in FuzzRequestParser FuzzResponseParser FuzzRequestParserDifferential FuzzResponseParserDifferential; do
  go test -run '^$' -fuzz "^${target}\$" -fuzztime=10s ./internal/httpsim/
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
# recorded ns/op, and mflow events/s plus TCP bulk MB/s must stay
# within 15% of the recorded rates. Best-of-3 runs absorb machine
# noise; after an intentional perf change, re-baseline with
# scripts/bench.sh.
REC_EVLOOP_NS=$(awk -F'[:,]' '/"event_loop_ns_op"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_MFLOW_EPS=$(awk -F'[:,]' '/"mflow_events_per_s"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_FLOW_NS=$(awk -F'[:,]' '/"flow_fast_path_ns_op"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_TCP_MBS=$(awk -F'[:,]' '/"tcp_throughput_MB_s"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
if [[ -z "${REC_EVLOOP_NS:-}" || "$REC_EVLOOP_NS" == "null" || -z "${REC_MFLOW_EPS:-}" || "$REC_MFLOW_EPS" == "null" ]]; then
  echo "SKIP: BENCH_core.json lacks recorded event_loop_ns_op / mflow_events_per_s"
else
  GATE_LOG="$(mktemp)"
  go test -run '^$' -bench 'BenchmarkNetsimEventLoop$' -count=3 ./internal/netsim/ | tee "$GATE_LOG"
  go test -run '^$' -bench 'BenchmarkMflowMemPerFlow' -benchtime 1x -count=3 ./internal/experiments/ | tee -a "$GATE_LOG"
  go test -run '^$' -bench 'BenchmarkFlowFastPath$' -count=3 ./internal/core/ | tee -a "$GATE_LOG"
  go test -run '^$' -bench 'BenchmarkTCPThroughput$' -count=3 ./internal/tcp/ | tee -a "$GATE_LOG"
  NEW_EVLOOP_NS=$(awk '$1 ~ /^BenchmarkNetsimEventLoop/ {if (min=="" || $3+0<min+0) min=$3} END{print min}' "$GATE_LOG")
  NEW_MFLOW_EPS=$(awk '$1 ~ /^BenchmarkMflowMemPerFlow/ {for(i=1;i<NF;i++) if($(i+1)=="events/s" && $i+0>max+0) max=$i} END{print max}' "$GATE_LOG")
  NEW_FLOW_NS=$(awk '$1 ~ /^BenchmarkFlowFastPath/ {if (min=="" || $3+0<min+0) min=$3} END{print min}' "$GATE_LOG")
  NEW_TCP_MBS=$(awk '$1 ~ /^BenchmarkTCPThroughput/ {for(i=1;i<NF;i++) if($(i+1)=="MB/s" && $i+0>max+0) max=$i} END{print max}' "$GATE_LOG")
  rm -f "$GATE_LOG"
  awk -v new="$NEW_EVLOOP_NS" -v rec="$REC_EVLOOP_NS" 'BEGIN{
    if (new+0 > rec*1.15) { printf "FAIL: event loop %.1f ns/op vs recorded %.1f (>15%% regression)\n", new, rec; exit 1 }
    printf "event loop %.1f ns/op vs recorded %.1f ns/op: ok\n", new, rec }'
  awk -v new="$NEW_MFLOW_EPS" -v rec="$REC_MFLOW_EPS" 'BEGIN{
    if (new+0 < rec/1.15) { printf "FAIL: mflow %.0f events/s vs recorded %.0f (>15%% regression)\n", new, rec; exit 1 }
    printf "mflow %.0f events/s vs recorded %.0f events/s: ok\n", new, rec }'
  if [[ -n "${REC_FLOW_NS:-}" && "$REC_FLOW_NS" != "null" ]]; then
    awk -v new="$NEW_FLOW_NS" -v rec="$REC_FLOW_NS" 'BEGIN{
      if (new+0 > rec*1.15) { printf "FAIL: flow fast path %.1f ns/op vs recorded %.1f (>15%% regression)\n", new, rec; exit 1 }
      printf "flow fast path %.1f ns/op vs recorded %.1f ns/op: ok\n", new, rec }'
  fi
  if [[ -n "${REC_TCP_MBS:-}" && "$REC_TCP_MBS" != "null" ]]; then
    awk -v new="$NEW_TCP_MBS" -v rec="$REC_TCP_MBS" 'BEGIN{
      if (new+0 < rec/1.15) { printf "FAIL: tcp throughput %.1f MB/s vs recorded %.1f (>15%% regression)\n", new, rec; exit 1 }
      printf "tcp throughput %.1f MB/s vs recorded %.1f MB/s: ok\n", new, rec }'
  fi
fi

echo "CI PASS"
