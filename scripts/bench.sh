#!/usr/bin/env bash
# bench.sh — run the simulator-core performance suite and emit BENCH_core.json.
#
# Runs the microbenchmarks (event loop, timer churn, TCP throughput, flow
# fast path, whole-sim throughput) at full benchtime plus the three figure
# benchmarks (Fig 10/12/13) at one iteration each, then writes a JSON
# summary comparing against the recorded seed (pre-fast-path) baselines.
#
# Usage: scripts/bench.sh [output.json]
#   FAST=1 scripts/bench.sh   # skip the figure benchmarks (~4 min saved)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_core.json}"
MICRO_LOG="$(mktemp)"
FIG_LOG="$(mktemp)"
trap 'rm -f "$MICRO_LOG" "$FIG_LOG"' EXIT

echo "== micro-benchmarks =="
go test -run '^$' -bench \
  'BenchmarkNetsimEventLoop|BenchmarkNetsimTimerChurn|BenchmarkHostDemux|BenchmarkHostAllocPort' \
  -benchmem ./internal/netsim/ | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkTCPThroughput|BenchmarkTCPBatchRx' -benchmem \
  ./internal/tcp/ | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkFlowFastPath|BenchmarkStorageWritePath' -benchmem \
  ./internal/core/ | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkStoreRoundTripsPerFlow|BenchmarkEventsPerFlow' -benchtime 1x \
  ./internal/core/ | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkMemcacheSession' -benchmem \
  ./internal/memcache/ | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkSimulatorThroughput' -benchmem \
  . | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkStorageB' -benchtime 2000x \
  ./internal/tcpstore/ | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkRuleSelect(Reference)?/rules=1000$' \
  -benchmem ./internal/rules/ | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkReconfigMigration' -benchtime 3x \
  ./internal/reconfig/ | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkFlowmapLookup|BenchmarkFlowmapChurn' -benchmem \
  ./internal/flowmap/ | tee -a "$MICRO_LOG"
go test -run '^$' -bench 'BenchmarkFlowmapMemPerFlow' -benchtime 1x \
  ./internal/flowmap/ | tee -a "$MICRO_LOG"

if [[ "${FAST:-0}" != "1" ]]; then
  echo "== figure benchmarks (one run each; Fig13 takes minutes) =="
  go test -run '^$' -bench \
    'BenchmarkFig10TCPStoreLatency|BenchmarkFig12FailureRecovery|BenchmarkFig13Scalability' \
    -benchtime=1x -timeout 30m . | tee "$FIG_LOG"
fi

# pick <log> <BenchmarkName> <field-index-after-name>: extract one numeric
# column from a `go test -bench` output line.
pick() { awk -v b="$2" -v f="$3" '$1 ~ "^"b {print $(f)}' "$1" | head -1; }

EVLOOP_NS="$(pick "$MICRO_LOG" BenchmarkNetsimEventLoop 3)"
EVLOOP_EPS="$(pick "$MICRO_LOG" BenchmarkNetsimEventLoop 5)"
EVLOOP_ALLOCS="$(awk '$1 ~ /^BenchmarkNetsimEventLoop/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
TIMER_NS="$(pick "$MICRO_LOG" BenchmarkNetsimTimerChurn 3)"
TCP_MBS="$(awk '$1 ~ /^BenchmarkTCPThroughput/ {for(i=1;i<NF;i++) if($(i+1)=="MB/s") print $i}' "$MICRO_LOG" | head -1)"
HOST_DEMUX_NS="$(pick "$MICRO_LOG" BenchmarkHostDemux 3)"
HOST_ALLOCPORT_NS="$(pick "$MICRO_LOG" BenchmarkHostAllocPort 3)"
FLOW_NS="$(pick "$MICRO_LOG" BenchmarkFlowFastPath 3)"
SIM_NS="$(pick "$MICRO_LOG" BenchmarkSimulatorThroughput 3)"
STORAGE_NS="$(pick "$MICRO_LOG" BenchmarkStorageWritePath 3)"
STORAGE_ALLOCS="$(awk '$1 ~ /^BenchmarkStorageWritePath/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
MCSESS_NS="$(awk '$1 ~ /^BenchmarkMemcacheSession(-[0-9]+)?$/ {print $3}' "$MICRO_LOG" | head -1)"
MCSESS_ALLOCS="$(awk '$1 ~ /^BenchmarkMemcacheSession(-[0-9]+)?$/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
MCSESS_REF_NS="$(awk '$1 ~ /^BenchmarkMemcacheSessionReference/ {print $3}' "$MICRO_LOG" | head -1)"
# metric <log> <BenchmarkName> <unit>: extract a named custom metric.
metric() { awk -v b="$2" -v u="$3" '$1 ~ "^"b {for(i=1;i<NF;i++) if($(i+1)==u) print $i}' "$1" | head -1; }
TCP_BATCH_NSSEG="$(metric "$MICRO_LOG" 'BenchmarkTCPBatchRx/mode=batch' ns/seg)"
TCP_SCALAR_NSSEG="$(metric "$MICRO_LOG" 'BenchmarkTCPBatchRx/mode=scalar' ns/seg)"
SB_BATCH_RT="$(metric "$MICRO_LOG" BenchmarkStorageBBatched roundtrips/write)"
SB_SEQ_RT="$(metric "$MICRO_LOG" BenchmarkStorageBSequential roundtrips/write)"
SB_BATCH_US="$(metric "$MICRO_LOG" BenchmarkStorageBBatched virtual-µs/write)"
SB_SEQ_US="$(metric "$MICRO_LOG" BenchmarkStorageBSequential virtual-µs/write)"
RECONFIG_TPUT="$(metric "$MICRO_LOG" BenchmarkReconfigMigration migrated_flows/s)"
RECONFIG_DRAIN_MS="$(metric "$MICRO_LOG" BenchmarkReconfigMigration drain_ms/op)"
FM_LOOKUP_NS="$(pick "$MICRO_LOG" 'BenchmarkFlowmapLookup/impl=compact' 3)"
FM_LOOKUP_MAP_NS="$(pick "$MICRO_LOG" 'BenchmarkFlowmapLookup/impl=map' 3)"
FM_LOOKUP_ALLOCS="$(awk '$1 ~ /^BenchmarkFlowmapLookup\/impl=compact/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
FM_CHURN_NS="$(pick "$MICRO_LOG" BenchmarkFlowmapChurn 3)"
FM_BPF="$(metric "$MICRO_LOG" 'BenchmarkFlowmapMemPerFlow/impl=compact' bytes/flow)"
FM_MAP_BPF="$(metric "$MICRO_LOG" 'BenchmarkFlowmapMemPerFlow/impl=map' bytes/flow)"
RT_PAPER="$(metric "$MICRO_LOG" 'BenchmarkStoreRoundTripsPerFlow/mode=paper' roundtrips/flow)"
RT_HYBRID="$(metric "$MICRO_LOG" 'BenchmarkStoreRoundTripsPerFlow/mode=hybrid' roundtrips/flow)"
EPF_OFF="$(metric "$MICRO_LOG" 'BenchmarkEventsPerFlow/tierb=off' events/flow)"
EPF_ON="$(metric "$MICRO_LOG" 'BenchmarkEventsPerFlow/tierb=on' events/flow)"
RULE_SEL_NS="$(pick "$MICRO_LOG" 'BenchmarkRuleSelect/rules=1000' 3)"
RULE_SEL_ALLOCS="$(awk '$1 ~ /^BenchmarkRuleSelect\/rules=1000/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
RULE_REF_NS="$(pick "$MICRO_LOG" 'BenchmarkRuleSelectReference/rules=1000' 3)"

jsonnum() { [[ -n "${1:-}" ]] && echo "$1" || echo "null"; }

FIG10_S=null; FIG12_S=null; FIG13_S=null
if [[ -s "$FIG_LOG" ]]; then
  f10="$(pick "$FIG_LOG" BenchmarkFig10TCPStoreLatency 3)"
  f12="$(pick "$FIG_LOG" BenchmarkFig12FailureRecovery 3)"
  f13="$(pick "$FIG_LOG" BenchmarkFig13Scalability 3)"
  [[ -n "$f10" ]] && FIG10_S="$(awk -v n="$f10" 'BEGIN{printf "%.2f", n/1e9}')"
  [[ -n "$f12" ]] && FIG12_S="$(awk -v n="$f12" 'BEGIN{printf "%.2f", n/1e9}')"
  [[ -n "$f13" ]] && FIG13_S="$(awk -v n="$f13" 'BEGIN{printf "%.2f", n/1e9}')"
fi

cat > "$OUT" <<EOF
{
  "seed_baseline": {
    "note": "pre-fast-path: binary event heap, closure Send, per-segment clones",
    "storage_note": "pre-zero-alloc storage dataplane: Sprintf flow keys, per-call record/batch allocation, strings.Fields parser, container/list LRU",
    "storage_write_ns_op": 38564,
    "storage_write_allocs_op": 87,
    "memcache_session_ns_op": 5193,
    "memcache_session_allocs_op": 27,
    "simulator_throughput_ns_op": 213.4,
    "simulator_throughput_B_op": 73,
    "simulator_throughput_allocs_op": 4,
    "event_loop_events_per_sec": 4700000,
    "fig10_wall_s": 23.41,
    "fig12_wall_s": 7.62,
    "fig13_wall_s": 172.2,
    "headline_metrics": {
      "fig10_replication_latency_overhead_pct": 10.29,
      "fig10_replication_cpu_ratio": 2.0,
      "fig10_set_median_40k_ms": 0.311,
      "fig12_yoda_broken_pct": 0,
      "fig12_yoda_max_extra_s": 3.0,
      "fig12_haproxy_noretry_broken_pct": 0.1081,
      "fig12_haproxy_retry_max_s": 30.19,
      "fig13_instances_added": 3,
      "fig13_broken_flows": 0
    }
  },
  "current": {
    "event_loop_ns_op": $(jsonnum "$EVLOOP_NS"),
    "event_loop_events_per_sec": $(jsonnum "$EVLOOP_EPS"),
    "event_loop_allocs_op": $(jsonnum "$EVLOOP_ALLOCS"),
    "timer_churn_ns_op": $(jsonnum "$TIMER_NS"),
    "tcp_throughput_MB_s": $(jsonnum "$TCP_MBS"),
    "tcp_batch_rx_ns_seg": $(jsonnum "$TCP_BATCH_NSSEG"),
    "tcp_scalar_rx_ns_seg": $(jsonnum "$TCP_SCALAR_NSSEG"),
    "host_demux_ns_op": $(jsonnum "$HOST_DEMUX_NS"),
    "host_alloc_port_ns_op": $(jsonnum "$HOST_ALLOCPORT_NS"),
    "flow_fast_path_ns_op": $(jsonnum "$FLOW_NS"),
    "simulator_throughput_ns_op": $(jsonnum "$SIM_NS"),
    "storage_write_ns_op": $(jsonnum "$STORAGE_NS"),
    "storage_write_allocs_op": $(jsonnum "$STORAGE_ALLOCS"),
    "memcache_session_ns_op": $(jsonnum "$MCSESS_NS"),
    "memcache_session_allocs_op": $(jsonnum "$MCSESS_ALLOCS"),
    "memcache_session_reference_ns_op": $(jsonnum "$MCSESS_REF_NS"),
    "storage_b_batched_roundtrips_per_write": $(jsonnum "$SB_BATCH_RT"),
    "storage_b_sequential_roundtrips_per_write": $(jsonnum "$SB_SEQ_RT"),
    "storage_b_batched_virtual_us": $(jsonnum "$SB_BATCH_US"),
    "storage_b_sequential_virtual_us": $(jsonnum "$SB_SEQ_US"),
    "reconfig_migration_flows_per_s": $(jsonnum "$RECONFIG_TPUT"),
    "reconfig_drain_virtual_ms": $(jsonnum "$RECONFIG_DRAIN_MS"),
    "cpu_count": $(nproc),
    "gomaxprocs": ${GOMAXPROCS:-$(nproc)},
    "flowmap_bytes_per_flow": $(jsonnum "$FM_BPF"),
    "flowmap_map_baseline_bytes_per_flow": $(jsonnum "$FM_MAP_BPF"),
    "flowmap_lookup_ns_op": $(jsonnum "$FM_LOOKUP_NS"),
    "flowmap_map_baseline_lookup_ns_op": $(jsonnum "$FM_LOOKUP_MAP_NS"),
    "flowmap_lookup_allocs_op": $(jsonnum "$FM_LOOKUP_ALLOCS"),
    "flowmap_churn_ns_op": $(jsonnum "$FM_CHURN_NS"),
    "storage_roundtrips_per_flow_paper": $(jsonnum "$RT_PAPER"),
    "storage_roundtrips_per_flow_hybrid": $(jsonnum "$RT_HYBRID"),
    "events_per_flow_tierb_off": $(jsonnum "$EPF_OFF"),
    "events_per_flow_tierb_on": $(jsonnum "$EPF_ON"),
    "rule_select_ns_op": $(jsonnum "$RULE_SEL_NS"),
    "rule_select_allocs_op": $(jsonnum "$RULE_SEL_ALLOCS"),
    "rule_select_reference_ns_op": $(jsonnum "$RULE_REF_NS"),
    "fig10_wall_s": $FIG10_S,
    "fig12_wall_s": $FIG12_S,
    "fig13_wall_s": $FIG13_S
  }
}
EOF
echo "wrote $OUT"
