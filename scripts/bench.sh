#!/usr/bin/env bash
# bench.sh runs the serving-path benchmark suite (cold and warm answers,
# session append vs re-prefill, prefill alone at 768 and 1,536 context
# tokens, unembedding, sealing, the attention kernel rungs — FP16, INT4
# and INT2 scores and value accumulation, including the served
# per-channel-K / per-token-V axes — segment attention with and without
# chunk reordering, prefix cache under scan, mixed-kind workload,
# batched serve throughput, streamed time-to-first-token, cost-gate
# admission overhead, tenant-fairness dispatch cost, store
# lock-contention 1 vs 8 shards, session-registry churn) and converts
# the output to BENCH_PR10.json at the repo root via cocktail-benchjson.
#
#   BENCHTIME=1x   per-benchmark time/iterations (default 1x: a smoke
#                  run; use e.g. 2s for a measurement run)
#   OUT=...        output path (default BENCH_PR10.json)
#
# CI diffs the result against the committed previous snapshot with
# `cocktail-benchjson -compare`; at the default 1x smoke setting only
# the deterministic hit-rate metrics gate (timing metrics of 1-iteration
# runs are skipped by design).
#
# The contention benchmark's headline claim — sharded >= 2x the
# single-mutex store — only manifests at GOMAXPROCS >= 4, where
# independent mutexes stop serializing; on fewer cores the sharded arm
# pays a small routing overhead instead (see DESIGN.md "Sharded store &
# persistence" for the measured numbers on both core counts).
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1x}"
out="${OUT:-BENCH_PR10.json}"

{
  go test -run '^$' -bench '^(BenchmarkPipelineAnswer|BenchmarkSessionAnswerWarm|BenchmarkAppendVsReprefill|BenchmarkPrefill|BenchmarkUnembed|BenchmarkQuantizeSeal|BenchmarkKernel.*|BenchmarkCacheAttend|BenchmarkCacheAttendNoReorder)$' \
    -benchmem -benchtime "$benchtime" .
  go test -run '^$' -bench '^(BenchmarkPrefixCacheUnderScan|BenchmarkMixedKindWorkload|BenchmarkBatchedServeThroughput|BenchmarkStreamTTFT|BenchmarkCostAdmission|BenchmarkTenantFairness)$' \
    -benchtime "$benchtime" ./internal/workload
  go test -run '^$' -bench '^BenchmarkStoreContention$' -benchtime "$benchtime" ./internal/sessioncache
  go test -run '^$' -bench '^BenchmarkSessionRegistryChurn$' -benchtime "$benchtime" ./internal/httpapi
} | tee /dev/stderr | go run ./cmd/cocktail-benchjson -o "$out"

echo "wrote $out" >&2
