#!/usr/bin/env bash
# Perf-trajectory harness: runs the headline regenerator binaries with
# machine-readable output and validates every artefact.
#
#   ./scripts/bench.sh             # full runs -> BENCH_*.json + TRACE_machine.json
#   ./scripts/bench.sh --smoke     # seconds-scale reduced runs (the CI gate),
#                                  # written to and validated in a temporary
#                                  # directory that is removed on exit, so the
#                                  # committed artefacts are never touched
#   ./scripts/bench.sh --criterion # also run the arena_vs_vecdeque
#                                  # micro-bench (criterion, ~1 min)
#
# Every binary runs with --threads 1 unless WSP_THREADS=<n> sets another
# worker count. Results are bit-identical at any count, but the phase
# profile is not: with more than one thread the full-wafer fabric ticks
# take the split plan/apply path, and check.sh's perf-shape gate on the
# committed BENCH_noc.json expects the single-thread fused path. Pinning
# the count keeps that gate independent of the host's core count.
#
# Full-run artefacts land in the repo root:
#   BENCH_noc.json       fig7_network  (NoC request/response metrics)
#   BENCH_machine.json   workloads     (kernel + traced-stencil metrics;
#                                       full runs add the machine.memory.*
#                                       row-buffer fidelity sweep)
#   BENCH_pdn.json       fig2_droop    (IR-drop / SOR-solver metrics)
#   BENCH_serve.json     serve         (wafer-as-a-service campaign:
#                                       queueing-latency p50/p95/p99,
#                                       slice utilisation, jobs/s)
#   TRACE_machine.json   workloads     (Chrome trace: machine, fabric,
#                                       pdn, clock, and dft spans —
#                                       open in ui.perfetto.dev)
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=()
CRITERION=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=(--smoke) ;;
        --criterion) CRITERION=1 ;;
        *)
            echo "usage: $0 [--smoke] [--criterion]" >&2
            exit 2
            ;;
    esac
done

THREADS=(--threads "${WSP_THREADS:-1}")

OUT=.
if [[ ${#SMOKE[@]} -gt 0 ]]; then
    OUT="$(mktemp -d)"
    trap 'rm -rf "$OUT"' EXIT
fi

echo "==> cargo build --release -p wsp-bench"
cargo build --release -p wsp-bench

run() {
    local bin="$1"
    shift
    echo "==> $bin $*"
    "target/release/$bin" "$@" >/dev/null
}

run fig7_network "${SMOKE[@]}" "${THREADS[@]}" --json "$OUT/BENCH_noc.json"
run workloads "${SMOKE[@]}" "${THREADS[@]}" --json "$OUT/BENCH_machine.json" \
    --trace "$OUT/TRACE_machine.json"
run fig2_droop "${SMOKE[@]}" "${THREADS[@]}" --json "$OUT/BENCH_pdn.json"
run serve "${SMOKE[@]}" "${THREADS[@]}" --json "$OUT/BENCH_serve.json"

echo "==> validate_json"
target/release/validate_json \
    "$OUT/BENCH_noc.json" "$OUT/BENCH_machine.json" "$OUT/BENCH_pdn.json" \
    "$OUT/BENCH_serve.json" "$OUT/TRACE_machine.json"

# Full runs record wall.profile.* gauges; smoke runs print an empty
# table (the profiler is disabled so the smoke JSON stays deterministic).
echo "==> phase profile (wsp-diff profile)"
target/release/wsp-diff profile "$OUT/BENCH_noc.json" "$OUT/BENCH_machine.json" \
    "$OUT/BENCH_pdn.json"

if [[ "$CRITERION" == 1 ]]; then
    echo "==> criterion: arena_vs_vecdeque (data-layout micro-bench)"
    cargo bench -p wsp-bench --bench arena_vs_vecdeque
fi

echo "Bench artefacts written and validated."
