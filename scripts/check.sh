#!/usr/bin/env bash
# CI-style gate: formatting, lints, the release build, every workspace test,
# and the bench, determinism and snapshot gates.
# Run from anywhere: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (every workspace crate's unit, integration and doc tests)"
cargo test --workspace -q

echo "==> perf-shape gate (committed phase profile covers the fabric tick)"
# The committed full-run BENCH_noc.json pins the *shape* of the fabric
# hot loop, not its wall-clock (ms gauges stay outside tolerances, as
# wsp-diff does): the full-wafer section's ticks must have been timed
# under the one `fused` tick phase, so a `fused.calls` counter must be
# present.
if ! grep -q '"wall.profile.fabric.full_wafer.fused.calls"' BENCH_noc.json; then
    echo "FAIL: BENCH_noc.json lacks wall.profile.fabric.full_wafer.fused.calls" >&2
    echo "      (full-wafer fabric ticks are no longer profiled as the fused tick)" >&2
    exit 1
fi
echo "    committed full-wafer profile records the fused tick"

echo "==> bench smoke (smoke artefacts well-formed; written to a temp dir)"
./scripts/bench.sh --smoke

echo "==> determinism gate (smoke JSON vs tests/golden, {dense,wheel})"
# Two claims at once: (1) the default wheel stepping (active-set walks
# plus event-wheel skips) is bit-identical to the dense sweep, and (2) the
# default fixed-latency memory backend is byte-identical to the
# pre-MemoryModel-refactor seed output committed under tests/golden/.
# The smoke JSON carries only deterministic metrics (no wall-clock
# gauges), so every run must match the golden file byte for byte.
# Refresh the goldens with WSP_UPDATE_GOLDEN=1 after an intentional
# metrics change.
DET_DIR="$(mktemp -d)"
trap 'rm -rf "$DET_DIR"' EXIT
if [ "${WSP_UPDATE_GOLDEN:-0}" = "1" ]; then
    target/release/fig7_network --smoke --stepping dense \
        --json tests/golden/fig7_network_smoke.json >/dev/null
    target/release/workloads --smoke --stepping dense \
        --json tests/golden/workloads_smoke.json >/dev/null
    target/release/serve --smoke --stepping dense \
        --json tests/golden/serve_smoke.json >/dev/null
    target/release/fig2_droop --smoke --json tests/golden/fig2_droop_smoke.json >/dev/null
    echo "    refreshed tests/golden/*.json (+ .digest sidecars)"
fi
for bin in fig7_network workloads serve; do
    golden="tests/golden/${bin}_smoke.json"
    for stepping in dense wheel; do
        out="$DET_DIR/$bin-$stepping.json"
        target/release/"$bin" --smoke --stepping "$stepping" --json "$out" >/dev/null
        if ! cmp -s "$golden" "$out"; then
            echo "FAIL: $bin smoke JSON differs from $golden at $stepping" >&2
            diff "$golden" "$out" >&2 || true
            exit 1
        fi
        # The digest sidecar must match too; on divergence wsp-diff
        # pinpoints the first bad cycle window and lane.
        if ! cmp -s "$golden.digest" "$out.digest"; then
            echo "FAIL: $bin digest journal diverged from $golden.digest at $stepping" >&2
            target/release/wsp-diff digest "$golden.digest" "$out.digest" >&2 || true
            exit 1
        fi
    done
done
# fig2_droop steps no cycle-level engine (no stepping axis, no digest
# journal): its smoke JSON is the PDN solve's, byte for byte.
target/release/fig2_droop --smoke --json "$DET_DIR/fig2_droop.json" >/dev/null
if ! cmp -s tests/golden/fig2_droop_smoke.json "$DET_DIR/fig2_droop.json"; then
    echo "FAIL: fig2_droop smoke JSON differs from tests/golden/fig2_droop_smoke.json" >&2
    diff tests/golden/fig2_droop_smoke.json "$DET_DIR/fig2_droop.json" >&2 || true
    exit 1
fi
echo "    byte-identical to the goldens across stepping modes"

echo "==> serve snapshot gate (snapshot -> restore -> resume is bit-identical)"
# Checkpoint a serving campaign after 9 of its 24 smoke jobs, restore it
# in a fresh process, run the remainder, and demand the resumed run's
# report and digest journal are byte-equal to the golden uninterrupted
# run. This is the wafer-as-a-service durability contract: a campaign
# interrupted at any completion boundary resumes bit-identically.
target/release/serve --smoke --snapshot "$DET_DIR/serve.snap" --snapshot-after 9 >/dev/null
target/release/serve --smoke --restore "$DET_DIR/serve.snap" \
    --json "$DET_DIR/serve-resumed.json" >/dev/null
for suffix in "" ".digest"; do
    if ! cmp -s "tests/golden/serve_smoke.json$suffix" "$DET_DIR/serve-resumed.json$suffix"; then
        echo "FAIL: resumed serve campaign diverged from golden (serve_smoke.json$suffix)" >&2
        [ -n "$suffix" ] && target/release/wsp-diff digest \
            "tests/golden/serve_smoke.json.digest" "$DET_DIR/serve-resumed.json.digest" >&2 || true
        exit 1
    fi
done
echo "    snapshot/restore roundtrip matches the uninterrupted golden run"

echo "==> serve bad-input gate (exit 2 with an error: line, never a panic)"
# A slice larger than the wafer, a garbage snapshot and a missing snapshot
# are user errors: the bin must report them like a bad flag (exit 2 and an
# "error:" line), not panic with exit 101.
printf 'not a campaign snapshot\n' > "$DET_DIR/garbage.snap"
for args in "--slice 64x64" "--restore $DET_DIR/garbage.snap" "--restore $DET_DIR/missing.snap"; do
    status=0
    # shellcheck disable=SC2086 # split the case into its flag and value
    target/release/serve --smoke $args >/dev/null 2>"$DET_DIR/bad-input.err" || status=$?
    if [ "$status" -ne 2 ] || ! grep -q "^error:" "$DET_DIR/bad-input.err"; then
        echo "FAIL: serve --smoke $args exited $status without an error: line" >&2
        cat "$DET_DIR/bad-input.err" >&2
        exit 1
    fi
done
echo "    oversized slice and bad snapshots are reported, not panicked on"

echo "==> wsp-diff regression gate (bench JSON vs committed baselines)"
# The tolerance-gated diff must pass on the baselines themselves...
for bin in fig7_network workloads serve; do
    target/release/wsp-diff bench --tolerances tests/golden/tolerances.txt \
        "tests/golden/${bin}_smoke.json" "$DET_DIR/$bin-dense.json" \
        | sed 's/^/    /'
done
# ...and must trip on a synthetic out-of-tolerance metric change.
sed 's/"fabric.cycles":[0-9.]*/"fabric.cycles":1/' \
    "$DET_DIR/fig7_network-dense.json" > "$DET_DIR/mutated.json"
if target/release/wsp-diff bench --tolerances tests/golden/tolerances.txt \
    "tests/golden/fig7_network_smoke.json" "$DET_DIR/mutated.json" >/dev/null; then
    echo "FAIL: wsp-diff bench did not flag a mutated metric" >&2
    exit 1
fi
echo "    gate passes on baselines and catches a synthetic regression"
# The digest diff must likewise refuse a malformed sidecar rather than
# misreport: swap the first two windows of the golden fig7 journal and
# require the parse error (exit 2), not a divergence report.
awk '/^@ / { w++ }
     w == 0 { print; next }
     w == 1 { first = first $0 "\n"; next }
     w == 2 { second = second $0 "\n"; next }
     !swapped { printf "%s%s", second, first; swapped = 1 }
     { print }
     END { if (!swapped) printf "%s%s", second, first }' \
    tests/golden/fig7_network_smoke.json.digest > "$DET_DIR/swapped.digest"
digest_status=0
target/release/wsp-diff digest tests/golden/fig7_network_smoke.json.digest \
    "$DET_DIR/swapped.digest" >/dev/null 2>"$DET_DIR/swapped.err" || digest_status=$?
if [ "$digest_status" -ne 2 ] || ! grep -q "does not follow" "$DET_DIR/swapped.err"; then
    echo "FAIL: wsp-diff digest accepted a sidecar with swapped windows (exit $digest_status)" >&2
    cat "$DET_DIR/swapped.err" >&2
    exit 1
fi
echo "    wsp-diff digest rejects a sidecar whose windows are out of order"


echo "==> flag-doc drift gate (every BenchOpts flag is documented in README.md)"
# The README's "Performance knobs" table must mention every flag string
# the bench option parser accepts — a new flag without documentation (or
# a renamed flag leaving its old name behind in the README) fails here.
# Only the code above the #[cfg(test)] module counts: tests exercise fake
# flags (e.g. --frobnicate) to probe the unknown-flag error path.
flags=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/bench/src/lib.rs \
    | grep -o '"--[a-z-]*"' | tr -d '"' | sort -u)
for flag in $flags; do
    if ! grep -q -- "$flag" README.md; then
        echo "FAIL: flag $flag (crates/bench/src/lib.rs) is not documented in README.md" >&2
        exit 1
    fi
done
echo "    all $(echo "$flags" | wc -w) bench flags documented"

echo "==> banked memory smoke (--memory banked answers stay correct)"
target/release/workloads --smoke --memory banked > "$DET_DIR/banked.txt"
if grep -q "| false" "$DET_DIR/banked.txt"; then
    echo "FAIL: banked-memory smoke run reported an incorrect kernel answer" >&2
    grep "| false" "$DET_DIR/banked.txt" >&2
    exit 1
fi
echo "    banked backend runs clean"

echo "All checks passed."
