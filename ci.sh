#!/usr/bin/env bash
# The CI gate: build, test, lint. Run locally before pushing; the GitHub
# Actions workflow (.github/workflows/ci.yml) runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")"

echo '== cargo build --release =='
cargo build --release --workspace

echo '== cargo test -q =='
cargo test -q --workspace

echo '== perfbench contract (smoke size) =='
# The host-time benchmark is its own Cargo workspace compiled against the
# stores' public API; its contract test runs every workload at smoke size,
# so an API break fails CI here instead of failing the benchmark run.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo '== crash-matrix gate (full cross product, deterministic, <60s) =='
# Re-runs the exhaustive fault-injection matrix — every tier, the
# shard-protocol sweep included — on its own with a hard wall-clock
# ceiling: the matrix must stay cheap enough to never be sampled in CI.
# (Binaries are already built by the test step, so the 60 s budget is all
# matrix.) Each column's host wall time is printed, so a slow run names
# the column that got slow.
timeout 60 cargo test -q -p ckpt-restart --test crash_matrix -- --nocapture \
    | grep -E 'crash matrix:|column '

echo '== replication gate: quorum properties + pinned report =='
# The quorum-replication tier gets its own named gate so a regression
# reads as "replication broke", not as a generic workspace-test failure:
# randomized adversarial damage must stay digest-identical within the
# N−w tolerance (and typed-QuorumLost beyond it), and the `report
# replication` output is FNV-pinned by the golden test.
cargo test -q -p ckpt-restart --test replication_properties
cargo test -q -p ckpt-bench --test golden_c12

echo '== dedup gate: chunk-store properties + pinned report + ratio floor =='
# The content-addressed dedup tier gets its own named gate: random image
# histories must round-trip byte-identically at every pool width and the
# refcounted GC must never free a live-referenced chunk; the `report
# dedup` output is FNV-pinned by the golden test; and the co-scheduled
# identical-guest sweep must keep deduplicating across processes — the
# golden test's > 2x floor catches a chunker or digest regression that
# silently degrades sharing without corrupting bytes.
cargo test -q -p ckpt-restart --test dedup_properties
cargo test -q -p ckpt-bench --test golden_c13

echo '== shard gate: striped-pool properties + protocol crash sweep + pinned report =='
# The sharded control plane gets its own named gate: adversarial
# per-stripe damage must stay byte-identical on healthy stripes and
# typed-QuorumLost on broken ones (never cross-stripe corruption); every
# shard-commit and root-commit protocol faultpoint must recover
# state-identical to a failure-free run (the crash matrix's
# shard-protocol column, swept on its own so it fails under its own
# name); and the `report c14` scale sweep (1k–10k nodes) is FNV-pinned
# and pool-width-invariant by the golden test.
cargo test -q -p ckpt-restart --test stripe_properties
cargo test -q -p ckpt-restart --test shard_crash
cargo test -q -p ckpt-bench --test golden_c14

echo '== migration gate: live-migration properties + crash tier + pinned report + downtime ceiling =='
# The live-migration tier gets its own named gate: randomized dirty-rate
# schedules must either converge within the round cap or return the typed
# divergence error with the source intact; migrated guests must be
# bit-identical across the app zoo at every pool width; the migration
# crash tier (every livemig faultpoint x fault kind) must end in
# zero-loss completion, typed fallback, or typed abort — never silent
# corruption; and the `report c15` downtime table is FNV-pinned by the
# golden test, which also holds the slowest guest's post-copy downtime
# under a hard 100 us ceiling.
cargo test -q -p ckpt-restart --test livemig_properties
cargo test -q -p ckpt-bench --test golden_c15

echo '== erasure gate: shard-damage properties + pinned report + commit-byte floor =='
# The erasure-coded tier gets its own named gate: adversarial per-object
# shard damage (random drop/corrupt mixes on both geometries) must read
# byte-identical within the m-loss tolerance — with every victim shard
# repaired digest-valid — and refuse typed-TooManyShardsLost beyond it,
# never cross-stripe bleed; the `report c16` output is FNV-pinned and
# pool-width-invariant by the golden test; and the coded commit path
# must keep the bandwidth win it exists for — the golden test holds
# RS(4,2) at or under 0.55x the replica-ingested bytes of
# replication(3,2) on identical lineages.
cargo test -q -p ckpt-restart --test erasure_properties
cargo test -q -p ckpt-bench --test golden_c16

echo '== cargo clippy -- -D warnings =='
cargo clippy --workspace --all-targets -- -D warnings

echo '== perf gate: report timings =='
# Writes BENCH_report.json (archived as a workflow artifact). The headline
# experiment C7a ran 33 s before the software-TLB fast path and ~1 s after;
# the 20 s ceiling is generous slack for slow runners while still catching
# a translation-cache regression.
./target/release/report timings
C7A_WALL=$(grep '"c7a_cluster_mechanistic"' BENCH_report.json | awk -F'"wall_s": ' '{print $2}' | tr -d '},')
echo "c7a wall-clock: ${C7A_WALL}s (ceiling 20s)"
awk -v w="$C7A_WALL" 'BEGIN { exit !(w < 20.0) }' || {
    echo "FAIL: c7a_cluster_mechanistic took ${C7A_WALL}s (> 20s) — software-TLB regression?"
    exit 1
}

# Suite-total gate. The parallel checkpoint pipeline fans the experiment
# suite out on the worker pool, so on real CI hardware (>= 4 cores) the
# whole suite must finish within 4.5 s of summed wall-clock (3.5 s before
# C15 joined the timed suite; its ~0.6 s wire simulation is serial, so
# the ceiling moves by the full cost); narrow hosts fall back to a serial
# ceiling (the suite ran ~10.3 s single-core when the gate was last
# calibrated, so 20 s is slow-runner slack, same policy as the c7a gate).
# The c14 scale sweep's wall-clock delta is printed on every run (not
# just on failure): it is the one experiment whose cost scales with the
# simulated node count, so drift shows up here first.
C14_WALL=$(grep '"c14_shard"' BENCH_report.json | awk -F'"wall_s": ' '{print $2}' | tr -d '},')
C14_DELTA=$(awk -v w="$C14_WALL" 'BEGIN { printf "%+.3f", w - 0.516 }')
echo "c14_shard wall-clock: ${C14_WALL}s (baseline 0.516s, delta ${C14_DELTA}s)"

if [ "$(nproc)" -ge 4 ]; then TOTAL_CEILING=4.5; else TOTAL_CEILING=20; fi
TOTAL_WALL=$(grep '"total_wall_s"' BENCH_report.json | awk -F': ' '{print $2}' | tr -d ' ')
echo "suite total wall-clock: ${TOTAL_WALL}s (ceiling ${TOTAL_CEILING}s on $(nproc) cores)"
awk -v w="$TOTAL_WALL" -v c="$TOTAL_CEILING" 'BEGIN { exit !(w < c) }' || {
    echo "FAIL: experiment suite took ${TOTAL_WALL}s (> ${TOTAL_CEILING}s)"
    echo "per-experiment wall_s vs the single-core baseline in EXPERIMENTS.md:"
    # Baseline column: single-core serial-path measurements from when the
    # gate was set, so the offending experiment is visible in CI output.
    baseline_wall() {
        case "$1" in
            table1|figure1|c3b_omission) echo 0.000 ;;
            c1_gather)                   echo 0.066 ;;
            c2_incremental)              echo 0.105 ;;
            c3_blocksize)                echo 0.056 ;;
            c4_mechanisms)               echo 1.268 ;;
            c5_fork)                     echo 0.260 ;;
            c6_storage)                  echo 0.089 ;;
            c7a_cluster_mechanistic)     echo 1.794 ;;
            c7b_cluster_scale)           echo 1.961 ;;
            c8_migration)                echo 0.099 ;;
            c9_batch_vs_autonomic)       echo 1.192 ;;
            c10_sensitivity)             echo 0.445 ;;
            trace)                       echo 0.584 ;;
            c12_replication)             echo 0.054 ;;
            c13_dedup)                   echo 0.124 ;;
            c14_shard)                   echo 0.516 ;;
            c15_livemig)                 echo 0.815 ;;
            c16_erasure)                 echo 0.178 ;;
            *)                           echo 0.000 ;;
        esac
    }
    grep '"name"' BENCH_report.json | while read -r line; do
        name=$(echo "$line" | awk -F'"name": "' '{print $2}' | awk -F'"' '{print $1}')
        wall=$(echo "$line" | awk -F'"wall_s": ' '{print $2}' | tr -d '},')
        base=$(baseline_wall "$name")
        delta=$(awk -v w="$wall" -v b="$base" 'BEGIN { printf "%+.3f", w - b }')
        echo "  ${name}: ${wall}s (baseline ${base}s, delta ${delta}s)"
    done
    exit 1
}

echo '== sweep gate: canonical artifacts + structural goldens + per-plan perf deltas =='
# The sweep engine's determinism contract — same plan + seed gives
# byte-identical canonical JSON at any pool width and any job submission
# order — is enforced by the property tests (they re-run `report sweep`
# in subprocesses at widths 1/4/8). The structural golden tests for
# C12/C14/C16 already gate in their tiers above and name the first
# divergent path on a mismatch; the byte compare here is the cheap
# belt-and-suspenders over the exact committed files. This step also
# writes the artifacts CI archives (SWEEP_cXX.json + RUNBOOK.json, repo
# root) and prints each plan's wall-clock against its pinned baseline so
# perf drift is attributable to one sweep plan, not "the suite got slow".
cargo test -q -p ckpt-bench --test sweep_properties
cargo test -q -p ckpt-bench --test artifact_schema
SWEEP_OUT=$(./target/release/report sweep --out .)
echo "$SWEEP_OUT"
for f in SWEEP_c12.json SWEEP_c14.json SWEEP_c16.json; do
    cmp -s "$f" "crates/bench/goldens/$f" || {
        echo "FAIL: regenerated $f differs from crates/bench/goldens/$f"
        echo "      (the golden test for it names the first divergent path)"
        exit 1
    }
done
baseline_plan_wall() {
    case "$1" in
        c12.survivability)  echo 0.034 ;;
        c12.latency)        echo 0.013 ;;
        c12.transients)     echo 0.008 ;;
        c14.cluster)        echo 0.087 ;;
        c14.nodes)          echo 0.176 ;;
        c14.shards)         echo 0.139 ;;
        c14.stripes)        echo 0.141 ;;
        c16.traffic)        echo 0.102 ;;
        c16.latency)        echo 0.043 ;;
        c16.survivability)  echo 0.025 ;;
        c16.reconstruction) echo 0.011 ;;
        c16.availability)   echo 0.000 ;;
        *)                  echo 0.000 ;;
    esac
}
echo "$SWEEP_OUT" | grep '^  plan ' | while read -r _ name rest; do
    wall=$(echo "$rest" | sed 's/.*wall_s=//' | tr -d ')')
    base=$(baseline_plan_wall "$name")
    delta=$(awk -v w="$wall" -v b="$base" 'BEGIN { printf "%+.3f", w - b }')
    echo "  ${name}: ${wall}s (baseline ${base}s, delta ${delta}s)"
done

echo 'CI OK'
