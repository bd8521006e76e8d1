//! The exhaustive crash matrix: every mechanism family × every trace-phase
//! fault site × every storage backend × every fault kind, plus the
//! cluster tiers (live migration, the sharded coordinator's protocol),
//! each cell ending in exactly one of {bit-exact restart, typed
//! detection} — never a silent wrong restart, never a panic.
//!
//! The matrix is deterministic (no sampling): the site list comes from a
//! fault-free recording pass per column, so every instrumented site is
//! swept, and every cell executes its fault. This binary sweeps the full
//! matrix exactly once; every test below asserts on that one report.

use ckpt_bench::artifact::fnv1a64;
use ckpt_cluster::matrix::{
    all_columns, crash_matrix, MIGRATION_BACKEND, MIGRATION_MECHS, SHARD_MECH,
};
use ckpt_core::crashpoint::{
    CellOutcome, MatrixCell, MatrixConfig, MatrixReport, DEDUP_BACKENDS, ERASURE_BACKENDS,
    MATRIX_CELLS, REPLICATED_BACKENDS, STRIPED_BACKENDS,
};
use std::sync::OnceLock;

const FAULTS: [&str; 3] = ["fail-stop", "transient", "torn-write"];

/// The one full sweep, shared by every test in this binary. Each
/// column's host wall time is printed so a slow run names its column.
fn report() -> &'static MatrixReport {
    static REPORT: OnceLock<MatrixReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let report = crash_matrix();
        for (cfg, wall) in &report.column_wall {
            println!(
                "column {}/{}: {:.2}s",
                cfg.mechanism,
                cfg.backend,
                wall.as_secs_f64()
            );
        }
        report
    })
}

#[test]
fn full_crash_matrix_has_no_violations_and_no_panics() {
    let report = report();
    let any = |pred: &dyn Fn(&MatrixCell) -> bool| report.cells.iter().any(pred);
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "matrix violations:\n{}",
        violations
            .iter()
            .map(|c| format!("  {c}"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Coverage floor: the cross product actually ran. Every column —
    // each mechanism family with each of its backends, every storage
    // tier, both migration strategies, the shard protocol — enumerated
    // sites and produced cells, in matrix order.
    let swept: Vec<MatrixConfig> = report.by_config().into_iter().map(|(cfg, _)| cfg).collect();
    let expected: Vec<MatrixConfig> = all_columns().iter().map(|col| col.config).collect();
    assert_eq!(swept, expected, "a column enumerated no fault sites");

    // Replication tier: both quorum geometries ran against every fault
    // kind, and the per-replica fault sites were actually swept — not just
    // the client-side storage decorator's.
    for backend in REPLICATED_BACKENDS {
        for fault in FAULTS {
            assert!(
                any(&|c| c.backend == backend && c.fault == fault),
                "fault kind {fault} missing from the {backend} tier"
            );
        }
        assert!(
            any(&|c| c.backend == backend && c.site.starts_with("replica/r")),
            "per-replica fault sites never armed on {backend}"
        );
        assert!(
            any(&|c| c.backend == backend && c.site.starts_with("storage/replicated")),
            "client-side fault sites never armed on {backend}"
        );
    }
    // Dedup tier: the content-addressed store ran over both backings, the
    // manifest-commit site was actually armed (the one new crash window
    // dedup introduces), and the inner backend's sites still show through
    // the decorator. Zero violations is already asserted globally above —
    // a torn manifest or missing chunk is always typed detection or a
    // bit-exact older-chain restart, never silent corruption.
    for backend in DEDUP_BACKENDS {
        assert!(
            any(&|c| c.backend == backend && c.site.contains("cas/commit")),
            "manifest-commit site never armed on {backend}"
        );
        assert!(
            any(&|c| c.backend == backend && c.site.starts_with("storage/")),
            "inner-backend fault sites never swept through dedup on {backend}"
        );
    }
    assert!(
        any(&|c| c.backend == "dedup(replicated(3,2))" && c.site.starts_with("replica/r")),
        "per-replica sites never armed under the dedup decorator"
    );
    // Shard-commit tier: single-object stores on the striped pool travel
    // the framed batch-commit path, so every per-stripe
    // `stripe<j>/r<i>/batch` admission was recorded and armed with every
    // applicable fault kind. Zero violations (asserted globally above)
    // means a fault on one stripe never corrupted keys on another, and a
    // torn batch frame was always detected or rolled past — never
    // silently restarted wrong.
    for backend in STRIPED_BACKENDS {
        // The scenario checkpoints one lineage, which routes to exactly
        // one stripe by design (whole chains live together); that
        // stripe's per-replica batch sites must have been armed.
        // Cross-stripe isolation under damage is exercised by the stripe
        // property tests, which spread many lineages.
        assert!(
            any(&|c| c.backend == backend
                && c.site.starts_with("stripe")
                && c.site.contains("/batch")),
            "per-stripe batch-commit sites never armed on {backend}"
        );
        assert!(
            any(&|c| c.backend == backend && c.site.starts_with("storage/striped")),
            "client-side fault sites never armed on {backend}"
        );
    }
    // Coding tier: both RS geometries ran, every per-shard batch-commit
    // admission was armed (stores travel the framed shard batch path),
    // and the client-side decorator sites show on top. Zero violations
    // (asserted globally above) means a shard lost mid-commit always
    // ended in a quorum rollback or a reconstructing restart — never a
    // silently wrong reassembly.
    for backend in ERASURE_BACKENDS {
        assert!(
            any(&|c| c.backend == backend
                && c.site.starts_with("ec/s")
                && c.site.contains("/batch")),
            "per-shard batch-commit sites never armed on {backend}"
        );
        assert!(
            any(&|c| c.backend == backend && c.site.starts_with("storage/rs(")),
            "client-side fault sites never armed on {backend}"
        );
        // A single lost shard is inside every geometry's m-loss budget, so
        // the tier must contain reconstructing restarts, not only typed
        // detections.
        assert!(
            any(&|c| c.backend == backend
                && c.site.starts_with("ec/s")
                && matches!(c.outcome, CellOutcome::Restarted { .. })),
            "{backend}: no shard fault ever ended in a reconstructing restart"
        );
    }
    // Migration tier: both live strategies swept their cutover plus their
    // strategy-specific sites (pre-copy transfer rounds, post-copy demand
    // faults) with every fault kind, and the tier shows both terminal
    // classes — zero-loss survival (clean/transient) and fallback restart
    // from the durable baseline (source lost mid-migration). Zero
    // violations is asserted globally above: no cell may ever resume a
    // guest whose memory differs from the deterministic replay.
    for mech in MIGRATION_MECHS {
        let tier = |pred: &dyn Fn(&MatrixCell) -> bool| {
            any(&|c| c.mechanism == mech && c.backend == MIGRATION_BACKEND && pred(c))
        };
        assert!(
            tier(&|c| c.site.starts_with("livemig/cutover")),
            "{mech}: cutover site never armed"
        );
        let body_site = if mech == "livemig-precopy" {
            "livemig/round"
        } else {
            "livemig/demand-fault"
        };
        assert!(
            tier(&|c| c.site.starts_with(body_site)),
            "{mech}: {body_site} sites never armed"
        );
        for fault in FAULTS {
            assert!(
                tier(&|c| c.fault == fault),
                "{mech}: fault kind {fault} missing"
            );
        }
        assert!(
            tier(&|c| matches!(c.outcome, CellOutcome::Restarted { lost_steps: 0 })),
            "{mech}: no cell ever survived with zero loss"
        );
        assert!(
            tier(&|c| matches!(c.outcome, CellOutcome::Restarted { lost_steps } if lost_steps > 0)),
            "{mech}: no cell ever exercised the baseline fallback"
        );
    }
    // Shard-protocol tier: both shard leaders' commit instants and the
    // root's seal, for both the full and the incremental round, were
    // armed with every fault kind. Zero violations (asserted globally
    // above) means every aborted round retried clean, every fault fired,
    // and every recovery ran on state-identical to a failure-free run.
    for frag in ["shard/s0/commit", "shard/s1/commit", "shard/root/commit"] {
        for site in [format!("{frag}@1"), format!("{frag}@2")] {
            for fault in FAULTS {
                assert!(
                    any(&|c| c.mechanism == SHARD_MECH && c.site == site && c.fault == fault),
                    "{site} [{fault}] never armed"
                );
            }
        }
    }
    for fault in FAULTS {
        assert!(any(&|c| c.fault == fault), "fault kind {fault} never ran");
    }

    // Both terminal classifications occur: faults after a durable
    // checkpoint roll back bit-exactly; faults before any durable image
    // (or on volatile media) are detected with a typed error.
    assert!(report.restarted() > 0, "no cell ever restarted bit-exactly");
    assert!(report.detected() > 0, "no cell was ever typed-detected");

    // Phase coverage across the matrix: each instrumented phase fired as
    // an armed site in at least one cell.
    for phase in [
        "freeze", "walk", "capture", "compress", "store", "prune", "rearm", "resume",
    ] {
        assert!(
            any(&|c| c.site.contains(&format!("/{phase}@"))),
            "phase {phase} never appeared as an armed site"
        );
    }
    // Storage-offset, chain-segment, and restart-side sites all swept too.
    assert!(any(
        &|c| c.site.contains("/store@") && c.site.starts_with("storage/")
    ));
    assert!(any(&|c| c.site.starts_with("chain/seg")));
    assert!(any(&|c| c.site.contains("restart/restore")));

    // The matrix is deterministic, so its size is a fixed artifact of the
    // instrumentation. `MATRIX_CELLS` is the single source of truth the
    // docs cite; a new site, backend, or mechanism must repin it here
    // rather than letting the documented number drift.
    assert_eq!(
        report.cells.len(),
        MATRIX_CELLS,
        "matrix size changed: repin crashpoint::MATRIX_CELLS and the \
         numbers quoted in EXPERIMENTS.md"
    );

    println!(
        "crash matrix: MATRIX_CELLS = {} — {} restarted, {} detected, {} violations",
        MATRIX_CELLS,
        report.restarted(),
        report.detected(),
        report.violations().len()
    );
}

#[test]
fn survivability_is_a_measured_artifact() {
    // Fail-stop after a completed checkpoint: whether the restart succeeds
    // is decided by the medium's survivability class, and the matrix
    // measures it rather than assuming it.
    let column = |mechanism: &'static str, backend: &'static str| {
        report()
            .cells
            .iter()
            .filter(move |c| c.mechanism == mechanism && c.backend == backend)
    };

    // `resume@1` fires after checkpoint #1's image is durable on every
    // process-level mechanism's engine path.
    let restartable = |backend: &'static str| -> bool {
        column("syscall", backend)
            .filter(|c| c.site.contains("/resume@1") && c.fault == "fail-stop")
            .all(|c| matches!(c.outcome, CellOutcome::Restarted { .. }))
    };
    assert!(restartable("local-disk"), "local disk survives node repair");
    assert!(restartable("remote"), "remote storage survives node loss");
    assert!(restartable("nvram"), "NVRAM survives node repair");

    // Hibernation to RAM (standby) must lose the image across power-down:
    // every fault cell on the volatile medium ends in typed detection.
    assert!(
        column("hibernate", "ram").all(|c| matches!(c.outcome, CellOutcome::Detected { .. })),
        "volatile RAM standby must never restart after power-down"
    );
    // ...while hibernation to swap survives it bit-exactly when the fault
    // hits after the commit point.
    assert!(
        column("hibernate", "swap").any(|c| matches!(c.outcome, CellOutcome::Restarted { .. })),
        "swap-backed hibernation must survive power-down"
    );
}

/// Golden pin for `report c11`. The matrix is fully deterministic — the
/// site list comes from a recording pass, every scenario replays the same
/// virtual schedule, and the report renders in fixed matrix order — so
/// its entire output is pinned byte-for-byte. Any change to fault
/// classification, site enumeration, or restart behavior moves the hash.
/// After an *intentional* change (a new site, a new column), hash
/// `./target/release/report c11`'s stdout with FNV-1a 64 and update both
/// constants in the same commit.
const C11_GOLDEN_FNV1A64: u64 = 0x5625_fe06_8d24_4ded;
const C11_GOLDEN_BYTES: usize = 4246;

#[test]
fn report_c11_output_matches_pinned_baseline() {
    // Exactly what the report binary prints: render_c11(matrix) + "\n".
    let out = format!("{}\n", ckpt_bench::render_c11(report()));
    assert_eq!(
        out.len(),
        C11_GOLDEN_BYTES,
        "report c11 output length changed — crash matrix no longer baseline"
    );
    assert_eq!(
        fnv1a64(out.as_bytes()),
        C11_GOLDEN_FNV1A64,
        "report c11 output bytes changed — crash matrix no longer baseline"
    );
}
