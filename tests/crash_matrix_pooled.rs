//! A crash-matrix slice swept at two pool widths with the parallel encode
//! pool forced wide: the fault sites enumerated by the recording pass
//! must fire at exactly the same points whether the columns run inline
//! or fanned out, every cell must classify the same way, and a crash
//! landing mid-parallel-encode (the capture/compress/store faultpoints)
//! must never leave a partially committed image behind — which would
//! surface as a `Violation` via the matrix's intact-chain cross-check.
//!
//! This lives in its own test binary so it can pin the process-wide pool
//! width before anything initializes it: the engines inside the matrix
//! mechanisms default to [`ckpt_par::global`].

use ckpt_restart::ckpt::crashpoint::{column, sweep, CellOutcome, MatrixConfig};
use ckpt_restart::par::Pool;

#[test]
fn pooled_matrix_slice_is_deterministic_with_no_partial_commits() {
    // Own process, first touch of the pool: the width sticks.
    std::env::set_var("CKPT_PAR_WORKERS", "4");
    assert_eq!(
        ckpt_restart::par::global().workers(),
        4,
        "pool was initialized before the test could pin its width"
    );

    // One engine-driven mechanism per storage backend keeps the slice
    // under a few seconds while still crossing every fault kind.
    let slice = || {
        [
            ("syscall", "local-disk"),
            ("kernel-thread", "remote"),
            ("fork-concurrent", "nvram"),
        ]
        .map(|(mechanism, backend)| column(MatrixConfig { mechanism, backend }))
        .to_vec()
    };

    // Count-based fault triggers + a work-stealing pool: the arming must
    // still be deterministic, so the inline sweep and the 4-wide sweep
    // classify every cell identically.
    let serial = sweep(&Pool::new(1), slice());
    let pooled = sweep(ckpt_restart::par::global(), slice());
    assert!(
        serial == pooled,
        "cell outcomes changed with the sweep's pool width"
    );
    let swept: Vec<MatrixConfig> = pooled.by_config().into_iter().map(|(cfg, _)| cfg).collect();
    let expected: Vec<MatrixConfig> = slice().iter().map(|col| col.config).collect();
    assert_eq!(
        swept, expected,
        "a column's recording pass enumerated no fault sites"
    );
    let all = &pooled.cells;
    for cell in all {
        assert!(
            !matches!(cell.outcome, CellOutcome::Violation { .. }),
            "pooled violation: {cell}"
        );
    }

    // The parallel-encode window is actually swept: faults landed on the
    // capture, compress, and store points, and both terminal
    // classifications occurred.
    for phase in ["capture", "compress", "store"] {
        assert!(
            all.iter().any(|c| c.site.contains(&format!("/{phase}@"))),
            "phase {phase} never appeared as an armed site in the slice"
        );
    }
    assert!(all
        .iter()
        .any(|c| matches!(c.outcome, CellOutcome::Restarted { .. })));
    assert!(all
        .iter()
        .any(|c| matches!(c.outcome, CellOutcome::Detected { .. })));
}
