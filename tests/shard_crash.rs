//! Cluster-level crash sweep of the sharded control plane's own protocol
//! faultpoints: the per-shard commit instants (`shard/s<i>/commit`, after
//! a shard's ranks are captured but around its batched quorum commit) and
//! the root's global-cut seal (`shard/root/commit`, after every shard has
//! acked). These sites only exist on a running cluster, so they are the
//! crash matrix's `shard-protocol` column in `ckpt_cluster::matrix`. This
//! binary sweeps that one column on its own, through the same `sweep`
//! driver as the full matrix, so a shard-protocol regression fails under
//! its own name in seconds instead of inside the full matrix run.

use ckpt_restart::ckpt::crashpoint::{sweep, CellOutcome};
use ckpt_restart::cluster::matrix::{all_columns, SHARD_BACKEND, SHARD_MECH};

const FAULTS: [&str; 3] = ["fail-stop", "transient", "torn-write"];

#[test]
fn every_shard_protocol_faultpoint_recovers_state_identical() {
    let columns: Vec<_> = all_columns()
        .into_iter()
        .filter(|col| col.config.mechanism == SHARD_MECH)
        .collect();
    assert_eq!(columns.len(), 1, "exactly one shard-protocol column");
    assert_eq!(columns[0].config.backend, SHARD_BACKEND);
    let report = sweep(ckpt_restart::par::global(), columns);

    // Both shard leaders' commit instants and the root's seal, for both
    // the full and the incremental round, armed with every fault kind.
    for frag in ["shard/s0/commit", "shard/s1/commit", "shard/root/commit"] {
        for site in [format!("{frag}@1"), format!("{frag}@2")] {
            for fault in FAULTS {
                assert!(
                    report
                        .cells
                        .iter()
                        .any(|c| c.site == site && c.fault == fault),
                    "{site} [{fault}] never armed: {:?}",
                    report.cells.iter().map(|c| &c.site).collect::<Vec<_>>()
                );
            }
        }
    }

    // Every cell fired its fault (an armed fault that never fires is a
    // Violation), every aborted round retried clean, and every recovery
    // after the node loss ran on state-identical to the failure-free run.
    for cell in &report.cells {
        assert!(
            matches!(cell.outcome, CellOutcome::Restarted { .. }),
            "shard-protocol cell did not recover state-identical: {cell}"
        );
    }
}
