//! # matrix — the crash matrix's cluster tiers, and its entry point
//!
//! Two fault domains of the crash matrix only exist on a running
//! cluster, so their columns live here and run on the same
//! [`sweep`] driver as [`ckpt_core::crashpoint`]'s — same recording pass,
//! same fault kinds, same classification. [`crash_matrix`] sweeps every
//! column of every tier: the one call `report c11` and the tests make.
//!
//! * **Live migration** ([`MIGRATION_MECHS`]). Skjellum et al. argue the
//!   migration path must be as fault tolerant as the checkpoints it
//!   moves. Every `livemig/*` faultpoint either strategy visits is armed.
//!   **Restarted**: the guest survives on the target bit-for-bit
//!   (`lost_steps == 0`; a transient costs one retransmission), or the
//!   source died mid-migration and a fallback restore from the durable
//!   baseline recovered bit-exactly with `lost_steps > 0`. **Detected**:
//!   typed [`SimError::CutoverDiverged`] with the source guest intact.
//!   Each recovery is verified twice — at once, and again after a
//!   further run window, to catch latent corruption.
//! * **Shard protocol** ([`SHARD_MECH`]). The sharded coordinator's
//!   `shard/s<i>/commit` instants (around each shard's batched quorum
//!   commit) and the root's `shard/root/commit` seal. A fault there
//!   aborts the round or is absorbed by the protocol's retry; an aborted
//!   round is retried once the crash clears, then a node dies and the
//!   job recovers from the last committed cut. **Restarted**: the job
//!   ran on to a state identical to a failure-free run.
//!
//! Anything else is a **Violation**; zero of these is the acceptance bar.

use crate::cluster::{Cluster, FailureConfig};
use crate::livemig::{migrate_postcopy, migrate_precopy, LiveMigConfig};
use crate::mpi::MpiJob;
use crate::node::NodeId;
use crate::shard::ShardedCoordinator;
use ckpt_core::capture::{
    capture_image, restore_image, CaptureOptions, RestoreOptions, RestorePid,
};
use ckpt_core::crashpoint::{
    all_configs, app_params, column, sweep, verify_restored, CellOutcome, Column, MatrixConfig,
    MatrixReport,
};
use ckpt_core::tracker::TrackerKind;
use ckpt_image::CheckpointImage;
use simos::apps::{AppParams, NativeKind};
use simos::cost::CostModel;
use simos::faultpoint::FaultHandle;
use simos::types::{Pid, SimError};

/// The two live strategies swept by the migration tier.
pub const MIGRATION_MECHS: [&str; 2] = ["livemig-precopy", "livemig-postcopy"];

/// The migration tier's "backend" label: migration runs between cluster
/// nodes, not against a storage medium.
pub const MIGRATION_BACKEND: &str = "cluster(2)";

/// The shard-protocol tier's "mechanism" label.
pub const SHARD_MECH: &str = "shard-protocol";

/// The shard-protocol tier's "backend" label: three nodes over a 4x3
/// striped replica pool (w = 2), six ranks in two shards.
pub const SHARD_BACKEND: &str = "cluster(3)";

/// Every column of the whole matrix, in matrix order: the process-level,
/// hibernation and storage-tier columns, then live migration, then the
/// shard protocol.
pub fn all_columns() -> Vec<Column> {
    let mut v: Vec<Column> = all_configs().into_iter().map(column).collect();
    for mechanism in MIGRATION_MECHS {
        v.push(Column {
            config: MatrixConfig {
                mechanism,
                backend: MIGRATION_BACKEND,
            },
            record: record_migration,
            cell: migration_cell,
        });
    }
    v.push(Column {
        config: MatrixConfig {
            mechanism: SHARD_MECH,
            backend: SHARD_BACKEND,
        },
        record: record_shard,
        cell: shard_cell,
    });
    v
}

/// The whole crash matrix, swept on the process-wide pool.
pub fn crash_matrix() -> MatrixReport {
    sweep(ckpt_par::global(), all_columns())
}

// ---------------------------------------------------------------------
// Live migration
// ---------------------------------------------------------------------

const FROM: NodeId = NodeId(0);
const TO: NodeId = NodeId(1);

/// Run window before the durable baseline checkpoint.
const RUN1_NS: u64 = 3_000_000;
/// Run window between the baseline and the migration attempt.
const RUN2_NS: u64 = 1_500_000;
/// Run window after recovery, before the second verification.
const RUN3_NS: u64 = 500_000;

/// Spawn the crashpoint app on node 0, run, take the durable baseline the
/// fallback path restores from, run some more, then install `faults` on
/// the source kernel so only the migration itself is under injection.
fn setup(faults: &FaultHandle) -> (Cluster, Pid, CheckpointImage) {
    let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
    let pid = c
        .node(FROM)
        .kernel()
        .expect("fresh node")
        .spawn_native(NativeKind::SparseRandom, app_params())
        .expect("spawn");
    c.advance(RUN1_NS);
    let baseline = {
        let k = c.node(FROM).kernel().expect("source alive");
        k.freeze_process(pid).expect("freeze for baseline");
        let mut opts = CaptureOptions::full("migbase", 1);
        opts.save_file_contents = true;
        let img = capture_image(k, pid, &opts).expect("baseline capture");
        k.thaw_process(pid).expect("thaw after baseline");
        img
    };
    c.advance(RUN2_NS);
    c.node(FROM)
        .kernel()
        .expect("source alive")
        .set_faults(faults.clone());
    (c, pid, baseline)
}

/// Bit-exact verification now, then again after the guest runs on.
fn verify_twice(c: &mut Cluster, node: NodeId, pid: Pid, floor: u64) -> Result<u64, String> {
    let params = app_params();
    let step = {
        let k = c
            .node(node)
            .kernel()
            .ok_or_else(|| format!("{node} down at verification"))?;
        verify_restored(k, pid, &params)?
    };
    if step < floor {
        return Err(format!(
            "recovered guest is at step {step}, below the floor {floor} it had already reached"
        ));
    }
    c.advance(RUN3_NS);
    let k = c
        .node(node)
        .kernel()
        .ok_or_else(|| format!("{node} down after the post-recovery window"))?;
    let later = verify_restored(k, pid, &params)?;
    if later <= step {
        return Err(format!(
            "recovered guest made no progress after recovery ({step} -> {later})"
        ));
    }
    Ok(step)
}

fn run_migration(mech: &str, c: &mut Cluster, pid: Pid) -> Result<Pid, SimError> {
    let cfg = LiveMigConfig::default();
    match mech {
        "livemig-precopy" => migrate_precopy(c, FROM, pid, TO, &cfg).map(|r| r.new_pid),
        "livemig-postcopy" => migrate_postcopy(c, FROM, pid, TO, &cfg).map(|r| r.new_pid),
        other => panic!("unknown migration mechanism {other}"),
    }
}

fn record_migration(cfg: MatrixConfig, faults: &FaultHandle) {
    let (mut c, pid, _baseline) = setup(faults);
    run_migration(cfg.mechanism, &mut c, pid).expect("fault-free recording pass must succeed");
}

/// One armed cell: migrate under the fault, then classify.
fn migration_cell(cfg: MatrixConfig, faults: &FaultHandle) -> CellOutcome {
    let (mut c, pid, baseline) = setup(faults);
    let work_at_mig = c
        .node(FROM)
        .kernel()
        .expect("source alive")
        .process(pid)
        .expect("guest alive")
        .work_done;
    match run_migration(cfg.mechanism, &mut c, pid) {
        Ok(new_pid) => {
            // The migration absorbed the fault (clean cell or transient
            // retransmission): the target copy must be bit-exact and must
            // have lost nothing.
            match verify_twice(&mut c, TO, new_pid, work_at_mig) {
                Ok(_) => CellOutcome::Restarted { lost_steps: 0 },
                Err(what) => CellOutcome::Violation { what },
            }
        }
        Err(e @ SimError::CutoverDiverged { .. }) => {
            // Typed divergence: the migration was abandoned, so the
            // *source* guest must still be intact and runnable.
            faults.clear_crash();
            match verify_twice(&mut c, FROM, pid, work_at_mig) {
                Ok(_) => CellOutcome::Detected {
                    error: e.to_string(),
                },
                Err(what) => CellOutcome::Violation {
                    what: format!("after {e}: {what}"),
                },
            }
        }
        Err(e @ SimError::SourceLostMidMigration { .. }) => {
            // The source died with pages undrained. The typed error is the
            // cue to fall back to the last durable baseline — the exact
            // recovery a coordinator would run — and that restart must be
            // bit-exact with a positive rollback distance.
            faults.clear_crash();
            let restored = {
                let Some(k) = c.node(TO).kernel() else {
                    return CellOutcome::Violation {
                        what: format!("after {e}: target down, nowhere to fall back to"),
                    };
                };
                restore_image(
                    k,
                    &baseline,
                    &RestoreOptions::fresh_running(RestorePid::Fresh),
                )
            };
            match restored {
                Ok(np) => match verify_twice(&mut c, TO, np, 0) {
                    Ok(step) => {
                        if step >= work_at_mig {
                            return CellOutcome::Violation {
                                what: format!(
                                    "fallback restore claims step {step} >= pre-migration \
                                     work {work_at_mig}: baseline cannot be that fresh"
                                ),
                            };
                        }
                        CellOutcome::Restarted {
                            lost_steps: work_at_mig - step,
                        }
                    }
                    Err(what) => CellOutcome::Violation {
                        what: format!("after {e}: {what}"),
                    },
                },
                Err(re) => CellOutcome::Violation {
                    what: format!("after {e}: fallback restore failed: {re}"),
                },
            }
        }
        Err(other) => CellOutcome::Violation {
            what: format!("untyped migration failure: {other}"),
        },
    }
}

// ---------------------------------------------------------------------
// Shard protocol
// ---------------------------------------------------------------------

/// Supersteps the shard scenario runs to, with or without a failure.
const SUPERSTEPS: u64 = 6;

fn shard_setup(faults: &FaultHandle) -> (Cluster, MpiJob, ShardedCoordinator) {
    let mut c = Cluster::new_striped(3, CostModel::circa_2005(), FailureConfig::none(), 4, 3, 2);
    let job = MpiJob::launch(
        &mut c,
        "app",
        6,
        NativeKind::SparseRandom,
        AppParams::small(),
        6,
        32 * 1024,
    )
    .expect("launch");
    let coord = ShardedCoordinator::new("shardcrash", TrackerKind::KernelPage, 2)
        .with_faults(faults.clone());
    (c, job, coord)
}

fn superstep(job: &mut MpiJob, c: &mut Cluster) -> Result<(), String> {
    job.superstep(c)
        .map_err(|e| format!("superstep interrupted: {e:?}"))
}

/// Recording replays the whole lifecycle: only the coordinator carries
/// the handle, so the sites are the two rounds' protocol faultpoints.
fn record_shard(_: MatrixConfig, faults: &FaultHandle) {
    let _ = shard_recovery(faults);
}

fn shard_cell(_: MatrixConfig, faults: &FaultHandle) -> CellOutcome {
    match shard_recovery(faults) {
        Ok(lost_steps) => CellOutcome::Restarted { lost_steps },
        Err(what) => CellOutcome::Violation { what },
    }
}

/// Run a full and an incremental round under `faults` (an aborted round
/// is retried once the crash clears and must then commit), kill a node
/// mid-superstep, restart from the last committed cut and run on to
/// [`SUPERSTEPS`]. Returns the rollback distance in supersteps; the job
/// must end state-identical to the failure-free run.
fn shard_recovery(faults: &FaultHandle) -> Result<u64, String> {
    let (mut c, mut job, mut coord) = shard_setup(faults);
    for _ in 0..2 {
        superstep(&mut job, &mut c)?;
    }
    for _ in 0..2 {
        if coord.checkpoint(&mut c, &job).is_err() {
            faults.clear_crash();
            coord
                .checkpoint(&mut c, &job)
                .map_err(|e| format!("retry after abort failed: {e}"))?;
        }
        if job.completed_supersteps() < 3 {
            superstep(&mut job, &mut c)?;
        }
    }
    if !coord.has_checkpoint() {
        return Err("no cut ever committed".into());
    }
    // The machine event: a node dies mid-superstep, the job is rolled
    // back to the last committed cut and replayed.
    c.inject_failure(NodeId(1));
    let _ = job.superstep(&mut c);
    let reached = job.completed_supersteps();
    faults.clear_crash();
    coord
        .restart(&mut c, &mut job)
        .map_err(|e| format!("restart failed: {e}"))?;
    let resumed = job.completed_supersteps();
    if resumed < 2 {
        return Err(format!(
            "recovery fell behind the first committed cut (superstep {resumed})"
        ));
    }
    while job.completed_supersteps() < SUPERSTEPS {
        superstep(&mut job, &mut c)?;
    }
    let states = job.rank_states(&mut c).map_err(|e| e.to_string())?;
    if states != shard_reference() {
        return Err("recovered job diverged from the failure-free run".into());
    }
    Ok(reached.saturating_sub(resumed))
}

/// The failure-free reference: the same job run to [`SUPERSTEPS`].
fn shard_reference() -> Vec<(u64, u64)> {
    let (mut c, mut job, _) = shard_setup(&FaultHandle::disabled());
    for _ in 0..SUPERSTEPS {
        superstep(&mut job, &mut c).expect("fault-free superstep");
    }
    job.rank_states(&mut c).expect("fault-free rank states")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::faultpoint::{Fault, SiteRecord};

    fn recorded(col: &Column) -> Vec<SiteRecord> {
        let faults = FaultHandle::recording();
        (col.record)(col.config, &faults);
        faults.sites()
    }

    fn tier(mechanism: &str) -> Column {
        all_columns()
            .into_iter()
            .find(|c| c.config.mechanism == mechanism)
            .expect("column present")
    }

    #[test]
    fn recording_pass_enumerates_both_strategies_sites() {
        for mech in MIGRATION_MECHS {
            let sites = recorded(&tier(mech));
            assert!(
                sites.iter().any(|s| s.name.starts_with("livemig/cutover")),
                "{mech}: cutover site missing from {sites:?}"
            );
            let body_site = if mech == "livemig-precopy" {
                "livemig/round"
            } else {
                "livemig/demand-fault"
            };
            assert!(
                sites.iter().any(|s| s.name.starts_with(body_site)),
                "{mech}: no {body_site} sites recorded"
            );
        }
    }

    #[test]
    fn clean_cells_restart_with_zero_loss() {
        // An unarmed site never fires: equivalent to a clean run.
        let never = FaultHandle::armed("never/armed", Fault::FailStop);
        for mech in MIGRATION_MECHS.into_iter().chain([SHARD_MECH]) {
            let col = tier(mech);
            assert_eq!(
                (col.cell)(col.config, &never),
                CellOutcome::Restarted { lost_steps: 0 },
                "{mech} clean cell"
            );
        }
    }

    #[test]
    fn cutover_failstop_falls_back_to_baseline() {
        for mech in MIGRATION_MECHS {
            let col = tier(mech);
            let armed = FaultHandle::armed("livemig/cutover@1", Fault::FailStop);
            match (col.cell)(col.config, &armed) {
                CellOutcome::Restarted { lost_steps } => {
                    assert!(lost_steps > 0, "{mech}: fallback must roll back");
                }
                other => panic!("{mech}: expected fallback Restarted, got {other:?}"),
            }
        }
    }
}
