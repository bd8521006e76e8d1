//! Mid-checkpoint node loss: a coordinated round that dies part-way must
//! leave the *previous* round as the recovery point — a typed error, never
//! a restart that silently mixes two rounds' images.
//!
//! The failure is injected through the same `simos::faultpoint` engine the
//! crash matrix uses: a node's remote-storage handle is wrapped in
//! [`FaultInjectStore`] so the fault strikes at a byte-accurate point in
//! the round (after some ranks' images have already landed).

use ckpt_cluster::{Cluster, FailureConfig, MpiJob, NodeId, ShardedCoordinator};
use ckpt_core::tracker::TrackerKind;
use ckpt_storage::{FaultInjectStore, LocalDisk};
use simos::apps::{AppParams, NativeKind};
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};
use simos::types::Pid;

fn setup(n_nodes: usize, n_ranks: u32) -> (Cluster, MpiJob, ShardedCoordinator) {
    let mut c = Cluster::new(n_nodes, CostModel::circa_2005(), FailureConfig::none());
    let job = MpiJob::launch(
        &mut c,
        "app",
        n_ranks,
        NativeKind::SparseRandom,
        AppParams::small(),
        6,
        32 * 1024,
    )
    .unwrap();
    let coord = ShardedCoordinator::per_rank("mixjob", TrackerKind::KernelPage);
    (c, job, coord)
}

/// Wrap `node`'s remote-storage handle in a fault-injecting decorator
/// driven by `faults`. The underlying medium (and the shared remote
/// server behind it) is untouched.
fn arm_remote(c: &mut Cluster, node: usize, faults: &FaultHandle) {
    let remote = c.nodes[node].remote.clone();
    let mut guard = remote.lock();
    let inner = std::mem::replace(&mut *guard, Box::new(LocalDisk::new(1)));
    *guard = Box::new(FaultInjectStore::new(inner, faults.clone()));
}

/// Every rank's in-guest superstep counter (the durable truth a restart
/// must make consistent).
fn guest_supersteps(c: &mut Cluster, job: &MpiJob) -> Vec<u64> {
    job.ranks
        .iter()
        .map(|r| {
            let k = c.node(r.node).kernel().expect("rank node alive");
            let mut buf = [0u8; 8];
            k.process(r.pid).unwrap().mem.peek(ckpt_cluster::mpi::SLOT_SUPERSTEP, &mut buf);
            u64::from_le_bytes(buf)
        })
        .collect()
}

#[test]
fn mid_round_store_fault_keeps_the_committed_cut() {
    let (mut c, mut job, mut coord) = setup(3, 6);
    for _ in 0..3 {
        job.superstep(&mut c).unwrap();
    }
    coord.checkpoint(&mut c, &job).unwrap();
    // Progress past the committed cut — this is what the failed round
    // would have captured, and what the restart must roll back.
    job.superstep(&mut c).unwrap();
    assert_eq!(job.completed_supersteps(), 4);

    // Node 1 hosts ranks 1 and 4; its first store of round 2 fails.
    let faults = FaultHandle::armed("storage/remote/store@1", Fault::Transient);
    arm_remote(&mut c, 1, &faults);
    let err = coord.checkpoint(&mut c, &job).unwrap_err();
    assert!(
        err.to_string().contains("store failed"),
        "mid-round fault must surface typed: {err}"
    );
    assert!(faults.fired().is_some(), "the armed site actually fired");

    // Rank 0's round-2 image landed before the fault; the abort must have
    // removed it so the failed round leaves no debris.
    assert!(
        !c.remote_server.keys().iter().any(|k| k.ends_with("seq00000002")),
        "aborted round left partial images: {:?}",
        c.remote_server.keys()
    );

    // The committed round is still the recovery point.
    assert!(coord.has_checkpoint());
    coord.restart(&mut c, &mut job).unwrap();
    assert_eq!(job.completed_supersteps(), 3, "restart rolls back to round 1's cut");
    let counters = guest_supersteps(&mut c, &job);
    assert!(
        counters.iter().all(|&s| s == 3),
        "ranks restored from different rounds: {counters:?}"
    );

    // The job is healthy: more progress, and the next round commits (full,
    // because the aborted round burned its sequence number).
    job.superstep(&mut c).unwrap();
    let o = coord.checkpoint(&mut c, &job).unwrap();
    assert!(!o.incremental, "round after an abort must re-baseline as full");
    let o2 = {
        job.superstep(&mut c).unwrap();
        coord.checkpoint(&mut c, &job).unwrap()
    };
    assert!(o2.incremental, "chain resumes incrementally after the full round");
}

#[test]
fn node_loss_mid_round_never_mixes_rounds() {
    let (mut c, mut job, mut coord) = setup(3, 6);
    for _ in 0..2 {
        job.superstep(&mut c).unwrap();
    }
    coord.checkpoint(&mut c, &job).unwrap();
    job.superstep(&mut c).unwrap();

    // The node dies between rank 0's store and rank 1's freeze: the round
    // must abort with a typed error, not half-commit.
    c.inject_failure(NodeId(1));
    let err = coord.checkpoint(&mut c, &job).unwrap_err();
    assert!(
        err.to_string().contains("down during checkpoint"),
        "node loss mid-round must surface typed: {err}"
    );
    assert!(coord.has_checkpoint(), "previous round survives the aborted one");

    // Recover onto the survivors.
    coord.restart(&mut c, &mut job).unwrap();
    assert!(
        job.ranks.iter().all(|r| r.node != NodeId(1)),
        "ranks must migrate off the dead node"
    );
    assert_eq!(job.completed_supersteps(), 2);
    let counters = guest_supersteps(&mut c, &job);
    assert!(counters.iter().all(|&s| s == 2), "inconsistent cut: {counters:?}");

    // Forward progress on two nodes, including a committing checkpoint.
    job.superstep(&mut c).unwrap();
    assert_eq!(job.completed_supersteps(), 3);
    coord.checkpoint(&mut c, &job).unwrap();
}

#[test]
fn undeletable_partial_image_is_ignored_by_the_capped_restart() {
    // The nastiest case: a rank's round-2 image lands, then its *own* node
    // crashes later in the same round, so the abort cannot delete the
    // partial image — it survives on the remote server as an orphan. The
    // restart must still restore every rank from round 1.
    let (mut c, mut job, mut coord) = setup(3, 6);
    for _ in 0..3 {
        job.superstep(&mut c).unwrap();
    }
    coord.checkpoint(&mut c, &job).unwrap();
    job.superstep(&mut c).unwrap();

    // Node 1 stores rank 1's image (its first store of the round), then
    // fail-stops on its second (rank 4): the handle latches node-crashed,
    // so the abort's delete of rank 1's image is refused.
    let faults = FaultHandle::armed("storage/remote/store@2", Fault::FailStop);
    arm_remote(&mut c, 1, &faults);
    let err = coord.checkpoint(&mut c, &job).unwrap_err();
    assert!(err.to_string().contains("store failed"), "typed abort: {err}");
    faults.set_crashed();
    c.inject_failure(NodeId(1));

    // The orphaned round-2 image for rank 1 really is still out there...
    assert!(
        c.remote_server
            .keys()
            .iter()
            .any(|k| k.contains("pid1/") && k.ends_with("seq00000002")),
        "scenario needs the undeletable orphan: {:?}",
        c.remote_server.keys()
    );

    // ...and the restart ignores it: loads are capped at the committed
    // round, so rank 1 comes back from round 1 like everyone else.
    coord.restart(&mut c, &mut job).unwrap();
    assert_eq!(job.completed_supersteps(), 3);
    let counters = guest_supersteps(&mut c, &job);
    assert!(
        counters.iter().all(|&s| s == 3),
        "orphan image leaked into the restart: {counters:?}"
    );

    // All restored pids are live processes on alive nodes.
    for r in &job.ranks {
        assert_ne!(r.node, NodeId(1));
        let pid: Pid = r.pid;
        assert!(c.node(r.node).kernel().unwrap().process(pid).is_some());
    }
}
