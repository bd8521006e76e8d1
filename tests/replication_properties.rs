//! Property tests on quorum-replicated checkpoint chains: any random
//! full+incremental chain written through a [`ReplicatedStore`], then
//! subjected to adversarial per-segment replica damage, must either
//! materialize digest-identically to the undamaged chain (damage within
//! the `N − w` tolerance) or refuse with a typed `QuorumLost` (damage
//! beyond it) — never a silently wrong image, never a panic.
//!
//! Cases are generated deterministically by [`common::Gen`]; a failing
//! seed reproduces directly.

mod common;

use ckpt_restart::image::{
    encode, CheckpointImage, ImageHeader, ImageKind, PageRecord, PolicyRecord, ProgramRecord,
    RegsRecord, SigRecord,
};
use ckpt_restart::replica::{Probe, ReplicatedStore};
use ckpt_restart::storage::{load_latest_valid_chain, store_image, ImageStoreError, StorageError};
use common::Gen;
use simos::cost::CostModel;

const CASES: u64 = 32;
const PID: u32 = 7;
const JOB: &str = "repl-prop";

fn mk(seq: u64, parent: u64, kind: ImageKind, pages: Vec<(u64, u8)>) -> CheckpointImage {
    CheckpointImage {
        header: ImageHeader {
            pid: PID,
            seq,
            parent_seq: parent,
            kind,
            taken_at_ns: seq,
            mechanism: "prop".into(),
            node: 0,
        },
        regs: RegsRecord::default(),
        brk: 0,
        work_done: seq,
        policy: PolicyRecord { tag: 0, value: 0 },
        vmas: vec![],
        pages: pages
            .into_iter()
            .map(|(no, fill)| PageRecord::capture(no, &vec![fill; 4096]))
            .collect(),
        fds: vec![],
        files: vec![],
        sig: SigRecord::default(),
        timers: vec![],
        program: ProgramRecord::Vm {
            name: "prop".into(),
            text: vec![0],
        },
    }
}

/// A random chain: seq 1 is always Full, later seqs are Full with
/// probability 1/3.
fn arb_chain(g: &mut Gen) -> Vec<CheckpointImage> {
    let len = g.range(2, 8);
    let mut chain = Vec::new();
    for seq in 1..=len {
        let full = seq == 1 || g.range(0, 3) == 0;
        let pages: Vec<(u64, u8)> = if full {
            (0u64..6).map(|i| (i, g.byte())).collect()
        } else {
            (0..g.range(1, 4)).map(|_| (g.range(0, 6), g.byte())).collect()
        };
        let kind = if full {
            ImageKind::Full
        } else {
            ImageKind::Incremental
        };
        chain.push(mk(seq, seq.saturating_sub(1), kind, pages));
    }
    chain
}

/// Damage one segment on `k` distinct replicas: each victim either loses
/// the frame outright or keeps a torn prefix.
fn damage_segment(g: &mut Gen, store: &ReplicatedStore, key: &str, k: usize) {
    let set = store.replica_set();
    let n = set.len();
    let mut victims: Vec<usize> = (0..n).collect();
    // Deterministic shuffle, take the first k.
    for i in (1..n).rev() {
        let j = g.range(0, (i + 1) as u64) as usize;
        victims.swap(i, j);
    }
    for &r in victims.iter().take(k) {
        if g.flag() {
            set.node(r).drop_key(key);
        } else {
            set.node(r).corrupt_key(key);
        }
    }
}

fn quorums(case: u64) -> (usize, usize) {
    if case.is_multiple_of(2) {
        (3, 2)
    } else {
        (5, 3)
    }
}

#[test]
fn damage_within_tolerance_materializes_digest_identically() {
    let cost = CostModel::circa_2005();
    let mut total_repairs = 0u64;
    for case in 0..CASES {
        let mut g = Gen::new(23_000 + case);
        let (n, w) = quorums(case);
        let chain = arb_chain(&mut g);
        let mut store = ReplicatedStore::fresh(n, w);
        let mut keys = Vec::new();
        for img in &chain {
            keys.push(store_image(&mut store, JOB, img, &cost).unwrap().key);
        }
        let baseline = encode(
            &load_latest_valid_chain(&store, JOB, PID, &cost, |_| Ok(()))
                .unwrap()
                .image,
        );

        // Adversary: every segment independently loses up to N − w
        // replicas (dropped or torn).
        for key in &keys {
            let k = g.range(0, (n - w + 1) as u64) as usize;
            damage_segment(&mut g, &store, key, k);
        }

        let load = load_latest_valid_chain(&store, JOB, PID, &cost, |_| Ok(()))
            .unwrap_or_else(|e| panic!("case {case}: tolerated damage broke the load: {e}"));
        assert_eq!(
            encode(&load.image),
            baseline,
            "case {case}: damaged-but-tolerated chain diverged"
        );
        assert_eq!(
            load.images_skipped, 0,
            "case {case}: quorum reads must mask tolerated damage, not skip segments"
        );
        total_repairs += store.stats().repairs;
    }
    // Read-repair actually did work somewhere in the sweep (most cases
    // damage at least one segment the winning chain then re-reads).
    assert!(total_repairs > 0, "adversarial sweep never exercised read-repair");
}

#[test]
fn damage_beyond_tolerance_is_quorum_lost_never_a_wrong_answer() {
    let cost = CostModel::circa_2005();
    let mut typed_refusals = 0u64;
    for case in 0..CASES {
        let mut g = Gen::new(37_000 + case);
        let (n, w) = quorums(case);
        let chain = arb_chain(&mut g);
        let mut store = ReplicatedStore::fresh(n, w);
        let mut keys = Vec::new();
        for img in &chain {
            keys.push(store_image(&mut store, JOB, img, &cost).unwrap().key);
        }
        let baseline = encode(
            &load_latest_valid_chain(&store, JOB, PID, &cost, |_| Ok(()))
                .unwrap()
                .image,
        );

        // One random segment loses N − w + 1 replicas: its quorum is gone.
        // (A single damage round always leaves at least w − 1 ≥ 1 intact
        // copies, so the segment stays visible and the read must *notice*
        // the loss — compounding rounds could erase all N copies, which no
        // quorum system can distinguish from "never stored".)
        let victim = g.range(0, keys.len() as u64) as usize;
        damage_segment(&mut g, &store, &keys[victim], n - w + 1);

        match load_latest_valid_chain(&store, JOB, PID, &cost, |_| Ok(())) {
            // Legal only when the lost segment was not needed (older than
            // the newest full image) — and then the bytes must be right.
            Ok(load) => assert_eq!(
                encode(&load.image),
                baseline,
                "case {case}: load past a lost quorum returned wrong bytes"
            ),
            Err(ImageStoreError::Storage(StorageError::QuorumLost { acked, needed })) => {
                assert!(
                    (acked as usize) < w && needed as usize == w,
                    "case {case}: nonsense quorum arithmetic: {acked}/{needed}"
                );
                typed_refusals += 1;
            }
            Err(e) => panic!("case {case}: expected QuorumLost, got {e}"),
        }
    }
    assert!(
        typed_refusals > 0,
        "sweep never hit the typed-refusal path on the random victim"
    );
}

#[test]
fn losing_the_newest_segments_quorum_always_refuses_typed() {
    // The newest segment sits on every winning chain, so killing its
    // quorum can never be sidestepped by fallback.
    let cost = CostModel::circa_2005();
    for case in 0..CASES {
        let mut g = Gen::new(41_000 + case);
        let (n, w) = quorums(case);
        let chain = arb_chain(&mut g);
        let mut store = ReplicatedStore::fresh(n, w);
        let mut keys = Vec::new();
        for img in &chain {
            keys.push(store_image(&mut store, JOB, img, &cost).unwrap().key);
        }
        damage_segment(&mut g, &store, keys.last().unwrap(), n - w + 1);
        let err = load_latest_valid_chain(&store, JOB, PID, &cost, |_| Ok(()))
            .expect_err("newest segment past tolerance must refuse");
        assert!(
            matches!(
                err,
                ImageStoreError::Storage(StorageError::QuorumLost { .. })
            ),
            "case {case}: wrong refusal type: {err}"
        );
    }
}

#[test]
fn read_repair_rebuilds_damaged_replicas_to_intact_frames() {
    let cost = CostModel::circa_2005();
    for case in 0..8 {
        let mut g = Gen::new(51_000 + case);
        let (n, w) = quorums(case);
        let mut store = ReplicatedStore::fresh(n, w);
        let img = mk(1, 0, ImageKind::Full, (0u64..4).map(|i| (i, g.byte())).collect());
        let key = store_image(&mut store, JOB, &img, &cost).unwrap().key;
        damage_segment(&mut g, &store, &key, n - w);
        load_latest_valid_chain(&store, JOB, PID, &cost, |_| Ok(())).unwrap();
        // After one quorum read every reachable replica holds an intact
        // frame again.
        for node in store.replica_set().nodes() {
            match node.probe(&key) {
                Probe::Valid(f) => assert!(f.intact(), "replica {} torn", node.index()),
                other => panic!(
                    "case {case}: replica {} not repaired: {other:?}",
                    node.index()
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Durability regression: a refused overwrite rolls back every node it
// wrote — the one torn mid-write included — so the torn node keeps its
// committed copy and no attempted byte counts as ingested.
// ---------------------------------------------------------------------

use ckpt_restart::replica::{ReplicaConfig, ReplicaSet};
use ckpt_restart::storage::StableStorage;
use simos::faultpoint::{Fault, FaultHandle};

/// At (3,2), store "old-value", then overwrite it from a second client
/// while r1 is down and r0 tears after `keep` bytes at `site`.
fn torn_refused_overwrite_keeps_the_committed_copy(site: &str, keep: u64, batch: bool) {
    let cost = CostModel::circa_2005();
    let set = ReplicaSet::new(3);
    let mut first = ReplicatedStore::new(set.clone(), ReplicaConfig::new(3, 2));
    first.store("k", b"old-value", &cost).unwrap();
    set.node(1).fail();
    let ingested = set.bytes_ingested();

    let torn = FaultHandle::armed(site, Fault::TornWrite { keep_bytes: keep });
    let mut second = ReplicatedStore::new(set.clone(), ReplicaConfig::new(3, 2)).with_faults(torn);
    let err = if batch {
        second.store_batch(&[("k", b"new-value".as_slice())], &cost).map(|_| ())
    } else {
        second.store("k", b"new-value", &cost).map(|_| ())
    };
    assert_eq!(err, Err(StorageError::QuorumLost { acked: 1, needed: 2 }));

    set.node(0).repair();
    set.node(1).repair();
    assert!(
        matches!(set.node(0).probe("k"), Probe::Valid(f) if f.data == b"old-value"),
        "the torn node lost its committed copy: {:?}",
        set.node(0).probe("k")
    );
    assert_eq!(set.bytes_ingested(), ingested, "a refused overwrite ingested bytes");
    // One later loss is within tolerance: the committed value must read.
    set.node(2).fail();
    assert_eq!(second.load("k", &cost).unwrap().0, b"old-value");
}

#[test]
fn torn_refused_overwrite_rolls_back_the_torn_node() {
    torn_refused_overwrite_keeps_the_committed_copy("replica/r0/store@1", 2, false);
}

#[test]
fn torn_refused_batch_overwrite_rolls_back_the_torn_node() {
    // Batch frame: 16-byte header, 20-byte record header, the 1-byte key
    // "k", then the payload — a cut at 39 lands 2 payload bytes.
    torn_refused_overwrite_keeps_the_committed_copy("replica/r0/batch@1", 39, true);
}
