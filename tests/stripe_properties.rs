//! Property tests on the striped replica pool: random object sets spread
//! over K independent quorum sets, then subjected to adversarial
//! per-stripe damage. The invariants:
//!
//! * objects on stripes damaged within the `N − w` tolerance read back
//!   byte-identical (quorum reads mask the damage);
//! * objects on stripes damaged beyond tolerance refuse with a typed
//!   [`StorageError::QuorumLost`] — never wrong bytes;
//! * damage on one stripe NEVER bleeds into another: every object routed
//!   to a different stripe stays byte-identical no matter how badly the
//!   victim stripe is mauled.
//!
//! Cases are generated deterministically by [`common::Gen`]; a failing
//! seed reproduces directly.

mod common;

use ckpt_restart::replica::StripedStore;
use ckpt_restart::storage::{StableStorage, StorageError};
use common::Gen;
use simos::cost::CostModel;

const CASES: u64 = 24;

fn geometry(case: u64) -> (usize, usize, usize) {
    let stripes = [2usize, 3, 4][(case % 3) as usize];
    let (n, w) = if case.is_multiple_of(2) { (3, 2) } else { (5, 3) };
    (stripes, n, w)
}

/// Random object set: distinct keys (plain object keys and image-style
/// lineage keys both appear) with random payloads.
fn arb_objects(g: &mut Gen) -> Vec<(String, Vec<u8>)> {
    let count = g.range(6, 17) as usize;
    (0..count)
        .map(|i| {
            let key = if g.flag() {
                format!("job{}/pid{}/seq{:08}", g.range(0, 3), i, g.range(1, 5))
            } else {
                format!("obj/{i}/{}", g.range(0, 1_000_000))
            };
            let len = g.range(1, 2048) as usize;
            (key, g.bytes(len))
        })
        .collect()
}

/// Damage `k` distinct replicas of `key`'s frame on one stripe: each
/// victim either loses the frame outright or keeps a corrupted copy.
fn damage_on_stripe(
    g: &mut Gen,
    store: &StripedStore,
    stripe: usize,
    key: &str,
    k: usize,
) {
    let set = store.striped_set().stripe(stripe);
    let n = set.len();
    let mut victims: Vec<usize> = (0..n).collect();
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

#[test]
fn per_stripe_damage_is_contained_and_typed() {
    let cost = CostModel::circa_2005();
    let mut lost_objects = 0u64;
    let mut healthy_objects = 0u64;
    for case in 0..CASES {
        let mut g = Gen::new(61_000 + case);
        let (stripes, n, w) = geometry(case);
        let mut store = StripedStore::fresh(stripes, n, w);
        let objects = arb_objects(&mut g);
        // Mix the two commit paths: single stores and one framed batch.
        let (head, tail) = objects.split_at(objects.len() / 2);
        for (key, payload) in head {
            store.store(key, payload, &cost).unwrap();
        }
        if !tail.is_empty() {
            let batch: Vec<(&str, &[u8])> = tail
                .iter()
                .map(|(k, p)| (k.as_str(), p.as_slice()))
                .collect();
            store.store_batch(&batch, &cost).unwrap();
        }

        // Adversary: each stripe independently draws a damage level —
        // within tolerance (0..=N−w) or exactly one past it (quorum
        // gone, but at least w−1 ≥ 1 copies stay visible so the read
        // must *notice* the loss rather than see an empty stripe).
        let set = store.striped_set();
        let levels: Vec<usize> = (0..stripes)
            .map(|_| g.range(0, (n - w + 2) as u64) as usize)
            .collect();
        for (key, _) in &objects {
            let j = set.route(key);
            if levels[j] > 0 {
                damage_on_stripe(&mut g, &store, j, key, levels[j]);
            }
        }

        for (key, payload) in &objects {
            let j = set.route(key);
            if levels[j] <= n - w {
                // Healthy or tolerated stripe: byte-identical read, no
                // cross-stripe bleed from the mauled stripes.
                let (bytes, _) = store.load(key, &cost).unwrap_or_else(|e| {
                    panic!("case {case}: tolerated stripe {j} refused {key}: {e}")
                });
                assert_eq!(
                    &bytes, payload,
                    "case {case}: stripe {j} returned wrong bytes for {key}"
                );
                healthy_objects += 1;
            } else {
                // Quorum gone on this stripe: typed refusal, never bytes.
                match store.load(key, &cost) {
                    Err(StorageError::QuorumLost { acked, needed }) => {
                        assert!(
                            (acked as usize) < w && needed as usize == w,
                            "case {case}: nonsensical quorum arithmetic {acked}/{needed}"
                        );
                        lost_objects += 1;
                    }
                    Ok(_) => panic!(
                        "case {case}: stripe {j} lost its quorum for {key} but a read succeeded"
                    ),
                    Err(other) => panic!(
                        "case {case}: expected QuorumLost for {key}, got {other}"
                    ),
                }
            }
        }
    }
    // The sweep actually exercised both sides of the boundary.
    assert!(lost_objects > 0, "adversary never broke a stripe's quorum");
    assert!(healthy_objects > 0, "adversary never left a readable stripe");
}

#[test]
fn whole_stripe_failure_leaves_other_stripes_fully_readable() {
    // The coarsest adversary: power off every replica of one stripe.
    // Every object routed elsewhere stays byte-identical; every object
    // on the dead stripe refuses with a typed error.
    let cost = CostModel::circa_2005();
    for case in 0..CASES {
        let mut g = Gen::new(87_000 + case);
        let (stripes, n, w) = geometry(case);
        let mut store = StripedStore::fresh(stripes, n, w);
        let objects = arb_objects(&mut g);
        for (key, payload) in &objects {
            store.store(key, payload, &cost).unwrap();
        }
        let set = store.striped_set();
        let dead = g.range(0, stripes as u64) as usize;
        for r in 0..n {
            set.stripe(dead).node(r).fail();
        }
        for (key, payload) in &objects {
            if set.route(key) == dead {
                assert!(
                    store.load(key, &cost).is_err(),
                    "case {case}: read from the dead stripe succeeded for {key}"
                );
            } else {
                let (bytes, _) = store.load(key, &cost).unwrap_or_else(|e| {
                    panic!("case {case}: healthy stripe refused {key}: {e}")
                });
                assert_eq!(
                    &bytes, payload,
                    "case {case}: dead stripe {dead} bled into {key}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Durability regression: when a later stripe refuses an overwrite batch,
// the earlier stripes' commits are retracted back to their previously
// committed values — not deleted.
// ---------------------------------------------------------------------

use ckpt_restart::ec::EcStripedStore;
use ckpt_restart::replica::{ShardCodec, Striped};
use ckpt_restart::storage::ImageKey;

fn refused_cross_stripe_overwrite_keeps_committed_values<C: ShardCodec>(mut store: Striped<C>) {
    let cost = CostModel::circa_2005();
    let keys: Vec<String> = (0..8).map(|pid| ImageKey::new("j", pid, 1).to_string()).collect();
    for k in &keys {
        store.store(k, b"old", &cost).unwrap();
    }
    let set = store.striped_set();
    assert!(keys.iter().any(|k| set.route(k) == 0) && keys.iter().any(|k| set.route(k) == 1));

    set.stripe(1).node(0).fail();
    set.stripe(1).node(1).fail();
    let overwrite: Vec<(&str, &[u8])> = keys.iter().map(|k| (k.as_str(), b"new".as_slice())).collect();
    let err = store.store_batch(&overwrite, &cost).unwrap_err();
    assert!(matches!(err, StorageError::QuorumLost { .. }), "{}: got {err}", store.label());

    set.stripe(1).node(0).repair();
    set.stripe(1).node(1).repair();
    for k in &keys {
        match store.load(k, &cost) {
            Ok((bytes, _)) => assert_eq!(bytes, b"old", "{}: {k} changed", store.label()),
            Err(e) => panic!("{}: {k} (stripe {}) lost its committed value: {e}", store.label(), set.route(k)),
        }
    }
}

#[test]
fn refused_cross_stripe_overwrite_keeps_every_committed_value() {
    refused_cross_stripe_overwrite_keeps_committed_values(StripedStore::fresh(2, 3, 2));
    refused_cross_stripe_overwrite_keeps_committed_values(EcStripedStore::fresh(2, 4, 2));
}
