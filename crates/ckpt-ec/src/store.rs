//! Reed-Solomon as a [`ShardCodec`]: [`Rs`] and its store,
//! [`ErasureStore`].
//!
//! An [`ErasureStore`] runs the shared quorum-commit core over `k + m`
//! shard nodes: every object splits into `k` data shards plus `m`
//! Reed-Solomon parity shards, one shard per node. A commit moves
//! `(k + m) / k ×` the object's bytes over the wire where an N-way
//! replicated commit moves `N ×` — the bandwidth win this layer exists
//! for — while still surviving any `m` node losses.
//!
//! ## Write quorum and reads
//!
//! A write commits when `w = k + ⌈m/2⌉` shard nodes acknowledge
//! (`w ≥ k + 1` since `m ≥ 1`): a committed write occupies at least `w`
//! nodes, so if a read finds `≥ k` intact shards at some version `v`, the
//! at most `m < w` other nodes cannot hide an entire newer commit. A read
//! reconstructs from any `k` intact shards of the winning version —
//! concatenation when all data shards survived, a GF(256)
//! matrix-inversion decode otherwise — and verifies the object digest
//! every shard header carries. Fewer than `k` intact shards, or a digest
//! mismatch, refuses with the typed [`StorageError::TooManyShardsLost`] —
//! never silent corruption, never fabricated bytes.
//!
//! ## Faultpoint sites
//!
//! `ec/s<i>/batch` for every write — a single-object store is a batch of
//! one — and `ec/s<i>/load` for reads; [`EcStripedStore`] renames the
//! prefix to `ecstripe<j>`.

use std::borrow::Cow;
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_replica::{
    fnv1a64, BackoffPolicy, Decoded, Frame, Probe, QuorumStats, QuorumStore, ShardCodec, Striped,
};
use ckpt_storage::{CodingGeometry, StorageError};
use simos::trace::TraceHandle;

use crate::rs::RsCode;

/// Per-shard frame header: magic, geometry, shard index, then the
/// object's length and digest so any `k` shards carry enough to verify
/// the reassembled object.
const SHARD_MAGIC: [u8; 4] = *b"ECS1";
const SHARD_HEADER: usize = 24;

fn shard_frame(k: u8, m: u8, idx: u8, object_len: u64, object_digest: u64, shard: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(SHARD_HEADER + shard.len());
    f.extend_from_slice(&SHARD_MAGIC);
    f.extend_from_slice(&[k, m, idx, 0]);
    f.extend_from_slice(&object_len.to_le_bytes());
    f.extend_from_slice(&object_digest.to_le_bytes());
    f.extend_from_slice(shard);
    f
}

/// Parse a shard frame; `None` if the header is malformed or the
/// geometry disagrees with the store's code (either way the shard is
/// unusable, which the caller counts as lost).
fn parse_shard(frame: &[u8], k: usize, m: usize) -> Option<(usize, u64, u64, &[u8])> {
    if frame.len() < SHARD_HEADER || frame[..4] != SHARD_MAGIC {
        return None;
    }
    if frame[4] as usize != k || frame[5] as usize != m {
        return None;
    }
    let idx = frame[6] as usize;
    let object_len = u64::from_le_bytes(frame[8..16].try_into().unwrap());
    let object_digest = u64::from_le_bytes(frame[16..24].try_into().unwrap());
    Some((idx, object_len, object_digest, &frame[SHARD_HEADER..]))
}

/// The erasure-coded view of [`QuorumStats`], mirroring the
/// [`simos::trace::ErasureAgg`] deltas the store emits (plus retries,
/// write-quorum losses and ack cycles).
pub type EcStats = QuorumStats;

/// RS(k, m) over GF(256): node `i` holds shard `i` in an `ECS1` frame.
#[derive(Debug, Clone)]
pub struct Rs {
    code: RsCode,
}

impl Rs {
    pub fn new(k: usize, m: usize) -> Self {
        Rs { code: RsCode::new(k, m) }
    }

    pub fn k(&self) -> usize {
        self.code.k()
    }

    pub fn m(&self) -> usize {
        self.code.m()
    }
}

/// One client handle on an erasure-coded store over `k + m` shard nodes.
pub type ErasureStore = QuorumStore<Rs>;

/// K erasure-coded stripes of RS(k, m) behind the shared striped router:
/// the sharded control plane commits its per-round batches as coded
/// frames, at `(k + m) / k ×` the bytes of replication.
pub type EcStripedStore = Striped<Rs>;

impl ShardCodec for Rs {
    const NODE: char = 's';
    const PREFIX: &'static str = "ec";
    const STRIPE_PREFIX: &'static str = "ecstripe";
    const UNFRAMED_STORE: bool = false;
    type Config = Rs;
    type Stats = EcStats;

    fn configure(rs: Rs) -> (Self, BackoffPolicy) {
        (rs, BackoffPolicy::default())
    }

    fn geometry(k: usize, m: usize) -> Rs {
        Rs::new(k, m)
    }

    fn nodes(&self) -> usize {
        self.k() + self.m()
    }

    /// Shard write quorum `k + ⌈m/2⌉`.
    fn write_quorum(&self) -> usize {
        self.k() + self.m().div_ceil(2)
    }

    fn read_width(&self) -> u64 {
        self.k() as u64
    }

    fn label(&self) -> String {
        format!("rs({},{})", self.k(), self.m())
    }

    fn striped_label(&self, stripes: usize) -> String {
        format!("ecstriped({stripes}x {})", self.label())
    }

    fn coding(&self) -> Option<CodingGeometry> {
        Some(CodingGeometry { k: self.k() as u32, m: self.m() as u32 })
    }

    /// The `k + m` shard frames of an object (parity rows fan out on the
    /// pool).
    fn encode<'a>(&self, data: &'a [u8], pool: &Arc<Pool>) -> Vec<Cow<'a, [u8]>> {
        let shards = self.code.split(data);
        let parity = self.code.encode(&shards, pool);
        let (len, digest) = (data.len() as u64, fnv1a64(data));
        let (k, m) = (self.k() as u8, self.m() as u8);
        let frames = shards.iter().chain(&parity).enumerate();
        frames.map(|(i, s)| Cow::Owned(shard_frame(k, m, i as u8, len, digest, s))).collect()
    }

    fn fits(&self, node: usize, frame: &Frame) -> bool {
        parse_shard(&frame.data, self.k(), self.m()).is_some_and(|(idx, ..)| idx == node)
    }

    fn decode(&self, seen: &[Option<Probe>], winner: Option<&Frame>) -> Result<Option<Decoded>, StorageError> {
        let (k, m) = (self.k(), self.m());
        let Some(winner) = winner else {
            // No node has ever seen this key — unless so many are down
            // that a committed shard set could be hiding on them.
            let down = seen.iter().filter(|p| p.is_none()).count();
            return match down > self.nodes() - self.write_quorum() {
                true => Err(StorageError::TooManyShardsLost { intact: 0, needed: k as u32 }),
                false => Ok(None),
            };
        };
        if winner.tombstone {
            return Ok(None);
        }
        // Collect the intact shards of the winning version. A frame whose
        // header is malformed or whose shard index disagrees with its
        // node counts as lost — it cannot be trusted into the decode.
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; k + m];
        let (mut object_len, mut digest, mut frame_len, mut intact) = (0, 0, 0, 0);
        for (i, p) in seen.iter().enumerate() {
            let Some(Probe::Valid(f)) = p else { continue };
            if f.version != winner.version {
                continue;
            }
            if let Some((idx, olen, odig, shard)) = parse_shard(&f.data, k, m).filter(|s| s.0 == i) {
                shards[idx] = Some(shard.to_vec());
                (object_len, digest, frame_len) = (olen, odig, f.data.len());
                intact += 1;
            }
        }
        let refused = StorageError::TooManyShardsLost { intact, needed: k as u32 };
        if (intact as usize) < k {
            return Err(refused);
        }
        let decoded = shards[..k].iter().any(Option::is_none);
        let full = self.code.reconstruct(&shards).expect("intact >= k shards reconstruct");
        let object = self.code.join(&full, object_len as usize);
        if fnv1a64(&object) != digest {
            // The shard set is internally inconsistent (the medium was
            // damaged beyond what frame digests catch). Returning the
            // reassembly would be silent corruption.
            return Err(refused);
        }
        Ok(Some(Decoded { object, digest, frame_len, decoded, shards: full }))
    }

    fn repair_frame<'a>(&self, d: &'a Decoded, node: usize) -> Cow<'a, [u8]> {
        let (k, m, len) = (self.k() as u8, self.m() as u8, d.object.len() as u64);
        Cow::Owned(shard_frame(k, m, node as u8, len, d.digest, &d.shards[node]))
    }

    fn used_bytes(&self, per_node: impl Iterator<Item = u64>) -> u64 {
        // Physical occupancy: the object spreads over the nodes, so the
        // sum — not the max — is one logical copy's coded footprint.
        per_node.sum()
    }

    fn trace(&self, trace: &TraceHandle, d: &QuorumStats) {
        trace.erasure(d.commits, d.decodes, d.repairs, d.shard_losses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_replica::{ReplicatedStore, StripedStore};
    use ckpt_storage::{ImageKey, StableStorage};
    use simos::cost::CostModel;

    fn cost() -> CostModel {
        CostModel::circa_2005()
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn refs(objects: &[(String, Vec<u8>)]) -> Vec<(&str, &[u8])> {
        objects.iter().map(|(k, d)| (k.as_str(), d.as_slice())).collect()
    }

    fn coded_objects() -> Vec<(String, Vec<u8>)> {
        (0..8).map(|i| (format!("o/{i}"), payload(300 + i * 17))).collect()
    }

    // Quorum-core behaviour both codecs share: each helper runs on
    // replicated(3,2) and RS(4,2), and the callers check the counters.

    fn commit_lands_everywhere<C: ShardCodec>(
        mut s: QuorumStore<C>,
        data: &[u8],
        want: (u32, u32, Option<CodingGeometry>),
    ) -> QuorumStore<C> {
        let r = s.store("j/pid1/seq1", data, &cost()).unwrap();
        assert_eq!(r.bytes, data.len() as u64);
        let man = s.replica_manifest("j/pid1/seq1").unwrap();
        assert_eq!(man.acked, (0..want.0).collect::<Vec<_>>());
        assert_eq!((man.n, man.w, man.version, man.coding), (want.0, want.1, 1, want.2));
        assert_eq!(man.digest, fnv1a64(data));
        assert_eq!(s.load("j/pid1/seq1", &cost()).unwrap().0, data);
        s
    }

    #[test]
    fn commit_reaches_every_node_and_records_a_manifest() {
        let s = commit_lands_everywhere(ReplicatedStore::fresh(3, 2), b"payload", (3, 2, None));
        assert_eq!(s.stats().commits, 1);
        let geometry = Some(CodingGeometry { k: 4, m: 2 });
        let s = commit_lands_everywhere(ErasureStore::fresh(4, 2), &payload(4096), (6, 5, geometry));
        assert_eq!(s.stats().commits, 1);
        assert_eq!(s.stats().decodes, 0, "all data shards intact: no decode");
    }

    /// Commit intact, then lose `lost` nodes for every `lost` up to
    /// `tolerated` (reads must serve), then one more (reads must refuse).
    fn tolerates_exactly<C: ShardCodec>(fresh: fn() -> QuorumStore<C>, tolerated: usize, refused: StorageError) {
        let data = payload(10_000);
        for lost in 1..=tolerated + 1 {
            let mut s = fresh();
            s.store("k", &data, &cost()).unwrap();
            for i in 0..lost {
                s.replica_set().node(i).fail();
            }
            match s.load("k", &cost()) {
                Ok((bytes, _)) => assert!(lost <= tolerated && bytes == data, "lost {lost} nodes"),
                Err(e) => assert_eq!((lost, e), (tolerated + 1, refused.clone())),
            }
        }
    }

    #[test]
    fn losses_within_tolerance_read_and_beyond_refuse_typed() {
        tolerates_exactly(|| ReplicatedStore::fresh(3, 2), 1, StorageError::QuorumLost { acked: 1, needed: 2 });
        tolerates_exactly(|| ErasureStore::fresh(4, 2), 2, StorageError::TooManyShardsLost { intact: 3, needed: 4 });
    }

    /// Drop and corrupt frames, then one read must serve the object and
    /// rebuild every damaged node intact; a second read repairs nothing.
    fn read_repair_rebuilds<C: ShardCodec>(mut s: QuorumStore<C>, dropped: &[usize], torn: &[usize]) -> QuorumStore<C> {
        let data = payload(5000);
        s.store("k", &data, &cost()).unwrap();
        let set = s.replica_set();
        dropped.iter().for_each(|&i| set.node(i).drop_key("k"));
        for &i in torn {
            set.node(i).corrupt_key("k");
            assert_eq!(set.node(i).probe("k"), Probe::Torn { version: 1 });
        }
        assert_eq!(s.load("k", &cost()).unwrap().0, data);
        for &i in dropped.iter().chain(torn) {
            assert!(matches!(set.node(i).probe("k"), Probe::Valid(_)), "node {i} not repaired intact");
        }
        let repairs = s.counters().repairs;
        s.load("k", &cost()).unwrap();
        assert_eq!(s.counters().repairs, repairs, "the next read must be repair-free");
        s
    }

    #[test]
    fn read_repair_rebuilds_dropped_and_torn_frames() {
        assert_eq!(read_repair_rebuilds(ReplicatedStore::fresh(3, 2), &[], &[1]).stats().repairs, 1);
        let s = read_repair_rebuilds(ErasureStore::fresh(4, 2), &[1], &[4]);
        assert_eq!(s.stats().repairs, 2);
        assert_eq!(s.stats().decodes, 1, "a data shard was lost: decode path");
    }

    /// With `victims` down a write cannot reach quorum: it must refuse
    /// typed and leave nothing behind — no traffic, no readable object.
    fn quorum_miss_rolls_back<C: ShardCodec>(
        mut s: QuorumStore<C>,
        victims: &[usize],
        objects: &[(&str, &[u8])],
        refused: StorageError,
    ) -> QuorumStore<C> {
        let set = s.replica_set();
        victims.iter().for_each(|&i| set.node(i).fail());
        let err = match objects {
            [(key, data)] => s.store(key, data, &cost()).map(|_| ()),
            _ => s.store_batch(objects, &cost()).map(|_| ()),
        };
        assert_eq!(err, Err(refused));
        assert_eq!(set.bytes_ingested(), 0);
        victims.iter().for_each(|&i| set.node(i).repair());
        for (key, _) in objects {
            assert!(
                matches!(s.load(key, &cost()), Err(StorageError::NotFound(_))),
                "object {key} of the failed commit must not survive"
            );
        }
        s
    }

    #[test]
    fn write_quorum_miss_is_typed_and_rolled_back() {
        let lost = StorageError::QuorumLost { acked: 1, needed: 2 };
        let s = quorum_miss_rolls_back(ReplicatedStore::fresh(3, 2), &[1, 2], &[("k", b"x")], lost.clone());
        assert_eq!(s.stats().quorum_losses, 1);
        let two = [("a", b"aa".as_slice()), ("b", b"bb".as_slice())];
        let s = quorum_miss_rolls_back(ReplicatedStore::fresh(3, 2), &[1, 2], &two, lost);
        assert_eq!(s.stats().quorum_losses, 1);
        let lost = StorageError::QuorumLost { acked: 4, needed: 5 };
        let s = quorum_miss_rolls_back(ErasureStore::fresh(4, 2), &[0, 1], &[("k", &payload(256))], lost.clone());
        assert_eq!(s.stats().quorum_losses, 1);
        quorum_miss_rolls_back(ErasureStore::fresh(4, 2), &[2, 3], &refs(&coded_objects()), lost);
    }

    /// A batch commits every object in one ack cycle; the same objects
    /// one by one pay a cycle each.
    fn batch_is_one_ack_cycle<C: ShardCodec>(fresh: fn() -> QuorumStore<C>, objects: &[(String, Vec<u8>)]) {
        let mut batched = fresh();
        let r = batched.store_batch(&refs(objects), &cost()).unwrap();
        assert_eq!((r.objects, r.ack_cycles), (objects.len() as u64, 1));
        let c = batched.counters();
        assert_eq!((c.commits, c.ack_cycles), (objects.len() as u64, 1));
        let all: Vec<u32> = (0..batched.codec().nodes() as u32).collect();
        for (k, d) in objects {
            assert_eq!(&batched.load(k, &cost()).unwrap().0, d);
            assert_eq!(batched.replica_manifest(k).unwrap().acked, all);
        }
        let mut looped = fresh();
        for (k, d) in objects {
            looped.store(k, d, &cost()).unwrap();
        }
        assert_eq!(looped.counters().ack_cycles, objects.len() as u64);
    }

    #[test]
    fn batched_commit_amortizes_ack_cycles() {
        let objects: Vec<(String, Vec<u8>)> =
            (0..8).map(|i| (format!("j/pid{i}/seq00000001"), vec![i as u8; 64])).collect();
        batch_is_one_ack_cycle(|| ReplicatedStore::fresh(3, 2), &objects);
        batch_is_one_ack_cycle(|| ErasureStore::fresh(4, 2), &coded_objects());
    }

    /// Node `missed` misses the delete and keeps a stale copy: the
    /// tombstone must outrank it, and reads repair instead of resurrect.
    fn delete_does_not_resurrect<C: ShardCodec>(mut s: QuorumStore<C>, missed: usize) {
        s.store("k", &payload(100), &cost()).unwrap();
        s.replica_set().node(missed).fail();
        s.delete("k").unwrap();
        s.replica_set().node(missed).repair();
        for _ in 0..2 {
            assert!(matches!(s.load("k", &cost()), Err(StorageError::NotFound(_))));
        }
        assert!(s.list().is_empty());
    }

    #[test]
    fn delete_is_tombstoned_and_does_not_resurrect() {
        delete_does_not_resurrect(ReplicatedStore::fresh(3, 2), 2);
        delete_does_not_resurrect(ErasureStore::fresh(4, 2), 5);
    }

    #[test]
    fn coded_commit_beats_equal_survivability_replication() {
        // RS(4,2) and replicated(3,2) both survive any single fault at
        // read time, but the coded commit moves half the bytes.
        let data = payload(256 * 1024);
        let mut ec = ErasureStore::fresh(4, 2);
        let t_ec = ec.store("k", &data, &cost()).unwrap().time_ns;
        let coded = ec.replica_set().bytes_ingested();
        let mut rep = ReplicatedStore::fresh(3, 2);
        let t_rep = rep.store("k", &data, &cost()).unwrap().time_ns;
        let mirrored = rep.replica_set().bytes_ingested();
        // RS(4,2) moves 1.5x the payload (+ tiny headers); replication
        // moves 3x. The coded path must land at or under 0.55x.
        assert!((coded as f64) < 0.55 * mirrored as f64, "coded {coded} vs mirrored {mirrored}");
        assert!(t_ec < t_rep, "coded commit {t_ec}ns must beat mirrored {t_rep}ns");
    }

    // The striped-pool tests, run over both codecs.

    fn lineages(n: u32) -> Vec<String> {
        (0..n).map(|pid| ImageKey::new("j", pid, 1).to_string()).collect()
    }

    fn round_trip_and_amortize<C: ShardCodec>(mut s: Striped<C>, len: usize) {
        let objects: Vec<(String, Vec<u8>)> =
            lineages(16).into_iter().enumerate().map(|(pid, k)| (k, vec![pid as u8; len])).collect();
        let r = s.store_batch(&refs(&objects), &cost()).unwrap();
        assert_eq!(r.objects, 16);
        assert!(r.ack_cycles <= 4, "one ack cycle per participating stripe, got {}", r.ack_cycles);
        for (k, d) in &objects {
            assert_eq!(&s.load(k, &cost()).unwrap().0, d);
        }
        assert_eq!(s.list().len(), 16);
    }

    #[test]
    fn striped_pools_round_trip_and_amortize_per_stripe() {
        round_trip_and_amortize(StripedStore::fresh(4, 3, 2), 32);
        round_trip_and_amortize(EcStripedStore::fresh(4, 4, 2), 1024);
    }

    fn cross_stripe_batch_is_all_or_nothing<C: ShardCodec>(mut s: Striped<C>) {
        let objects = lineages(8);
        // Kill stripe 1's write quorum (2 of 3 replicas, or 2 of 6 shard
        // nodes against w = 5).
        let set = s.striped_set();
        set.stripe(1).node(0).fail();
        set.stripe(1).node(1).fail();
        let refs: Vec<(&str, &[u8])> = objects.iter().map(|k| (k.as_str(), b"x".as_slice())).collect();
        let err = s.store_batch(&refs, &cost()).unwrap_err();
        assert!(matches!(err, StorageError::QuorumLost { .. }));
        // Heal everything: no object of the failed batch may have survived,
        // including the ones whose stripe committed before the failure.
        set.stripe(1).node(0).repair();
        set.stripe(1).node(1).repair();
        for k in &objects {
            assert!(
                matches!(s.load(k, &cost()), Err(StorageError::NotFound(_))),
                "object {k} leaked out of the aborted cross-stripe batch"
            );
        }
    }

    #[test]
    fn cross_stripe_batches_are_all_or_nothing() {
        cross_stripe_batch_is_all_or_nothing(StripedStore::fresh(2, 3, 2));
        cross_stripe_batch_is_all_or_nothing(EcStripedStore::fresh(2, 4, 2));
    }

    fn damaged_stripe_never_bleeds<C: ShardCodec>(
        mut s: Striped<C>,
        lost: usize,
        refused: fn(&StorageError) -> bool,
    ) {
        let keys = lineages(8);
        for k in &keys {
            s.store(k, k.as_bytes(), &cost()).unwrap();
        }
        // Lose more of stripe 0 than its codec tolerates.
        let set = s.striped_set();
        for i in 0..lost {
            set.stripe(0).node(i).fail();
        }
        for k in &keys {
            match set.route(k) {
                0 => {
                    let got = s.load(k, &cost());
                    assert!(got.as_ref().is_err_and(refused), "damaged stripe must refuse {k} typed, got {got:?}");
                }
                _ => assert_eq!(s.load(k, &cost()).unwrap().0, k.as_bytes(), "healthy stripe must still serve {k}"),
            }
        }
        assert!(!s.available(), "a quorum-less stripe degrades the pool");
    }

    #[test]
    fn damaged_stripe_never_bleeds_into_healthy_ones() {
        damaged_stripe_never_bleeds(StripedStore::fresh(2, 3, 2), 2, |e| {
            matches!(e, StorageError::QuorumLost { .. })
        });
        // Three of six shards: beyond m = 2.
        damaged_stripe_never_bleeds(EcStripedStore::fresh(2, 4, 2), 3, |e| {
            matches!(e, StorageError::TooManyShardsLost { .. })
        });
    }
}
