//! Replication as the `k = 1` code: [`Mirror`] and its store,
//! [`ReplicatedStore`].
//!
//! Every one of the N nodes holds the whole object. A write commits at
//! write quorum `w > N/2`, so after losing any `N − w` nodes at least
//! `2w − N ≥ 1` intact copies of the newest commit remain. A read is
//! refused with the typed [`StorageError::QuorumLost`] once more than
//! `N − w` nodes are unreachable, torn or missing the key — a committed
//! value could then live entirely on them, so any answer would be a guess.

use std::borrow::Cow;
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_storage::{CodingGeometry, StorageError};
use simos::trace::TraceHandle;

use crate::backoff::BackoffPolicy;
use crate::node::{Frame, Probe};
use crate::store::{Decoded, QuorumStats, QuorumStore, ShardCodec};

/// Quorum configuration: N replicas, write quorum w with `N/2 < w <= N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    pub n: usize,
    pub w: usize,
    pub backoff: BackoffPolicy,
}

impl ReplicaConfig {
    /// Panics unless `w > n/2` and `w <= n` — anything else is not a
    /// quorum system and silently weaker guarantees are exactly what this
    /// layer exists to rule out.
    pub fn new(n: usize, w: usize) -> Self {
        assert!(n >= 1, "need at least one replica");
        assert!(w <= n, "write quorum {w} cannot exceed replication factor {n}");
        assert!(w > n / 2, "write quorum {w} must be a majority of {n}");
        ReplicaConfig { n, w, backoff: BackoffPolicy::default() }
    }

    /// Replicas the protocol tolerates losing while still answering.
    pub fn tolerated_losses(&self) -> usize {
        self.n - self.w
    }
}

/// The replicated view of [`QuorumStats`], mirroring the
/// [`simos::trace::ReplicationAgg`] deltas the store emits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplStats {
    pub commits: u64,
    pub retries: u64,
    pub repairs: u64,
    pub quorum_losses: u64,
    /// Quorum acknowledgement round-trips consumed: one per single-object
    /// store or delete, one per *entire* framed batch commit.
    pub ack_cycles: u64,
}

impl From<QuorumStats> for ReplStats {
    fn from(s: QuorumStats) -> Self {
        ReplStats {
            commits: s.commits,
            retries: s.retries,
            repairs: s.repairs,
            quorum_losses: s.quorum_losses,
            ack_cycles: s.ack_cycles,
        }
    }
}

/// Replication(N, w): every node's frame is the object itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mirror {
    n: usize,
    w: usize,
}

/// One client handle on an N-way replicated store.
pub type ReplicatedStore = QuorumStore<Mirror>;

impl QuorumStore<Mirror> {
    pub fn config(&self) -> ReplicaConfig {
        ReplicaConfig { n: self.codec.n, w: self.codec.w, backoff: self.backoff }
    }
}

impl ShardCodec for Mirror {
    const NODE: char = 'r';
    const PREFIX: &'static str = "replica";
    const STRIPE_PREFIX: &'static str = "stripe";
    const UNFRAMED_STORE: bool = true;
    type Config = ReplicaConfig;
    type Stats = ReplStats;

    fn configure(cfg: ReplicaConfig) -> (Self, BackoffPolicy) {
        (Mirror { n: cfg.n, w: cfg.w }, cfg.backoff)
    }

    fn geometry(n: usize, w: usize) -> ReplicaConfig {
        ReplicaConfig::new(n, w)
    }

    fn nodes(&self) -> usize {
        self.n
    }

    fn write_quorum(&self) -> usize {
        self.w
    }

    fn read_width(&self) -> u64 {
        1
    }

    fn label(&self) -> String {
        format!("replicated({},{})", self.n, self.w)
    }

    fn striped_label(&self, stripes: usize) -> String {
        format!("striped({stripes}x{},{})", self.n, self.w)
    }

    fn coding(&self) -> Option<CodingGeometry> {
        None
    }

    fn encode<'a>(&self, data: &'a [u8], _pool: &Arc<Pool>) -> Vec<Cow<'a, [u8]>> {
        vec![Cow::Borrowed(data); self.n]
    }

    fn decode(&self, seen: &[Option<Probe>], winner: Option<&Frame>) -> Result<Option<Decoded>, StorageError> {
        let (mut down, mut torn, mut missing, mut valid) = (0, 0, 0, 0);
        for p in seen {
            match p {
                None => down += 1,
                Some(Probe::Missing) => missing += 1,
                Some(Probe::Torn { .. }) => torn += 1,
                Some(Probe::Valid(_)) => valid += 1,
            }
        }
        // A key no node has seen is absent unless more than `N − w` nodes
        // are down. Once it exists, every unreachable, torn or missing
        // copy might hide a newer commit than the best intact one.
        let suspect = if valid == 0 && torn == 0 { down } else { down + torn + missing };
        if suspect > self.n - self.w {
            return Err(StorageError::QuorumLost { acked: valid, needed: self.w as u32 });
        }
        Ok(winner.filter(|f| !f.tombstone).map(|f| Decoded {
            object: f.data.clone(),
            digest: f.digest,
            frame_len: f.data.len(),
            decoded: false,
            shards: Vec::new(),
        }))
    }

    fn repair_frame<'a>(&self, d: &'a Decoded, _node: usize) -> Cow<'a, [u8]> {
        Cow::Borrowed(&d.object)
    }

    fn used_bytes(&self, per_node: impl Iterator<Item = u64>) -> u64 {
        // One logical copy's worth: the fullest reachable replica.
        per_node.max().unwrap_or(0)
    }

    fn trace(&self, trace: &TraceHandle, d: &QuorumStats) {
        trace.replication(d.commits, d.retries, d.repairs, d.quorum_losses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ReplicaSet;
    use ckpt_storage::StableStorage;
    use simos::cost::CostModel;
    use simos::faultpoint::{Fault, FaultHandle};

    fn cost() -> CostModel {
        CostModel::circa_2005()
    }

    #[test]
    fn one_replica_down_still_commits_at_w2() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.replica_set().node(2).fail();
        s.store("k", b"x", &cost()).unwrap();
        let m = s.replica_manifest("k").unwrap();
        assert_eq!(m.acked, vec![0, 1]);
        // The downed replica heals and gets read-repaired on first read.
        s.replica_set().node(2).repair();
        let before = s.stats().repairs;
        s.load("k", &cost()).unwrap();
        assert_eq!(s.stats().repairs, before + 1);
        assert!(matches!(
            s.replica_set().node(2).probe("k"),
            Probe::Valid(_)
        ));
    }

    #[test]
    fn transient_faults_are_absorbed_by_backoff() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.replica_set().node(0).inject_transients(2);
        let r = s.store("k", b"x", &cost()).unwrap();
        assert_eq!(s.replica_manifest("k").unwrap().acked, vec![0, 1, 2]);
        assert_eq!(s.stats().retries, 2);
        // The backoff delay is charged to the modelled time.
        let clean = ReplicatedStore::fresh(3, 2)
            .store("k", b"x", &cost())
            .map(|r| r.time_ns)
            .unwrap();
        assert!(r.time_ns > clean, "retries must cost virtual time");
    }

    #[test]
    fn exhausted_retries_drop_the_replica_not_the_commit() {
        let mut s = ReplicatedStore::fresh(3, 2);
        let budget = s.config().backoff.max_retries;
        s.replica_set().node(0).inject_transients(budget + 4);
        s.store("k", b"x", &cost()).unwrap();
        assert_eq!(s.replica_manifest("k").unwrap().acked, vec![1, 2]);
    }

    #[test]
    fn versions_keep_climbing_across_client_restarts() {
        let set = ReplicaSet::new(3);
        let cfg = ReplicaConfig::new(3, 2);
        let mut a = ReplicatedStore::new(set.clone(), cfg);
        a.store("k", b"v1", &cost()).unwrap();
        a.store("k", b"v2", &cost()).unwrap();
        assert_eq!(a.replica_manifest("k").unwrap().version, 2);
        // A brand-new client (post-restart) probes the live version and
        // continues the order rather than restarting at 1.
        let mut b = ReplicatedStore::new(set, cfg);
        b.store("k", b"v3", &cost()).unwrap();
        assert_eq!(b.replica_manifest("k").unwrap().version, 3);
        let (bytes, _) = b.load("k", &cost()).unwrap();
        assert_eq!(bytes, b"v3");
    }

    #[test]
    fn client_node_failure_refuses_io_until_repair() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.store("k", b"x", &cost()).unwrap();
        s.on_node_failure();
        assert_eq!(s.load("k", &cost()), Err(StorageError::Unavailable));
        assert!(s.list().is_empty());
        assert!(!s.available());
        s.on_node_repair();
        assert!(s.available());
        assert_eq!(s.load("k", &cost()).unwrap().0, b"x");
    }

    #[test]
    fn torn_batch_frame_persists_a_detectable_prefix() {
        // Frame layout: 16B header, then "a"'s record (payload at 37..41)
        // and "b"'s (payload at 62..66). Tearing at byte 64 leaves "a"
        // intact on r0 and "b" torn mid-payload.
        let h = FaultHandle::armed("replica/r0/batch@1", Fault::TornWrite { keep_bytes: 64 });
        let mut s = ReplicatedStore::fresh(3, 2).with_faults(h);
        let r = s
            .store_batch(
                &[("a", b"aaaa".as_slice()), ("b", b"bbbb".as_slice())],
                &cost(),
            )
            .unwrap();
        assert_eq!(r.objects, 2);
        // r0 died mid-write; the quorum committed on r1+r2.
        assert_eq!(s.replica_manifest("a").unwrap().acked, vec![1, 2]);
        assert!(matches!(s.replica_set().node(0).probe("a"), Probe::Valid(_)));
        assert_eq!(
            s.replica_set().node(0).probe("b"),
            Probe::Torn { version: 1 },
            "the object straddling the tear must be self-identifying, not silent"
        );
        // Reads still see the committed values (and repair r0 once it heals).
        s.replica_set().node(0).repair();
        assert_eq!(s.load("a", &cost()).unwrap().0, b"aaaa");
        assert_eq!(s.load("b", &cost()).unwrap().0, b"bbbb");
        assert!(matches!(s.replica_set().node(0).probe("b"), Probe::Valid(_)));
    }

    #[test]
    fn batch_respects_site_prefix() {
        let h = FaultHandle::recording();
        let mut s = ReplicatedStore::fresh(3, 2)
            .with_faults(h.clone())
            .with_site_prefix("stripe4");
        s.store_batch(&[("k", b"x".as_slice())], &cost()).unwrap();
        let sites = h.sites();
        assert!(
            sites.iter().any(|s| s.name.starts_with("stripe4/r0/batch")),
            "expected stripe-prefixed batch sites, got {sites:?}"
        );
        assert!(sites.iter().all(|s| !s.name.starts_with("replica/")));
    }

    #[test]
    fn invalid_quorums_are_rejected() {
        assert!(std::panic::catch_unwind(|| ReplicaConfig::new(3, 1)).is_err());
        assert!(std::panic::catch_unwind(|| ReplicaConfig::new(4, 2)).is_err());
        assert!(std::panic::catch_unwind(|| ReplicaConfig::new(3, 4)).is_err());
        let c = ReplicaConfig::new(5, 3);
        assert_eq!(c.tolerated_losses(), 2);
    }
}
