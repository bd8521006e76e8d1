//! A striped pool: K independent quorum stores behind one
//! [`StableStorage`] facade.
//!
//! A single [`ReplicaSet`] serializes every commit in the cluster behind
//! one node group — at thousands of ranks per round the storage pool, not
//! the coordinator, becomes the bottleneck. Striping splits the key space
//! across K *independent* groups (each its own nodes, its own write
//! quorum, its own faultpoint namespace `{STRIPE_PREFIX}<j>/...`), so
//! commits to different stripes proceed in parallel in virtual time: a
//! batched round's commit cost is the *maximum* stripe time, not the sum.
//! [`Striped`] works over any [`ShardCodec`]: [`StripedStore`] mirrors,
//! `ckpt_ec::EcStripedStore` codes.
//!
//! ## Stripe mapping
//!
//! Routing is by [`ObjectKey`] hash and is deliberately lineage-stable:
//!
//! * `Image` keys route by FNV-1a of the `job/pid<pid>/` lineage prefix,
//!   so every sequence number of a rank's chain lives on ONE stripe and a
//!   chain load never fans across stripes;
//! * `Chunk` keys route by their content digest (already a hash);
//! * anything else routes by FNV-1a of the whole key.
//!
//! Damage is therefore contained by construction: losing a stripe's quorum
//! takes out exactly the lineages mapped to it — objects on healthy
//! stripes stay readable, and a read of a damaged lineage gets the codec's
//! typed refusal, never bytes from a neighbouring stripe.

use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_storage::{
    BatchReceipt, ObjectKey, ReplicaManifest, StableStorage, StorageClass, StorageError,
    StoreReceipt,
};
use simos::cost::CostModel;
use simos::faultpoint::FaultHandle;
use simos::trace::TraceHandle;

use crate::backoff::BackoffPolicy;
use crate::mirror::{Mirror, ReplicaConfig};
use crate::node::{fnv1a64, ReplicaSet};
use crate::store::{QuorumStats, QuorumStore, ShardCodec};

/// Which stripe a key lives on: lineage hash for images, content digest
/// for chunks, whole-key hash otherwise. Pure and total — every client
/// and every restart computes the same mapping.
pub fn stripe_route(key: &str, stripes: usize) -> usize {
    debug_assert!(stripes > 0);
    let h = match ObjectKey::parse(key) {
        ObjectKey::Image(ik) => fnv1a64(ik.lineage().as_bytes()),
        ObjectKey::Chunk { digest } => digest,
        _ => fnv1a64(key.as_bytes()),
    };
    (h % stripes as u64) as usize
}

/// K independent [`ReplicaSet`]s. Shared (`Arc`) across every client
/// handle the same way a single set is.
pub struct StripedReplicaSet {
    stripes: Vec<Arc<ReplicaSet>>,
}

impl StripedReplicaSet {
    /// `k` stripes of `n` nodes each.
    pub fn new(k: usize, n: usize) -> Arc<Self> {
        assert!(k >= 1, "need at least one stripe");
        Arc::new(StripedReplicaSet {
            stripes: (0..k).map(|_| ReplicaSet::new(n)).collect(),
        })
    }

    pub fn stripe(&self, j: usize) -> Arc<ReplicaSet> {
        self.stripes[j].clone()
    }

    pub fn stripes(&self) -> &[Arc<ReplicaSet>] {
        &self.stripes
    }

    /// The stripe `key` routes to.
    pub fn route(&self, key: &str) -> usize {
        stripe_route(key, self.stripes.len())
    }
}

/// One client handle over a striped pool: a [`QuorumStore`] per stripe.
///
/// Single-object stores go through the framed batch path (a batch of one,
/// at the `{STRIPE_PREFIX}<j>/{NODE}<i>/batch` sites) so the crash matrix
/// exercises the same commit machinery at every object count; reads and
/// deletes route straight to the owning stripe.
pub struct Striped<C: ShardCodec> {
    set: Arc<StripedReplicaSet>,
    stores: Vec<QuorumStore<C>>,
}

/// A striped pool of `(n, w)` replicated stripes.
pub type StripedStore = Striped<Mirror>;

impl Striped<Mirror> {
    pub fn config(&self) -> ReplicaConfig {
        self.stores[0].config()
    }
}

impl<C: ShardCodec> Striped<C> {
    /// A pool over `set`, each stripe with the codec's node count.
    pub fn new(set: Arc<StripedReplicaSet>, cfg: C::Config) -> Self {
        let stores = set
            .stripes()
            .iter()
            .enumerate()
            .map(|(j, s)| {
                QuorumStore::new(s.clone(), cfg.clone()).with_site_prefix(format!("{}{j}", C::STRIPE_PREFIX))
            })
            .collect();
        Striped { set, stores }
    }

    /// A fresh `stripes`-wide pool plus its first client handle; `(a, b)`
    /// as for [`QuorumStore::fresh`].
    pub fn fresh(stripes: usize, a: usize, b: usize) -> Self {
        let cfg = C::geometry(a, b);
        let nodes = C::configure(cfg.clone()).0.nodes();
        Striped::new(StripedReplicaSet::new(stripes, nodes), cfg)
    }

    fn map(mut self, f: impl Fn(QuorumStore<C>) -> QuorumStore<C>) -> Self {
        self.stores = self.stores.into_iter().map(f).collect();
        self
    }

    pub fn with_faults(self, faults: FaultHandle) -> Self {
        self.map(|s| s.with_faults(faults.clone()))
    }

    pub fn with_trace(self, trace: TraceHandle) -> Self {
        self.map(|s| s.with_trace(trace.clone()))
    }

    pub fn with_pool(self, pool: Arc<Pool>) -> Self {
        self.map(|s| s.with_pool(pool.clone()))
    }

    pub fn with_backoff(self, backoff: BackoffPolicy) -> Self {
        self.map(|s| s.with_backoff(backoff))
    }

    pub fn striped_set(&self) -> Arc<StripedReplicaSet> {
        self.set.clone()
    }

    /// Counters summed over every stripe's client handle.
    pub fn stats(&self) -> C::Stats {
        let mut sum = QuorumStats::default();
        self.stores.iter().for_each(|s| sum += s.counters());
        sum.into()
    }

    fn home(&self, key: &str) -> usize {
        stripe_route(key, self.stores.len())
    }

    /// Batched commit with per-stripe receipts: objects are grouped by
    /// stripe (original order preserved) and each participating stripe
    /// commits its group as ONE framed batch, sequentially in stripe
    /// order. The stripes are independent, so in *virtual* time they
    /// commit concurrently: the aggregate [`BatchReceipt::time_ns`] is the
    /// maximum stripe time, `ack_cycles` one per participating stripe.
    ///
    /// All-or-nothing across stripes: if any stripe refuses quorum, every
    /// earlier stripe's commit is retracted — each node gets back the
    /// frame it held before, so previously committed values survive.
    pub fn store_batch_detailed(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<Vec<(usize, BatchReceipt)>, StorageError> {
        let width = self.stores.len();
        let mut groups: Vec<Vec<(&str, &[u8])>> = vec![Vec::new(); width];
        for &(key, data) in objects {
            groups[stripe_route(key, width)].push((key, data));
        }
        let mut receipts = Vec::new();
        let mut undos = Vec::new();
        for (j, group) in groups.iter().enumerate().filter(|(_, g)| !g.is_empty()) {
            match self.stores[j].commit(group, true, cost) {
                Ok((r, undo)) => {
                    receipts.push((j, r));
                    undos.push((j, undo));
                }
                Err(e) => {
                    for (done, undo) in undos.into_iter().rev() {
                        self.stores[done].retract_commit(undo);
                    }
                    return Err(e);
                }
            }
        }
        Ok(receipts)
    }
}

impl<C: ShardCodec> StableStorage for Striped<C> {
    fn class(&self) -> StorageClass {
        StorageClass::Remote
    }

    fn label(&self) -> String {
        self.stores[0].codec().striped_label(self.stores.len())
    }

    fn store(&mut self, key: &str, data: &[u8], cost: &CostModel) -> Result<StoreReceipt, StorageError> {
        let r = self.store_batch(&[(key, data)], cost)?;
        Ok(StoreReceipt { key: key.to_string(), bytes: r.bytes, time_ns: r.time_ns })
    }

    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        self.stores[self.home(key)].load(key, cost)
    }

    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        let j = self.home(key);
        self.stores[j].delete(key)
    }

    fn list(&self) -> Vec<String> {
        // Disjoint key partitions: the union just needs a sort.
        let mut keys: Vec<String> = self.stores.iter().flat_map(|s| s.list()).collect();
        keys.sort();
        keys
    }

    fn available(&self) -> bool {
        // A pool with any quorum-less stripe is degraded: keys mapped
        // there are unwritable, so advertising availability would promise
        // commits the pool cannot keep.
        self.stores.iter().all(|s| s.available())
    }

    fn used_bytes(&self) -> u64 {
        self.stores.iter().map(|s| s.used_bytes()).sum()
    }

    fn on_node_failure(&mut self) {
        self.stores.iter_mut().for_each(|s| s.on_node_failure());
    }

    fn on_node_repair(&mut self) {
        self.stores.iter_mut().for_each(|s| s.on_node_repair());
    }

    fn on_power_down(&mut self) {
        // Remote media are unaffected by the client node's power state.
    }

    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.stores[self.home(key)].replica_manifest(key)
    }

    fn store_batch(&mut self, objects: &[(&str, &[u8])], cost: &CostModel) -> Result<BatchReceipt, StorageError> {
        let receipts = self.store_batch_detailed(objects, cost)?;
        Ok(BatchReceipt {
            objects: receipts.iter().map(|(_, r)| r.objects).sum(),
            bytes: receipts.iter().map(|(_, r)| r.bytes).sum(),
            // Independent groups commit concurrently in virtual time.
            time_ns: receipts.iter().map(|(_, r)| r.time_ns).max().unwrap_or(0),
            ack_cycles: receipts.iter().map(|(_, r)| r.ack_cycles).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_storage::ImageKey;

    #[test]
    fn lineages_are_stripe_stable() {
        for job in ["a", "swp", "longer-job-name"] {
            for pid in 0..32 {
                let home = stripe_route(&ImageKey::new(job, pid, 1).to_string(), 4);
                for seq in 2..20 {
                    let k = ImageKey::new(job, pid, seq).to_string();
                    assert_eq!(
                        stripe_route(&k, 4),
                        home,
                        "chain {job}/pid{pid} must live on one stripe"
                    );
                }
            }
        }
    }

    #[test]
    fn routing_spreads_lineages_across_stripes() {
        let mut hit = [false; 4];
        for pid in 0..64 {
            hit[stripe_route(&ImageKey::new("j", pid, 1).to_string(), 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 lineages must touch all 4 stripes");
    }

    #[test]
    fn batch_time_is_max_over_stripes_not_sum() {
        let cost = CostModel::circa_2005();
        let mut one = StripedStore::fresh(1, 3, 2);
        let mut four = StripedStore::fresh(4, 3, 2);
        let objects: Vec<(String, Vec<u8>)> = (0..32)
            .map(|pid| (ImageKey::new("j", pid, 1).to_string(), vec![7u8; 4096]))
            .collect();
        let refs: Vec<(&str, &[u8])> = objects
            .iter()
            .map(|(k, d)| (k.as_str(), d.as_slice()))
            .collect();
        let t1 = one.store_batch(&refs, &cost).unwrap().time_ns;
        let t4 = four.store_batch(&refs, &cost).unwrap().time_ns;
        assert!(
            t4 * 2 < t1,
            "4 stripes must overlap commits in virtual time: {t4} vs {t1}"
        );
    }
}
