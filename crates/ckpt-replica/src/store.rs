//! The quorum-commit core shared by replication and erasure coding.
//!
//! A [`QuorumStore`] is one client handle onto a shared [`ReplicaSet`].
//! Every write turns each object into one frame per node (a
//! [`ShardCodec`] decides how), fans the frames out, and commits once
//! `w` nodes acknowledge. Every read probes all nodes, picks the
//! highest-version intact frame, lets the codec accept or refuse what it
//! saw, and rewrites stale, torn and missing frames in place. Replication
//! is the `k = 1` code ([`Mirror`](crate::Mirror)); Reed-Solomon is the
//! other (`ckpt_ec::Rs`).
//!
//! Versions and digests suffice: a committed write lands intact on at
//! least `w` nodes, and `w` is chosen so that any read the codec accepts
//! sees a node of the newest commit; FNV-1a frame digests make torn
//! frames self-identifying.
//!
//! ## Commit protocol
//!
//! The key's next version is probed above every reachable frame (torn
//! frames and tombstones included). Admission then runs sequentially in
//! node order — reachability, queued transients, the
//! `{prefix}/{letter}<i>/{op}` faultpoint, jittered backoff retries — and
//! resolves each node to a full write, a torn write, or a skip. Every
//! writing node's current frames are snapshotted before the pure frame
//! copies fan out on the `ckpt-par` pool. Fewer than `w` full frames
//! reinstates the snapshots on every written node, torn ones included,
//! and refuses with [`StorageError::QuorumLost`]; otherwise each object
//! gets a [`ReplicaManifest`].
//!
//! A batch travels as one wire frame per node: a 16-byte frame header,
//! then per object a 20-byte record header, the key, and the node's
//! frame of the object. One admission cycle covers the whole batch
//! (`ack_cycles: 1`). A torn write keeps a *prefix* of that frame:
//! objects wholly below the tear land intact, the object straddling it
//! lands torn, and objects above it never reach the medium.
//!
//! ## Determinism
//!
//! Admission, fault checks and backoff arithmetic run on the calling
//! thread in node order; only pure copies (and the codec's encode) run on
//! the pool behind its ordered merge. Commits, manifests, costs and
//! counters are therefore identical at every pool width.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_storage::{
    BatchReceipt, CodingGeometry, ReplicaManifest, StableStorage, StorageClass, StorageError,
    StoreReceipt,
};
use parking_lot::Mutex;
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};
use simos::trace::TraceHandle;

use crate::backoff::{Backoff, BackoffPolicy};
use crate::node::{fnv1a64, Admission, Frame, Probe, ReplicaSet};

/// Counters a quorum store accumulates, readable without a recording
/// trace handle. Each codec exposes its own view of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuorumStats {
    /// Objects committed at write quorum.
    pub commits: u64,
    /// Per-node transient faults absorbed by backoff-retry.
    pub retries: u64,
    /// Reads that needed a matrix-inversion decode.
    pub decodes: u64,
    /// Stale, torn or missing frames rewritten during reads.
    pub repairs: u64,
    /// Reads refused with [`StorageError::TooManyShardsLost`].
    pub shard_losses: u64,
    /// Operations refused with [`StorageError::QuorumLost`].
    pub quorum_losses: u64,
    /// Acknowledgement round-trips: one per single store or delete, one
    /// per entire framed batch.
    pub ack_cycles: u64,
}

impl AddAssign for QuorumStats {
    fn add_assign(&mut self, d: QuorumStats) {
        self.commits += d.commits;
        self.retries += d.retries;
        self.decodes += d.decodes;
        self.repairs += d.repairs;
        self.shard_losses += d.shard_losses;
        self.quorum_losses += d.quorum_losses;
        self.ack_cycles += d.ack_cycles;
    }
}

/// A read the codec accepted: the object and what read-repair rebuilds
/// frames from.
pub struct Decoded {
    pub object: Vec<u8>,
    /// The object digest the winning frames carry.
    pub digest: u64,
    /// Bytes one node's frame moves over the wire.
    pub frame_len: usize,
    /// Whether serving the read needed a matrix-inversion decode.
    pub decoded: bool,
    /// The full shard set a coded read rebuilt (empty when mirroring).
    pub shards: Vec<Vec<u8>>,
}

/// What differs between replication and erasure coding. Everything else
/// (admission, versions, snapshots and rollback, batch framing, delete,
/// read-repair, manifests, counters) lives in [`QuorumStore`].
pub trait ShardCodec: Sized + Send + Sync {
    /// Letter naming node `i` in faultpoint sites: `{prefix}/{NODE}<i>/{op}`.
    const NODE: char;
    /// Site prefix of a lone store.
    const PREFIX: &'static str;
    /// Site prefix of stripe `j` of a striped pool: `{STRIPE_PREFIX}<j>`.
    const STRIPE_PREFIX: &'static str;
    /// Whether a single-object `store` is an unframed write at the
    /// `store` site rather than a batch of one at the `batch` site.
    const UNFRAMED_STORE: bool;
    /// What [`QuorumStore::new`] takes.
    type Config: Clone;
    /// The view [`QuorumStore::stats`] returns.
    type Stats: From<QuorumStats>;

    /// The codec and the backoff policy a config describes.
    fn configure(cfg: Self::Config) -> (Self, BackoffPolicy);
    /// The config `fresh(a, b)` builds: `(n, w)` or `(k, m)`.
    fn geometry(a: usize, b: usize) -> Self::Config;
    fn nodes(&self) -> usize;
    fn write_quorum(&self) -> usize;
    /// Frames a read moves to serve the object (`k`).
    fn read_width(&self) -> u64;
    fn label(&self) -> String;
    fn striped_label(&self, stripes: usize) -> String;
    fn coding(&self) -> Option<CodingGeometry>;
    /// One frame per node. Mirroring lends the caller's bytes to every
    /// node instead of copying them.
    fn encode<'a>(&self, data: &'a [u8], pool: &Arc<Pool>) -> Vec<Cow<'a, [u8]>>;
    /// Accept or refuse a read. `seen[i]` is node `i`'s frame (`None`:
    /// unreachable) and `winner` the highest-version intact frame. Returns
    /// `None` when there is no live object (absent, or a tombstone).
    fn decode(
        &self,
        seen: &[Option<Probe>],
        winner: Option<&Frame>,
    ) -> Result<Option<Decoded>, StorageError>;
    /// Whether an intact winning-version frame is usable on node `i`.
    fn fits(&self, _node: usize, _frame: &Frame) -> bool {
        true
    }
    /// The frame read-repair writes onto node `i`.
    fn repair_frame<'a>(&self, d: &'a Decoded, node: usize) -> Cow<'a, [u8]>;
    /// Occupancy from the reachable nodes' payload bytes.
    fn used_bytes(&self, per_node: impl Iterator<Item = u64>) -> u64;
    /// Feed a counter delta into the codec's trace aggregate.
    fn trace(&self, trace: &TraceHandle, d: &QuorumStats);
}

/// Per-node write decision, resolved sequentially before the pool runs
/// the copies. Only `Full` counts toward the quorum; `Torn` lands `keep`
/// bytes under the full digest, then the node is down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteCmd {
    Full,
    Torn { keep: usize },
    Skip,
}

/// Where each object sits in one node's wire frame.
struct Layout {
    /// Faultpoint op: `store` (unframed single object) or `batch`.
    op: &'static str,
    /// Backoff salt source: the key, or the batch id.
    id: String,
    bytes: u64,
    /// Per object: the first cut that lands any of it, and its payload
    /// span `[start, end)`.
    spans: Vec<(u64, u64, u64)>,
}

impl Layout {
    const FRAME_HEADER: u64 = 16;
    const RECORD_HEADER: u64 = 20;

    fn new(objects: &[(&str, &[u8])], frames: &[Vec<Cow<[u8]>>], framed: bool) -> Layout {
        if !framed {
            let len = frames[0][0].len() as u64;
            return Layout { op: "store", id: objects[0].0.to_string(), bytes: len, spans: vec![(0, 0, len)] };
        }
        let mut off = Self::FRAME_HEADER;
        let spans = objects
            .iter()
            .zip(frames)
            .map(|((key, _), f)| {
                let reach = off + 1;
                off += Self::RECORD_HEADER + key.len() as u64;
                let start = off;
                off += f[0].len() as u64;
                (reach, start, off)
            })
            .collect();
        Layout {
            op: "batch",
            id: format!("batch/{}+{}", objects[0].0, objects.len()),
            bytes: off,
            spans,
        }
    }

    /// What of object `j` a node's write leaves on its medium.
    fn cut(&self, j: usize, cmd: WriteCmd) -> WriteCmd {
        let (reach, start, end) = self.spans[j];
        match cmd {
            WriteCmd::Torn { keep } if keep as u64 >= end => WriteCmd::Full,
            WriteCmd::Torn { keep } if keep as u64 >= reach => WriteCmd::Torn {
                keep: (keep as u64).saturating_sub(start) as usize,
            },
            WriteCmd::Torn { .. } => WriteCmd::Skip,
            other => other,
        }
    }
}

/// What a commit overwrote: each written node's pre-write frames and the
/// keys' prior manifests, so the commit can be retracted exactly.
#[derive(Default)]
pub(crate) struct Undo {
    keys: Vec<String>,
    versions: Vec<u64>,
    priors: Vec<(usize, Vec<Option<Frame>>)>,
    manifests: Vec<Option<ReplicaManifest>>,
}

/// One client handle on a quorum store. Cheap to construct; handles on
/// the same [`ReplicaSet`] share all node state.
pub struct QuorumStore<C: ShardCodec> {
    set: Arc<ReplicaSet>,
    pub(crate) codec: C,
    pub(crate) backoff: BackoffPolicy,
    faults: FaultHandle,
    trace: TraceHandle,
    pool: Arc<Pool>,
    /// This *client's* reachability; node availability lives in the set.
    client_up: bool,
    site_prefix: String,
    manifests: BTreeMap<String, ReplicaManifest>,
    stats: Mutex<QuorumStats>,
}

fn xfer_ns(len: u64, cost: &CostModel) -> u64 {
    (len as f64 * cost.net_ns_per_byte).round() as u64
}

impl<C: ShardCodec> QuorumStore<C> {
    /// A store over `set`, which must have exactly the codec's node count.
    /// Fault injection defaults to off, tracing to the no-op sink, and the
    /// pool to the global `CKPT_PAR_WORKERS`-sized pool.
    pub fn new(set: Arc<ReplicaSet>, cfg: C::Config) -> Self {
        let (codec, backoff) = C::configure(cfg);
        let (n, have) = (codec.nodes(), set.len());
        assert_eq!(have, n, "{} needs {n} nodes, the set has {have}", codec.label());
        QuorumStore {
            set,
            codec,
            backoff,
            faults: FaultHandle::disabled(),
            trace: TraceHandle::disabled(),
            pool: ckpt_par::global().clone(),
            client_up: true,
            site_prefix: C::PREFIX.to_string(),
            manifests: BTreeMap::new(),
            stats: Mutex::new(QuorumStats::default()),
        }
    }

    /// A fresh node set plus its first client handle: `(n, w)` for
    /// replication, `(k, m)` for Reed-Solomon.
    pub fn fresh(a: usize, b: usize) -> Self {
        let cfg = C::geometry(a, b);
        let nodes = C::configure(cfg.clone()).0.nodes();
        QuorumStore::new(ReplicaSet::new(nodes), cfg)
    }

    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = pool;
        self
    }

    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = backoff;
        self
    }

    /// Rename the faultpoint site namespace (default [`ShardCodec::PREFIX`]);
    /// a striped pool gives stripe `j` its own `{STRIPE_PREFIX}<j>`.
    pub fn with_site_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.site_prefix = prefix.into();
        self
    }

    pub fn codec(&self) -> &C {
        &self.codec
    }

    pub fn replica_set(&self) -> Arc<ReplicaSet> {
        self.set.clone()
    }

    /// Counters accumulated by this client handle.
    pub fn stats(&self) -> C::Stats {
        self.counters().into()
    }

    /// The same counters in the codec-independent form.
    pub fn counters(&self) -> QuorumStats {
        *self.stats.lock()
    }

    fn bump(&self, d: QuorumStats) {
        *self.stats.lock() += d;
        self.codec.trace(&self.trace, &d);
    }

    /// Resolve node `i`'s admission (and, with `site = Some((op, bytes))`,
    /// its faultpoint) into a write decision, retrying transients on the
    /// jittered schedule salted by `salt ^ i`. Returns the decision,
    /// retries consumed and backoff virtual-ns accumulated.
    fn resolve(&self, i: usize, salt: u64, site: Option<(&str, u64)>) -> (WriteCmd, u64, u64) {
        let node = self.set.node(i);
        let mut backoff = Backoff::new(self.backoff, salt ^ i as u64);
        let (mut retries, mut delay_ns) = (0u64, 0u64);
        loop {
            let fault = match (node.admit(), site) {
                (Admission::Down, _) => return (WriteCmd::Skip, retries, delay_ns),
                (Admission::Transient, _) => Some(Fault::Transient),
                (Admission::Ok, Some((op, bytes))) if !self.faults.is_off() => {
                    let name = format!("{}/{}{i}/{op}", self.site_prefix, C::NODE);
                    self.faults.check(&name, bytes)
                }
                (Admission::Ok, _) => None,
            };
            match fault {
                None => return (WriteCmd::Full, retries, delay_ns),
                Some(Fault::Transient) => match backoff.next_delay_ns() {
                    Ok(d) => {
                        retries += 1;
                        delay_ns += d;
                    }
                    Err(_) => return (WriteCmd::Skip, retries, delay_ns),
                },
                Some(Fault::TornWrite { keep_bytes }) if site.is_some_and(|(op, _)| op != "load") => {
                    // The node dies mid-write; the prefix is already on
                    // its medium.
                    node.fail();
                    let keep = keep_bytes as usize;
                    return (WriteCmd::Torn { keep }, retries, delay_ns);
                }
                Some(_) => {
                    // Fail-stop (and torn-on-read, which has no byte
                    // stream to tear): the node dies.
                    node.fail();
                    return (WriteCmd::Skip, retries, delay_ns);
                }
            }
        }
    }

    /// Highest frame version any reachable node holds for `key` (torn
    /// frames and tombstones included — versions must keep climbing past
    /// them).
    fn probe_max_version(&self, key: &str) -> u64 {
        self.set
            .nodes()
            .iter()
            .filter(|n| !n.is_down())
            .map(|n| match n.probe(key) {
                Probe::Missing => 0,
                Probe::Torn { version } => version,
                Probe::Valid(f) => f.version,
            })
            .max()
            .unwrap_or(0)
    }

    /// Undo a commit: on every node it wrote, put back the frame the node
    /// held before (only where the commit's version is still there, so a
    /// newer commit is never clobbered), and restore the keys' prior
    /// manifests. Bytes the commit landed come back out of
    /// `bytes_ingested`. A failed quorum rolls itself back with this; a
    /// striped pool uses it to retract earlier stripes when a later one
    /// refuses.
    pub(crate) fn retract_commit(&mut self, undo: Undo) {
        for (i, priors) in undo.priors {
            for (j, prior) in priors.into_iter().enumerate() {
                self.set.node(i).rollback_to(&undo.keys[j], undo.versions[j], prior);
            }
        }
        for (key, prior) in undo.keys.into_iter().zip(undo.manifests) {
            match prior {
                Some(m) => self.manifests.insert(key, m),
                None => self.manifests.remove(&key),
            };
        }
    }

    /// The two-phase commit of `objects` (see the module docs), as one
    /// wire frame per node when `framed`, else as the single object's own
    /// unframed frame. Returns the receipt and what retracts it.
    pub(crate) fn commit(
        &mut self,
        objects: &[(&str, &[u8])],
        framed: bool,
        cost: &CostModel,
    ) -> Result<(BatchReceipt, Undo), StorageError> {
        if !self.client_up {
            return Err(StorageError::Unavailable);
        }
        if objects.is_empty() {
            let r = BatchReceipt { objects: 0, bytes: 0, time_ns: 0, ack_cycles: 0 };
            return Ok((r, Undo::default()));
        }
        let (n, w) = (self.codec.nodes(), self.codec.write_quorum());
        let versions: Vec<u64> = objects.iter().map(|(k, _)| self.probe_max_version(k) + 1).collect();
        let frames: Vec<Vec<Cow<[u8]>>> = objects.iter().map(|(_, d)| self.codec.encode(d, &self.pool)).collect();
        let layout = Layout::new(objects, &frames, framed);

        // Phase 1 (sequential, node order): ONE admission + fault-check +
        // retry/backoff cycle per node for the whole frame.
        let mut delta = QuorumStats { ack_cycles: 1, ..QuorumStats::default() };
        let mut backoff_ns = 0u64;
        let salt = fnv1a64(layout.id.as_bytes());
        let cmds: Vec<WriteCmd> = (0..n)
            .map(|i| {
                let (cmd, r, d) = self.resolve(i, salt, Some((layout.op, layout.bytes)));
                delta.retries += r;
                backoff_ns += d;
                cmd
            })
            .collect();

        // Pre-write snapshots: `put` replaces a node's frame in place, so
        // a failed quorum needs them to restore the committed state.
        let undo = Undo {
            keys: objects.iter().map(|(k, _)| k.to_string()).collect(),
            priors: (0..n)
                .filter(|&i| cmds[i] != WriteCmd::Skip)
                .map(|i| (i, objects.iter().map(|(k, _)| self.set.node(i).snapshot_frame(k)).collect()))
                .collect(),
            manifests: objects.iter().map(|(k, _)| self.manifests.get(*k).cloned()).collect(),
            versions,
        };

        // Phase 2 (pool fan-out): pure copies, one node per work item.
        let set = self.set.clone();
        let (frames, layout, versions) = (&frames, &layout, &undo.versions);
        self.pool.par_map_ordered(cmds.iter().copied().enumerate().collect(), || (), |_, _, (i, cmd)| {
            for (j, (key, _)) in objects.iter().enumerate() {
                let frame = &frames[j][i];
                match layout.cut(j, cmd) {
                    WriteCmd::Full => set.node(i).put(key, versions[j], frame),
                    WriteCmd::Torn { keep } => set.node(i).put_torn(key, versions[j], frame, keep),
                    WriteCmd::Skip => {}
                }
            }
        });

        let acked: Vec<u32> = (0..n as u32).filter(|&i| cmds[i as usize] == WriteCmd::Full).collect();
        let xfer: u64 = cmds
            .iter()
            .map(|c| match *c {
                WriteCmd::Full => xfer_ns(layout.bytes, cost),
                WriteCmd::Torn { keep } => xfer_ns((keep as u64).min(layout.bytes), cost),
                WriteCmd::Skip => 0,
            })
            .sum();
        // One network round-trip for the whole frame.
        let time_ns = cost.net_latency_ns + xfer + backoff_ns;

        if acked.len() < w {
            self.retract_commit(undo);
            delta.quorum_losses = 1;
            self.bump(delta);
            return Err(StorageError::QuorumLost { acked: acked.len() as u32, needed: w as u32 });
        }
        for (j, (key, data)) in objects.iter().enumerate() {
            let manifest = ReplicaManifest {
                key: key.to_string(),
                version: undo.versions[j],
                digest: fnv1a64(data),
                bytes: data.len() as u64,
                acked: acked.clone(),
                n: n as u32,
                w: w as u32,
                coding: self.codec.coding(),
            };
            self.manifests.insert(key.to_string(), manifest);
        }
        delta.commits = objects.len() as u64;
        self.bump(delta);
        let bytes = objects.iter().map(|(_, d)| d.len() as u64).sum();
        Ok((BatchReceipt { objects: objects.len() as u64, bytes, time_ns, ack_cycles: 1 }, undo))
    }
}

impl<C: ShardCodec> StableStorage for QuorumStore<C> {
    fn class(&self) -> StorageClass {
        StorageClass::Remote
    }

    fn label(&self) -> String {
        self.codec.label()
    }

    fn store(&mut self, key: &str, data: &[u8], cost: &CostModel) -> Result<StoreReceipt, StorageError> {
        let (r, _) = self.commit(&[(key, data)], !C::UNFRAMED_STORE, cost)?;
        Ok(StoreReceipt { key: key.to_string(), bytes: r.bytes, time_ns: r.time_ns })
    }

    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        if !self.client_up {
            return Err(StorageError::Unavailable);
        }
        // Sequential probe of every node (admission + fault checks in node
        // order), recording what each reachable one holds.
        let mut delta = QuorumStats::default();
        let mut backoff_ns = 0u64;
        let salt = fnv1a64(key.as_bytes());
        let seen: Vec<Option<Probe>> = (0..self.codec.nodes())
            .map(|i| {
                let (cmd, r, d) = self.resolve(i, salt, Some(("load", 0)));
                delta.retries += r;
                backoff_ns += d;
                (cmd == WriteCmd::Full).then(|| self.set.node(i).probe(key))
            })
            .collect();
        let valid = seen.iter().filter_map(|p| if let Some(Probe::Valid(f)) = p { Some(f) } else { None });
        let winner = valid.max_by_key(|f| f.version);

        let decoded = match self.codec.decode(&seen, winner) {
            Ok(d) => d,
            Err(e) => {
                delta.quorum_losses = matches!(e, StorageError::QuorumLost { .. }) as u64;
                delta.shard_losses = matches!(e, StorageError::TooManyShardsLost { .. }) as u64;
                self.bump(delta);
                return Err(e);
            }
        };
        let Some(winner) = winner else {
            self.bump(delta);
            return Err(StorageError::NotFound(key.to_string()));
        };

        // Read-repair: rewrite the winning frame onto every reachable node
        // that does not hold a usable copy of it (a node skipped by this
        // read is probed afresh). A repaired tombstone is what keeps a
        // deleted key from resurrecting.
        let lagging: Vec<usize> = (0..seen.len())
            .filter(|&i| !self.set.node(i).is_down())
            .filter(|&i| {
                let held = seen[i].as_ref().map_or_else(|| Cow::Owned(self.set.node(i).probe(key)), Cow::Borrowed);
                !matches!(&*held, Probe::Valid(f) if f.version >= winner.version
                    && (winner.tombstone || self.codec.fits(i, f)))
            })
            .collect();
        delta.repairs = lagging.len() as u64;
        if !lagging.is_empty() {
            let (set, codec, decoded) = (self.set.clone(), &self.codec, &decoded);
            self.pool.par_map_ordered(lagging, || (), |_, _, i| match decoded {
                None => set.node(i).put_tombstone(key, winner.version),
                Some(d) => set.node(i).put(key, winner.version, &codec.repair_frame(d, i)),
            });
        }

        let Some(d) = decoded else {
            self.bump(delta);
            return Err(StorageError::NotFound(key.to_string()));
        };
        // `k` frames cross the wire to serve the read, plus one per
        // repaired node.
        let time_ns = cost.net_latency_ns
            + xfer_ns(d.frame_len as u64, cost) * (self.codec.read_width() + delta.repairs)
            + backoff_ns;
        delta.decodes = d.decoded as u64;
        self.bump(delta);
        Ok((d.object, time_ns))
    }

    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        if !self.client_up {
            return Err(StorageError::Unavailable);
        }
        let version = self.probe_max_version(key) + 1;
        let mut delta = QuorumStats { ack_cycles: 1, ..QuorumStats::default() };
        let mut acked = 0usize;
        // Deletes take the same admission/retry path but have no payload
        // to tear, so no faultpoint site is consulted.
        let salt = fnv1a64(key.as_bytes()) ^ 0xde1e;
        for i in 0..self.codec.nodes() {
            let (cmd, r, _) = self.resolve(i, salt, None);
            delta.retries += r;
            if cmd == WriteCmd::Full {
                self.set.node(i).put_tombstone(key, version);
                acked += 1;
            }
        }
        let w = self.codec.write_quorum();
        if acked < w {
            delta.quorum_losses = 1;
            self.bump(delta);
            return Err(StorageError::QuorumLost { acked: acked as u32, needed: w as u32 });
        }
        self.manifests.remove(key);
        self.bump(delta);
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        if !self.client_up {
            return Vec::new();
        }
        // Optimistic union over reachable nodes: listing is advisory (the
        // quorum read decides each key's readability) and must not hide
        // keys whose frames are partially lost.
        let mut keys: Vec<String> =
            self.set.nodes().iter().filter(|n| !n.is_down()).flat_map(|n| n.keys()).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    fn available(&self) -> bool {
        self.client_up && self.set.reachable() >= self.codec.write_quorum()
    }

    fn used_bytes(&self) -> u64 {
        let live = self.set.nodes().iter().filter(|n| !n.is_down());
        self.codec.used_bytes(live.map(|n| n.used_bytes()))
    }

    fn on_node_failure(&mut self) {
        // The *client's* node fail-stopped. The storage nodes are
        // elsewhere — surviving this event is the point of the layer.
        self.client_up = false;
    }

    fn on_node_repair(&mut self) {
        self.client_up = true;
    }

    fn on_power_down(&mut self) {
        // Remote media are unaffected by the client node's power state.
    }

    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.manifests.get(key).cloned()
    }

    fn store_batch(&mut self, objects: &[(&str, &[u8])], cost: &CostModel) -> Result<BatchReceipt, StorageError> {
        self.commit(objects, true, cost).map(|(r, _)| r)
    }
}
