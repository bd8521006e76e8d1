//! Simulated remote replica nodes.
//!
//! A [`ReplicaNode`] is one independent remote store holding versioned,
//! digest-protected frames; a [`ReplicaSet`] is the N-node group a
//! [`ReplicatedStore`](crate::ReplicatedStore) fans out over. The set is
//! shared (`Arc`) so every client handle in a cluster sees the same replica
//! state — that is what makes checkpoint data survive the loss of the
//! *writing* node.
//!
//! Determinism split: reachability and transient-fault **admission** is
//! decided sequentially on the calling thread ([`ReplicaNode::admit`]
//! consumes queued transients in replica order), while the frame writes
//! themselves are pure data copies safe to fan out on the worker pool —
//! each node carries its own lock, so workers copying payloads to
//! different replicas never contend.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// FNV-1a over a byte slice — the frame digest torn writes fail.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One replica's copy of one object. `digest` is computed over the *full*
/// payload at commit time; a torn write persists a prefix of `data` under
/// the full-payload digest, so the mismatch is detectable on every read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub version: u64,
    pub digest: u64,
    /// Deletion marker: tombstones win version ordering like any other
    /// frame, so a quorum delete cannot be resurrected by a stale copy.
    pub tombstone: bool,
    pub data: Vec<u8>,
}

impl Frame {
    /// A frame is intact when its payload hashes to its recorded digest.
    pub fn intact(&self) -> bool {
        self.tombstone || fnv1a64(&self.data) == self.digest
    }
}

/// Whether a replica will accept the next operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    Ok,
    /// One queued transient fault was consumed; retrying may succeed.
    Transient,
    /// The replica is fail-stopped; it refuses traffic until repaired.
    Down,
}

/// What a reachable replica holds under a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probe {
    Missing,
    /// Frame present but its digest does not match its payload (torn).
    Torn { version: u64 },
    /// Intact frame (tombstones included — the caller ranks by version).
    Valid(Frame),
}

#[derive(Default)]
struct NodeState {
    frames: BTreeMap<String, Frame>,
    /// Per-key digest-check memo: `(version, intact)` of the last frame
    /// probed under the key. Quorum reads and read-repair probe the same
    /// frame repeatedly (a batched round probes every key at least twice);
    /// the payload is only re-digested when the frame actually changed.
    /// Every mutator of `frames` invalidates the key's entry.
    intact_memo: BTreeMap<String, (u64, bool)>,
    /// How many full-payload digest computations this replica has done —
    /// the work the memo exists to avoid (observable, so tests can pin
    /// repeated reads at zero extra digests).
    digests_computed: u64,
    /// Monotonic payload bytes this replica has accepted over its life —
    /// the interconnect traffic a commit actually costs, which is what
    /// dedup is supposed to shrink.
    bytes_ingested: u64,
    down: bool,
    /// Deterministic fault-rate knob: the next `k` admitted operations
    /// fail transiently, in order.
    pending_transients: u32,
}

/// One simulated remote replica node.
pub struct ReplicaNode {
    index: u32,
    state: Mutex<NodeState>,
}

impl ReplicaNode {
    fn new(index: u32) -> Self {
        ReplicaNode {
            index,
            state: Mutex::new(NodeState::default()),
        }
    }

    pub fn index(&self) -> u32 {
        self.index
    }

    pub fn is_down(&self) -> bool {
        self.state.lock().down
    }

    /// Fail-stop this replica: it refuses all traffic until repaired.
    /// Frames survive (the medium is stable) — only reachability is lost.
    pub fn fail(&self) {
        self.state.lock().down = true;
    }

    pub fn repair(&self) {
        self.state.lock().down = false;
    }

    /// Queue `k` deterministic transient failures for future admissions.
    pub fn inject_transients(&self, k: u32) {
        self.state.lock().pending_transients = k;
    }

    /// Admit (or refuse) one operation. Call this sequentially, in replica
    /// order, on the planning thread — it consumes queued transients, so
    /// admission order is part of the deterministic schedule.
    pub fn admit(&self) -> Admission {
        let mut s = self.state.lock();
        if s.down {
            Admission::Down
        } else if s.pending_transients > 0 {
            s.pending_transients -= 1;
            Admission::Transient
        } else {
            Admission::Ok
        }
    }

    /// Store an intact frame: a torn write whose tear lies past the end of
    /// the payload. Pure data copy — admission already happened.
    pub fn put(&self, key: &str, version: u64, data: &[u8]) {
        self.put_torn(key, version, data, data.len());
    }

    /// Store a torn frame: the digest of the full payload over only its
    /// first `keep` bytes — exactly what a crash mid-write leaves behind.
    pub fn put_torn(&self, key: &str, version: u64, data: &[u8], keep: usize) {
        let mut s = self.state.lock();
        s.intact_memo.remove(key);
        s.bytes_ingested += keep.min(data.len()) as u64;
        s.frames.insert(
            key.to_string(),
            Frame {
                version,
                digest: fnv1a64(data),
                tombstone: false,
                data: data[..keep.min(data.len())].to_vec(),
            },
        );
    }

    /// Store a tombstone (quorum delete marker).
    pub fn put_tombstone(&self, key: &str, version: u64) {
        let mut s = self.state.lock();
        s.intact_memo.remove(key);
        s.frames.insert(
            key.to_string(),
            Frame {
                version,
                digest: 0,
                tombstone: true,
                data: Vec::new(),
            },
        );
    }

    /// Classify the frame under `key`. Pure read — admission is separate.
    ///
    /// The digest check is memoized per `(key, version)`: the first probe
    /// of a frame pays the full-payload FNV, repeated probes of the same
    /// committed frame are O(1). Every mutator invalidates the memo, so a
    /// rewritten or corrupted frame is always re-checked.
    pub fn probe(&self, key: &str) -> Probe {
        let mut s = self.state.lock();
        let s = &mut *s;
        let Some(f) = s.frames.get(key) else {
            return Probe::Missing;
        };
        let intact = f.tombstone
            || match s.intact_memo.get(key) {
                Some(&(v, ok)) if v == f.version => ok,
                _ => {
                    s.digests_computed += 1;
                    let ok = fnv1a64(&f.data) == f.digest;
                    s.intact_memo.insert(key.to_string(), (f.version, ok));
                    ok
                }
            };
        if intact {
            Probe::Valid(f.clone())
        } else {
            Probe::Torn { version: f.version }
        }
    }

    /// Full-payload digest computations this replica has performed so far
    /// (the memo in [`ReplicaNode::probe`] keeps this from scaling with
    /// the *read* count).
    pub fn digests_computed(&self) -> u64 {
        self.state.lock().digests_computed
    }

    /// Remove the frame under `key` outright (adversarial test hook —
    /// a real delete goes through tombstones).
    pub fn drop_key(&self, key: &str) {
        let mut s = self.state.lock();
        s.intact_memo.remove(key);
        s.frames.remove(key);
    }

    /// Raw frame under `key`, if any — the pre-write snapshot a quorum
    /// commit takes so a failed overwrite can be rolled back to the
    /// committed state instead of destroying it. Pure read: no digest
    /// work, no counters.
    pub fn snapshot_frame(&self, key: &str) -> Option<Frame> {
        self.state.lock().frames.get(key).cloned()
    }

    /// Roll a failed or retracted quorum write back: if the frame under
    /// `key` is still at `version` (full or torn), remove it and reinstate
    /// `prior`, the frame this node held before the write fanned out. A
    /// newer frame is never touched.
    ///
    /// The removed frame's bytes (full or torn prefix) come back out of
    /// `bytes_ingested`: the counter reports *committed* traffic, and a
    /// rolled-back write never committed. The reinstated payload is *not*
    /// re-counted: it was charged when the prior frame originally
    /// committed and never logically left the medium.
    pub fn rollback_to(&self, key: &str, version: u64, prior: Option<Frame>) {
        let mut s = self.state.lock();
        if s.frames.get(key).is_some_and(|f| f.version == version) {
            s.intact_memo.remove(key);
            if let Some(f) = s.frames.remove(key) {
                s.bytes_ingested = s.bytes_ingested.saturating_sub(f.data.len() as u64);
            }
            if let Some(p) = prior {
                s.frames.insert(key.to_string(), p);
            }
        }
    }

    /// Truncate the frame under `key` to half its payload, leaving the
    /// digest stale (adversarial torn-copy test hook).
    pub fn corrupt_key(&self, key: &str) {
        let mut s = self.state.lock();
        s.intact_memo.remove(key);
        if let Some(f) = s.frames.get_mut(key) {
            let keep = f.data.len() / 2;
            f.data.truncate(keep);
            if f.tombstone {
                // A corrupted tombstone reads as a torn data frame.
                f.tombstone = false;
            }
        }
    }

    /// Keys of non-tombstone frames on this replica (reachability is the
    /// caller's concern — this is the raw medium contents).
    pub fn keys(&self) -> Vec<String> {
        self.state
            .lock()
            .frames
            .iter()
            .filter(|(_, f)| !f.tombstone)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Payload bytes this replica has accepted for *committed* writes
    /// (torn writes count only what landed). Unlike [`used_bytes`], this
    /// is commit traffic, not occupancy: deletes and rewrites don't shrink
    /// it. The one thing that does is [`rollback_to`] — the rollback
    /// of a failed quorum commit retracts the attempt's bytes, so the
    /// counter reports what committed, not what was attempted.
    ///
    /// [`used_bytes`]: ReplicaNode::used_bytes
    /// [`rollback_to`]: ReplicaNode::rollback_to
    pub fn bytes_ingested(&self) -> u64 {
        self.state.lock().bytes_ingested
    }

    /// Payload bytes held (tombstones are empty).
    pub fn used_bytes(&self) -> u64 {
        self.state
            .lock()
            .frames
            .values()
            .map(|f| f.data.len() as u64)
            .sum()
    }
}

/// The shared N-node replica group.
pub struct ReplicaSet {
    nodes: Vec<Arc<ReplicaNode>>,
}

impl ReplicaSet {
    pub fn new(n: usize) -> Arc<Self> {
        assert!(n >= 1, "a replica set needs at least one node");
        Arc::new(ReplicaSet {
            nodes: (0..n as u32).map(|i| Arc::new(ReplicaNode::new(i))).collect(),
        })
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, i: usize) -> &Arc<ReplicaNode> {
        &self.nodes[i]
    }

    pub fn nodes(&self) -> &[Arc<ReplicaNode>] {
        &self.nodes
    }

    /// How many replicas are currently reachable.
    pub fn reachable(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_down()).count()
    }

    /// Total commit traffic the whole group has accepted (sum of every
    /// node's [`ReplicaNode::bytes_ingested`]).
    pub fn bytes_ingested(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_ingested()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_frames_fail_the_digest() {
        let set = ReplicaSet::new(3);
        let n = set.node(0);
        n.put("k", 1, b"hello world");
        assert!(matches!(n.probe("k"), Probe::Valid(_)));
        n.put_torn("k", 2, b"hello world", 5);
        assert_eq!(n.probe("k"), Probe::Torn { version: 2 });
    }

    #[test]
    fn failed_nodes_refuse_admission_but_keep_frames() {
        let set = ReplicaSet::new(3);
        let n = set.node(1);
        n.put("k", 1, b"data");
        n.fail();
        assert_eq!(n.admit(), Admission::Down);
        n.repair();
        assert_eq!(n.admit(), Admission::Ok);
        // The original frame survived the outage untouched.
        match n.probe("k") {
            Probe::Valid(f) => assert_eq!((f.version, f.data.as_slice()), (1, &b"data"[..])),
            other => panic!("expected the v1 frame back, got {other:?}"),
        }
    }

    #[test]
    fn repeated_probes_do_not_redigest() {
        let set = ReplicaSet::new(1);
        let n = set.node(0);
        n.put("k", 1, &vec![7u8; 64 * 1024]);
        assert!(matches!(n.probe("k"), Probe::Valid(_)));
        assert_eq!(n.digests_computed(), 1);
        for _ in 0..16 {
            assert!(matches!(n.probe("k"), Probe::Valid(_)));
        }
        assert_eq!(n.digests_computed(), 1, "repeated reads must hit the memo");
        // A rewrite invalidates the memo...
        n.put("k", 2, b"new");
        assert!(matches!(n.probe("k"), Probe::Valid(_)));
        assert_eq!(n.digests_computed(), 2);
        // ...and so does in-place corruption at an unchanged version.
        n.corrupt_key("k");
        assert_eq!(n.probe("k"), Probe::Torn { version: 2 });
        assert_eq!(n.digests_computed(), 3);
        // Tombstones are trivially intact: no digest work at all.
        n.put_tombstone("k", 3);
        assert!(matches!(n.probe("k"), Probe::Valid(f) if f.tombstone));
        assert_eq!(n.digests_computed(), 3);
    }

    #[test]
    fn rollback_retracts_ingested_bytes_including_torn_prefixes() {
        let set = ReplicaSet::new(2);
        let a = set.node(0);
        let b = set.node(1);
        // A full frame on one node, a torn prefix on the other — the shape
        // a crashed quorum write leaves behind.
        a.put("k", 5, &[1u8; 100]);
        b.put_torn("k", 5, &[1u8; 100], 40);
        assert_eq!(set.bytes_ingested(), 140);
        // The failed commit rolls both back: attempted bytes come out.
        a.rollback_to("k", 5, None);
        b.rollback_to("k", 5, None);
        assert_eq!(set.bytes_ingested(), 0, "rolled-back bytes must not count as traffic");
        // A later committed write at a different version is untouched by a
        // stale rollback.
        a.put("k", 6, &[2u8; 30]);
        a.rollback_to("k", 5, None);
        assert_eq!(a.bytes_ingested(), 30);
    }

    #[test]
    fn injected_transients_are_consumed_in_admission_order() {
        let set = ReplicaSet::new(1);
        let n = set.node(0);
        n.inject_transients(2);
        assert_eq!(n.admit(), Admission::Transient);
        assert_eq!(n.admit(), Admission::Transient);
        assert_eq!(n.admit(), Admission::Ok);
    }
}
