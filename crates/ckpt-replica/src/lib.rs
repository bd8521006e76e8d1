//! # ckpt-replica — quorum-committed stable storage
//!
//! The paper's survivability argument (Section 4.1, DESIGN.md §C6) is
//! binary: a checkpoint either lives where the failed node's death cannot
//! reach it, or it is gone. This crate makes the "remote" column concrete
//! the way production checkpoint stacks do: one logical store over
//! independent remote nodes, writes committed at a write quorum, reads
//! served from the newest intact frames with read-repair, and a typed
//! refusal — never a guess — once too many nodes are lost.
//!
//! The commit protocol exists once, in [`QuorumStore`]; a [`ShardCodec`]
//! says only how an object becomes per-node frames and when a read may be
//! answered. [`Mirror`] is replication(N, w), the `k = 1` code;
//! `ckpt_ec::Rs` is Reed-Solomon over the same core.
//!
//! * [`backoff`] — jittered exponential retry schedules over virtual time;
//! * [`node`] — the simulated nodes and their versioned, digest-protected
//!   frames;
//! * [`store`] — [`QuorumStore`] and the [`ShardCodec`] trait;
//! * [`mirror`] — [`Mirror`] and [`ReplicatedStore`];
//! * [`stripe`] — [`Striped`], K independent quorum groups behind one
//!   facade so commits to different key lineages overlap in virtual time.

pub mod backoff;
pub mod mirror;
pub mod node;
pub mod store;
pub mod stripe;

pub use backoff::{Backoff, BackoffPolicy, RetriesExhausted};
pub use mirror::{Mirror, ReplStats, ReplicaConfig, ReplicatedStore};
pub use node::{fnv1a64, Admission, Frame, Probe, ReplicaNode, ReplicaSet};
pub use store::{Decoded, QuorumStats, QuorumStore, ShardCodec};
pub use stripe::{stripe_route, Striped, StripedReplicaSet, StripedStore};
