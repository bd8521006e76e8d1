//! # ckpt-cluster — the cluster substrate and distributed checkpointing
//!
//! The paper's motivation is capability computing: long-running parallel
//! applications on machines whose aggregate MTBF is shorter than the job.
//! This crate provides everything needed to make that scenario concrete
//! and measurable:
//!
//! * [`node`] / [`cluster`] — kernels-as-nodes, a shared remote checkpoint
//!   server, lock-step time, and exponential fail-stop failure injection;
//! * [`mpi`] — a deterministic bulk-synchronous message-passing job layer
//!   (the MPI stand-in; see DESIGN.md on the substitution);
//! * [`shard`] — LAM/MPI-style coordinated checkpointing at quiescent
//!   superstep boundaries, with migration-aware restart, as one two-level
//!   protocol: shard-local rounds with batched quorum commits under a
//!   root two-phase global cut (one shard per rank is the flat round),
//!   plus the 1k–10k node scale model;
//! * [`migrate`] — process migration with or without pod virtualization;
//! * [`livemig`] — iterative pre-copy / post-copy live migration with a
//!   dirty-rate-adaptive cutover;
//! * [`matrix`] — the crash matrix's cluster tiers (live migration, the
//!   shard protocol) and [`crash_matrix`], which sweeps the whole matrix;
//! * [`gang`] — gang scheduling via safe-preemption checkpoints;
//! * [`analytics`] — mechanistic job runs under failures, and an
//!   event-level Monte-Carlo model that scales the utilization analysis to
//!   BlueGene/L's 65,536 nodes.

pub mod analytics;
pub mod batch;
pub mod cluster;
pub mod gang;
pub mod livemig;
pub mod matrix;
pub mod migrate;
pub mod mpi;
pub mod node;
pub mod shard;

pub use analytics::{interval_sweep, simulate_job, stochastic_run, JobRunConfig, JobRunReport};
pub use batch::{BatchManager, BatchRoundReport, ManagedJob};
pub use cluster::{Cluster, FailureConfig, FailureEvent};
pub use gang::{Gang, GangScheduler};
pub use livemig::{
    migrate_postcopy, migrate_precopy, rebalance_rank_live, LiveMigConfig, PostCopyReport,
    PreCopyReport, RoundStat,
};
pub use matrix::{crash_matrix, MIGRATION_MECHS};
pub use migrate::{migrate, MigrationMode, MigrationReport};
pub use mpi::{JobInterrupt, MpiJob, RankRef};
pub use node::{Node, NodeId};
pub use shard::{
    scale_round, scale_round_with_pool, HierOutcome, ScaleConfig, ScalePoint, ShardRound,
    ShardedCoordinator,
};
