//! # crashpoint — the exhaustive restart-correctness matrix
//!
//! Drives every mechanism family through a checkpointed run with exactly
//! one fault injected at one named [`simos::faultpoint`] site, then
//! restarts on a fresh kernel and classifies the cell:
//!
//! * **Restarted** — the recovered guest state is *bit-for-bit* identical
//!   to a deterministic standalone replay of the application to the same
//!   step (verified over the whole guest data span, word by word).
//! * **Detected** — the restart was rejected up front with a typed error
//!   (no image, CRC/format validation, volatile medium lost the data).
//! * **Violation** — anything else: a restart that "succeeded" with wrong
//!   state, a failure while an intact image demonstrably survives, or an
//!   armed fault that never fired (the cell would prove nothing).
//!   A correct implementation produces **zero** of these.
//!
//! One driver, [`sweep`], runs every tier. A [`Column`] is a
//! [`MatrixConfig`] plus two scenario functions: `record` runs the
//! scenario fault-free under a recording handle, so the site list is not
//! hard-coded — every site the column actually visits (checkpoint phases,
//! per-store byte offsets, chain segments, restart) is swept, and new
//! instrumentation joins automatically; `cell` runs it once armed and
//! classifies the end state. Each recorded site is armed with every fault
//! kind that applies there, so every cell executes.
//! Columns fan out on a [`Pool`] behind its ordered merge: the cells come
//! back in column order at any pool width.
//!
//! The process-level and hibernation columns live here ([`column()`]); the
//! cluster tiers (live migration, the sharded coordinator's protocol) live
//! in `ckpt_cluster::matrix`, which also owns the entry point that sweeps
//! the whole matrix.

use crate::mechanism::fork_concurrent::ForkConcurrentMechanism;
use crate::mechanism::hardware::{HardwareMechanism, HwFlavor};
use crate::mechanism::hibernate::{SoftwareSuspend, SuspendMode};
use crate::mechanism::ksignal::KernelSignalMechanism;
use crate::mechanism::kthread::{KernelThreadMechanism, KthreadIface, KthreadVariant};
use crate::mechanism::syscall::{SyscallMechanism, SyscallVariant};
use crate::mechanism::user_level::{Trigger, UserLevelMechanism};
use crate::mechanism::Mechanism;
use crate::report::RestartOutcome;
use crate::tracker::TrackerKind;
use crate::{shared_storage, RestorePid, SharedStorage};
use ckpt_cas::{ChunkParams, DedupStore};
use ckpt_ec::ErasureStore;
use ckpt_par::Pool;
use ckpt_replica::{ReplicaConfig, ReplicaSet, ReplicatedStore, StripedStore};
use ckpt_storage::{
    load_latest_valid_chain, FaultInjectStore, LocalDisk, NvramStore, RamStore, RemoteServer,
    RemoteStore, StableStorage, SwapStore,
};
use simos::apps::{self, AppParams, GuestMemIo, NativeKind, VecMem};
use simos::cost::{CostModel, PAGE_SIZE};
use simos::faultpoint::{Fault, FaultHandle, SiteRecord};
use simos::signal::Sig;
use simos::types::{Pid, SimResult};
use simos::Kernel;
use std::fmt;
use std::time::{Duration, Instant};

/// Job name under which every matrix scenario stores its images.
const JOB: &str = "crashmx";

/// Virtual run window before the first checkpoint.
const RUN1_NS: u64 = 3_000_000;
/// Virtual run window between the two checkpoints.
const RUN2_NS: u64 = 1_500_000;
/// Virtual run window after the second checkpoint.
const RUN3_NS: u64 = 500_000;

/// The six process-level mechanism families driven through [`Mechanism`].
pub const TRAIT_MECHANISMS: [&str; 6] = [
    "user-level",
    "syscall",
    "kernel-signal",
    "kernel-thread",
    "fork-concurrent",
    "hardware",
];

/// Storage backends crossed with the process-level mechanisms.
pub const BACKENDS: [&str; 3] = ["local-disk", "remote", "nvram"];

/// Backends crossed with whole-machine hibernation (its survivability
/// question is power-down, so the volatile RAM medium is included).
pub const HIBERNATE_BACKENDS: [&str; 2] = ["swap", "ram"];

/// Quorum-replicated backends forming the replication tier: every
/// per-replica fault site × every fault kind × both (N, w) configurations.
pub const REPLICATED_BACKENDS: [&str; 2] = ["replicated(3,2)", "replicated(5,3)"];

/// Dedup-layered backends forming the dedup tier: the content-addressed
/// chunk store's own fault sites (per-chunk stores/loads, the
/// chunks-durable-but-manifest-not `cas/commit` instant) swept over both a
/// single-copy and a quorum-replicated backing store. A torn manifest or
/// missing chunk must always end in typed detection or a bit-exact
/// fallback restart — never silent corruption.
pub const DEDUP_BACKENDS: [&str; 2] = ["dedup(local-disk)", "dedup(replicated(3,2))"];

/// Striped quorum pools forming the shard-commit tier: every store on a
/// [`ckpt_replica::StripedStore`] routes through the framed multi-object
/// batch-commit path (as a batch of one), so the recording pass
/// enumerates the per-stripe `stripe<j>/r<i>/batch` sites the sharded
/// control plane's deferred shard commits hit, and the sweep arms each
/// of them with every fault kind. A fault on one stripe must never
/// corrupt keys living on another.
pub const STRIPED_BACKENDS: [&str; 1] = ["striped(2x3,2)"];

/// Erasure-coded shard groups forming the coding tier: every store on an
/// [`ckpt_ec::ErasureStore`] travels the framed shard batch-commit path
/// (as a batch of one), so the recording pass enumerates the per-shard
/// `ec/s<i>/{batch,load}` sites — one shard node each — and the sweep
/// arms each with every fault kind. Losing a shard mid-commit must end
/// in a quorum rollback or a reconstructing restart, never silent
/// corruption; both geometries keep `m ≥ 1` spare shards over the
/// single-node losses the matrix injects.
pub const ERASURE_BACKENDS: [&str; 2] = ["rs(4,2)", "rs(8,3)"];

/// The one mechanism family driven over the storage tiers (replicated,
/// dedup, striped, erasure-coded): the layers above the `StableStorage`
/// trait are orthogonal to the medium and already swept against every
/// plain backend by the process-level columns.
pub const STORAGE_TIER_MECH: &str = "syscall";

/// Total cell count of the full matrix, including the cluster tiers
/// (live migration, shard protocol) contributed by
/// `ckpt_cluster::matrix`. The matrix is deterministic (the site list
/// comes from a fault-free recording pass per column, no sampling), so
/// the count is a fixed artifact of the instrumentation: any new site,
/// backend, or mechanism changes it, and the driver test asserts and
/// prints this constant so the documented number can never drift from
/// the code again.
pub const MATRIX_CELLS: usize = 1703;

/// Parse `"replicated(N,w)"` into its quorum parameters.
fn replicated_params(which: &str) -> Option<(usize, usize)> {
    match which {
        "replicated(3,2)" => Some((3, 2)),
        "replicated(5,3)" => Some((5, 3)),
        _ => None,
    }
}

/// Parse `"dedup(inner)"` into the backing-store name.
fn dedup_inner(which: &str) -> Option<&str> {
    which.strip_prefix("dedup(")?.strip_suffix(')')
}

/// Parse `"striped(KxN,w)"` into (stripes, replicas per stripe, quorum).
fn striped_params(which: &str) -> Option<(usize, usize, usize)> {
    match which {
        "striped(2x3,2)" => Some((2, 3, 2)),
        _ => None,
    }
}

/// Parse `"rs(k,m)"` into its coding geometry.
fn erasure_params(which: &str) -> Option<(usize, usize)> {
    match which {
        "rs(4,2)" => Some((4, 2)),
        "rs(8,3)" => Some((8, 3)),
        _ => None,
    }
}

/// One (mechanism × backend) column of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixConfig {
    pub mechanism: &'static str,
    pub backend: &'static str,
}

/// Every process-level and hibernation config, in matrix order.
pub fn all_configs() -> Vec<MatrixConfig> {
    let mut v = Vec::new();
    for mechanism in TRAIT_MECHANISMS {
        for backend in BACKENDS {
            v.push(MatrixConfig { mechanism, backend });
        }
    }
    for backend in HIBERNATE_BACKENDS {
        v.push(MatrixConfig {
            mechanism: "hibernate",
            backend,
        });
    }
    let storage_tiers = REPLICATED_BACKENDS
        .into_iter()
        .chain(DEDUP_BACKENDS)
        .chain(STRIPED_BACKENDS)
        .chain(ERASURE_BACKENDS);
    for backend in storage_tiers {
        v.push(MatrixConfig {
            mechanism: STORAGE_TIER_MECH,
            backend,
        });
    }
    v
}

/// One column of the matrix as the [`sweep`] driver sees it: the config
/// plus its two scenario functions. `record` runs the scenario under a
/// recording handle (nothing fires); `cell` runs it under an armed handle
/// and classifies the end state. Both must be pure functions of their
/// arguments, so a column can run on any pool worker.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    pub config: MatrixConfig,
    pub record: fn(MatrixConfig, &FaultHandle),
    pub cell: fn(MatrixConfig, &FaultHandle) -> CellOutcome,
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Restart succeeded and the guest state matched the deterministic
    /// replay bit-for-bit. `lost_steps` is the rollback distance.
    Restarted { lost_steps: u64 },
    /// Restart (or the interrupted checkpoint) failed with a typed error
    /// and no intact image survived — correct detection.
    Detected { error: String },
    /// Silent corruption, a refused restart despite an intact image, or
    /// an armed fault that never fired.
    Violation { what: String },
}

/// One cell of the matrix: a (mechanism, backend, site, fault) tuple and
/// its classified outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    pub mechanism: &'static str,
    pub backend: &'static str,
    pub site: String,
    pub fault: &'static str,
    pub outcome: CellOutcome,
}

impl fmt::Display for MatrixCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} {} [{}]: {:?}",
            self.mechanism, self.backend, self.site, self.fault, self.outcome
        )
    }
}

/// The whole matrix run.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    pub cells: Vec<MatrixCell>,
    /// Host wall time each column took, in column order. Diagnostic only:
    /// it varies run to run, so it takes no part in equality and appears
    /// in no rendered artifact.
    pub column_wall: Vec<(MatrixConfig, Duration)>,
}

impl PartialEq for MatrixReport {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
    }
}

impl MatrixReport {
    pub fn restarted(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Restarted { .. }))
    }
    pub fn detected(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Detected { .. }))
    }
    pub fn violations(&self) -> Vec<&MatrixCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Violation { .. }))
            .collect()
    }
    fn count(&self, f: impl Fn(&CellOutcome) -> bool) -> usize {
        self.cells.iter().filter(|c| f(&c.outcome)).count()
    }

    /// Per-(mechanism × backend) [restarted, detected, violations] counts,
    /// in matrix order.
    pub fn by_config(&self) -> Vec<(MatrixConfig, [usize; 3])> {
        let mut out: Vec<(MatrixConfig, [usize; 3])> = Vec::new();
        for c in &self.cells {
            let key = MatrixConfig {
                mechanism: c.mechanism,
                backend: c.backend,
            };
            let slot = match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, counts)) => counts,
                None => {
                    out.push((key, [0; 3]));
                    &mut out.last_mut().expect("just pushed").1
                }
            };
            let idx = match c.outcome {
                CellOutcome::Restarted { .. } => 0,
                CellOutcome::Detected { .. } => 1,
                CellOutcome::Violation { .. } => 2,
            };
            slot[idx] += 1;
        }
        out
    }
}

// ---------------------------------------------------------------------
// Deterministic guest-state digesting
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_word(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The application parameters every matrix scenario uses. Small enough to
/// keep the full sweep fast, sparse enough to exercise incremental chains.
pub fn app_params() -> AppParams {
    AppParams {
        mem_bytes: 96 * 1024,
        total_steps: u64::MAX,
        writes_per_step: 8,
        write_stride_pages: 4,
        seed: 0xc4a5_0517,
    }
}

/// Byte span of the guest data region (header page + working array).
fn data_span(params: &AppParams) -> (u64, u64) {
    let span = (apps::ARRAY_BASE - apps::HEADER_BASE) + params.mem_bytes + PAGE_SIZE;
    (apps::HEADER_BASE, span)
}

/// FNV-1a over the restored process's guest data span (absent pages read
/// as zero, exactly like the reference executor's untouched bytes).
fn restored_digest(k: &Kernel, pid: Pid, params: &AppParams) -> Option<u64> {
    let p = k.process(pid)?;
    let (base, span) = data_span(params);
    let mut h = FNV_OFFSET;
    let mut addr = base;
    while addr < base + span {
        let pn = addr / PAGE_SIZE;
        let off = (addr % PAGE_SIZE) as usize;
        let word = p
            .mem
            .page_data(pn)
            .map(|d| u64::from_le_bytes(d[off..off + 8].try_into().expect("8-byte slice")))
            .unwrap_or(0);
        h = fnv_word(h, word);
        addr += 8;
    }
    Some(h)
}

/// Replay the app standalone (no kernel) to exactly `target_step` steps
/// and digest the same data span.
fn reference_digest(params: &AppParams, target_step: u64) -> Result<u64, String> {
    let mut mem = VecMem::new(params);
    apps::init(NativeKind::SparseRandom, params, &mut mem);
    while mem.r64(apps::H_STEP) < target_step {
        let out = apps::step(NativeKind::SparseRandom, params, &mut mem);
        if out.finished {
            return Err(format!(
                "replay finished at step {} before target {target_step}",
                mem.r64(apps::H_STEP)
            ));
        }
    }
    if mem.r64(apps::H_STEP) != target_step {
        return Err(format!(
            "replay overshot target {target_step}: at {}",
            mem.r64(apps::H_STEP)
        ));
    }
    let (base, span) = data_span(params);
    let mut h = FNV_OFFSET;
    let mut addr = base;
    while addr < base + span {
        h = fnv_word(h, mem.r64(addr));
        addr += 8;
    }
    Ok(h)
}

/// Verify a restored process against the deterministic replay. Returns the
/// restored step count on success. Public so the cluster tiers use the
/// identical bit-for-bit verification, not a weaker local copy.
pub fn verify_restored(k: &Kernel, pid: Pid, params: &AppParams) -> Result<u64, String> {
    let p = k
        .process(pid)
        .ok_or_else(|| "restored process missing".to_string())?;
    let step = p.work_done;
    let mem_step = p
        .mem
        .page_data(apps::H_STEP / PAGE_SIZE)
        .map(|d| {
            let off = (apps::H_STEP % PAGE_SIZE) as usize;
            u64::from_le_bytes(d[off..off + 8].try_into().expect("8-byte slice"))
        })
        .unwrap_or(0);
    if mem_step != step {
        return Err(format!(
            "restored step counter {mem_step} disagrees with work_done {step}"
        ));
    }
    let expect = reference_digest(params, step)?;
    let got = restored_digest(k, pid, params).ok_or("restored process vanished")?;
    if got != expect {
        return Err(format!(
            "guest memory digest {got:#018x} != replay digest {expect:#018x} at step {step}"
        ));
    }
    Ok(step)
}

// ---------------------------------------------------------------------
// Scenario construction
// ---------------------------------------------------------------------

fn raw_backend(which: &str) -> Box<dyn StableStorage> {
    match which {
        "local-disk" => Box::new(LocalDisk::new(1 << 30)),
        "remote" => Box::new(RemoteStore::new(RemoteServer::new(1 << 30))),
        "nvram" => Box::new(NvramStore::new(1 << 30)),
        "swap" => Box::new(SwapStore::new(1 << 30)),
        "ram" => Box::new(RamStore::new(1 << 30)),
        other => panic!("unknown backend {other}"),
    }
}

fn injected_storage(which: &str, faults: &FaultHandle) -> SharedStorage {
    if let Some(inner) = dedup_inner(which) {
        // The dedup layer sits above a fault-injected backing store, so
        // every per-chunk store/load on the medium is a site — plus the
        // layer's own `cas/commit` site between the chunks landing and
        // the manifest write. Coarse chunking bounds the per-image chunk
        // count, keeping the added matrix columns small.
        let backing: Box<dyn StableStorage> = if let Some((n, w)) = replicated_params(inner) {
            let store = ReplicatedStore::new(ReplicaSet::new(n), ReplicaConfig::new(n, w))
                .with_faults(faults.clone());
            Box::new(FaultInjectStore::new(Box::new(store), faults.clone()))
        } else {
            Box::new(FaultInjectStore::new(raw_backend(inner), faults.clone()))
        };
        return shared_storage(
            DedupStore::new(backing)
                .with_params(ChunkParams::COARSE)
                .with_faults(faults.clone()),
        );
    }
    if let Some((k, n, w)) = striped_params(which) {
        // Single-object stores on the striped pool still travel the framed
        // batch-commit path, so every per-stripe `stripe<j>/r<i>/batch`
        // admission is a recorded site; the outer FaultInjectStore adds
        // the client-side `storage/striped(KxN,w)` sites on top.
        let store = StripedStore::fresh(k, n, w).with_faults(faults.clone());
        return shared_storage(FaultInjectStore::new(Box::new(store), faults.clone()));
    }
    if let Some((k, m)) = erasure_params(which) {
        // Single-object stores on the coded store travel the framed shard
        // batch-commit path, so every per-shard `ec/s<i>/batch` admission
        // is a recorded site; the outer FaultInjectStore adds the
        // client-side `storage/rs(k,m)` sites on top. A lost shard is the
        // case the code exists for: the restart must reconstruct.
        let store = ErasureStore::fresh(k, m).with_faults(faults.clone());
        return shared_storage(FaultInjectStore::new(Box::new(store), faults.clone()));
    }
    if let Some((n, w)) = replicated_params(which) {
        // The replicated store consults the shared handle itself at its
        // per-replica `replica/r<i>/{store,load}` sites; the outer
        // FaultInjectStore adds the client-side `storage/replicated(N,w)`
        // sites, so both the client's path and every replica's path are
        // swept.
        let store = ReplicatedStore::new(ReplicaSet::new(n), ReplicaConfig::new(n, w))
            .with_faults(faults.clone());
        return shared_storage(FaultInjectStore::new(Box::new(store), faults.clone()));
    }
    shared_storage(FaultInjectStore::new(raw_backend(which), faults.clone()))
}

fn build_mechanism(which: &str, storage: SharedStorage) -> Box<dyn Mechanism> {
    match which {
        "user-level" => Box::new(UserLevelMechanism::new(
            "libckpt",
            JOB,
            storage,
            TrackerKind::UserPage,
            Trigger::Signal { sig: Sig::SIGUSR1 },
        )),
        "syscall" => Box::new(SyscallMechanism::new(
            "epckpt",
            SyscallVariant::ByPid,
            JOB,
            storage,
            TrackerKind::KernelPage,
        )),
        "kernel-signal" => Box::new(KernelSignalMechanism::new(
            "chpox",
            JOB,
            storage,
            TrackerKind::KernelPage,
        )),
        "kernel-thread" => Box::new(KernelThreadMechanism::new(
            "crak",
            JOB,
            storage,
            TrackerKind::KernelPage,
            KthreadIface::Ioctl,
            KthreadVariant::default(),
        )),
        "fork-concurrent" => Box::new(ForkConcurrentMechanism::new("forkckpt", JOB, storage)),
        "hardware" => Box::new(HardwareMechanism::new(HwFlavor::Revive, JOB, storage)),
        other => panic!("unknown mechanism {other}"),
    }
}

/// Where a process-level scenario ended: the (possibly crashed) kernel,
/// the mechanism (it carries the restart target), and the shared storage.
struct ScenarioEnd {
    pid: Pid,
    mech: Box<dyn Mechanism>,
    storage: SharedStorage,
    work_at_end: u64,
    ckpt_error: Option<String>,
}

/// Run the standard scenario: spawn the app, run, checkpoint, run,
/// checkpoint again, run. Any injected fault surfaces as `ckpt_error`;
/// the scenario then stops where a real crash would have stopped it.
fn run_mech_scenario(mechanism: &str, backend: &str, faults: &FaultHandle) -> ScenarioEnd {
    let mut k = Kernel::new(CostModel::circa_2005());
    k.set_faults(faults.clone());
    let pid = k
        .spawn_native(NativeKind::SparseRandom, app_params())
        .expect("spawn");
    let _ = k.run_for(RUN1_NS);
    let storage = injected_storage(backend, faults);
    let mut mech = build_mechanism(mechanism, storage.clone());
    let mut checkpoints = || -> SimResult<()> {
        mech.prepare(&mut k, pid)?;
        mech.checkpoint(&mut k, pid)?;
        let _ = k.run_for(RUN2_NS);
        mech.checkpoint(&mut k, pid)?;
        let _ = k.run_for(RUN3_NS);
        Ok(())
    };
    let ckpt_error = checkpoints().err().map(|e| e.to_string());
    let work_at_end = k.process(pid).map(|p| p.work_done).unwrap_or(0);
    ScenarioEnd {
        pid,
        mech,
        storage,
        work_at_end,
        ckpt_error,
    }
}

/// Does a decodable full chain for the scenario's process survive in
/// storage? Used to validate `Detected` cells: refusing to restart while an
/// intact image exists would be a violation, not a detection.
fn intact_chain_exists(storage: &SharedStorage, pid: Pid) -> bool {
    let cost = CostModel::circa_2005();
    let s = storage.lock();
    load_latest_valid_chain(&**s, JOB, pid.0, &cost, |_| Ok(())).is_ok()
}

// ---------------------------------------------------------------------
// Process-level cells
// ---------------------------------------------------------------------

/// Restart on a fresh kernel. If the armed crash hit the restart itself
/// (it had not fired before), recovery from a crash *during* recovery is
/// simply another restart attempt, on another fresh kernel.
fn restart_on_fresh_kernel<T>(
    faults: &FaultHandle,
    fired_before: bool,
    mut restart: impl FnMut(&mut Kernel) -> SimResult<T>,
) -> (Kernel, SimResult<T>) {
    let fresh = || {
        let mut k = Kernel::new(CostModel::circa_2005());
        k.set_faults(faults.clone());
        k
    };
    let mut k = fresh();
    let mut result = restart(&mut k);
    if result.is_err() && !fired_before && faults.fired().is_some() {
        faults.clear_crash();
        k = fresh();
        result = restart(&mut k);
    }
    (k, result)
}

/// The whole process-level lifecycle: run the scenario, then the machine
/// event — the node fails (losing volatile media) and is repaired (or
/// replaced) — then restart on a fresh kernel.
fn mech_lifecycle(
    cfg: MatrixConfig,
    faults: &FaultHandle,
) -> (ScenarioEnd, Kernel, SimResult<RestartOutcome>) {
    let mut end = run_mech_scenario(cfg.mechanism, cfg.backend, faults);
    let fired_before_restart = faults.fired().is_some();
    faults.clear_crash();
    {
        let mut s = end.storage.lock();
        s.on_node_failure();
        s.on_node_repair();
    }
    let (k, restart) = restart_on_fresh_kernel(faults, fired_before_restart, |k| {
        end.mech.restart(k, RestorePid::Fresh)
    });
    (end, k, restart)
}

fn record_mech(cfg: MatrixConfig, faults: &FaultHandle) {
    let _ = mech_lifecycle(cfg, faults);
}

fn mech_cell(cfg: MatrixConfig, faults: &FaultHandle) -> CellOutcome {
    let (end, k, restart) = mech_lifecycle(cfg, faults);
    match restart {
        Ok(r) => match verify_restored(&k, r.pid, &app_params()) {
            Ok(step) => {
                if step != r.work_done {
                    return CellOutcome::Violation {
                        what: format!(
                            "restart reported work {} but guest is at step {step}",
                            r.work_done
                        ),
                    };
                }
                CellOutcome::Restarted {
                    lost_steps: end.work_at_end.saturating_sub(step),
                }
            }
            Err(what) => CellOutcome::Violation { what },
        },
        Err(e) => {
            if intact_chain_exists(&end.storage, end.pid) {
                CellOutcome::Violation {
                    what: format!("restart refused ({e}) but an intact chain survives"),
                }
            } else {
                let error = end.ckpt_error.unwrap_or_else(|| e.to_string());
                CellOutcome::Detected { error }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hibernation (whole-machine) scenarios
// ---------------------------------------------------------------------

struct HibernateEnd {
    susp: SoftwareSuspend,
    storage: SharedStorage,
    pids: Vec<Pid>,
    works: Vec<u64>,
    hib_error: Option<String>,
}

fn run_hibernate_scenario(backend: &str, faults: &FaultHandle) -> HibernateEnd {
    let mut k = Kernel::new(CostModel::circa_2005());
    k.set_faults(faults.clone());
    let mut pids = Vec::new();
    for _ in 0..2 {
        pids.push(
            k.spawn_native(NativeKind::SparseRandom, app_params())
                .expect("spawn"),
        );
    }
    let _ = k.run_for(RUN1_NS);
    let storage = injected_storage(backend, faults);
    let mut susp = SoftwareSuspend::new(storage.clone());
    let mode = if backend == "ram" {
        SuspendMode::ToRam
    } else {
        SuspendMode::ToDisk
    };
    let hib_error = susp.hibernate(&mut k, mode).err().map(|e| e.to_string());
    let works = pids
        .iter()
        .map(|p| k.process(*p).map(|p| p.work_done).unwrap_or(0))
        .collect();
    // Power-down follows the hibernation (that is its entire purpose);
    // during recording this also enumerates the resume-side sites.
    faults.clear_crash();
    storage.lock().on_power_down();
    HibernateEnd {
        susp,
        storage,
        pids,
        works,
        hib_error,
    }
}

/// How many decodable swsusp images exist in storage right now?
fn decodable_hibernate_images(storage: &SharedStorage) -> usize {
    let cost = CostModel::circa_2005();
    let s = storage.lock();
    s.list()
        .iter()
        .filter(|key| key.starts_with("swsusp/"))
        .filter(|key| {
            s.load(key, &cost)
                .ok()
                .and_then(|(bytes, _)| ckpt_image::decode(&bytes).ok())
                .is_some()
        })
        .count()
}

fn record_hibernate(cfg: MatrixConfig, faults: &FaultHandle) {
    let _ = run_hibernate_scenario(cfg.backend, faults);
}

fn hibernate_cell(cfg: MatrixConfig, faults: &FaultHandle) -> CellOutcome {
    let mut end = run_hibernate_scenario(cfg.backend, faults);
    let fired_before_resume = faults.fired().is_some();
    let (k, resume) = restart_on_fresh_kernel(faults, fired_before_resume, |k| end.susp.resume(k));
    match resume {
        Ok(restored) => {
            let mut lost = 0u64;
            for (i, pid) in restored.iter().enumerate() {
                match verify_restored(&k, *pid, &app_params()) {
                    Ok(step) => {
                        lost += end.works.get(i).copied().unwrap_or(0).saturating_sub(step);
                    }
                    Err(what) => return CellOutcome::Violation { what },
                }
            }
            if restored.len() != end.pids.len() {
                return CellOutcome::Violation {
                    what: format!(
                        "resume brought back {} of {} processes",
                        restored.len(),
                        end.pids.len()
                    ),
                };
            }
            CellOutcome::Restarted { lost_steps: lost }
        }
        Err(e) => {
            // A refusal is only a valid detection if the committed image
            // set did not in fact survive intact.
            if end.hib_error.is_none()
                && decodable_hibernate_images(&end.storage) == end.pids.len()
            {
                CellOutcome::Violation {
                    what: format!("resume refused ({e}) but all hibernation images survive"),
                }
            } else {
                let error = end.hib_error.unwrap_or_else(|| e.to_string());
                CellOutcome::Detected { error }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// The [`Column`] that sweeps one process-level or hibernation config.
pub fn column(config: MatrixConfig) -> Column {
    if config.mechanism == "hibernate" {
        Column {
            config,
            record: record_hibernate,
            cell: hibernate_cell,
        }
    } else {
        Column {
            config,
            record: record_mech,
            cell: mech_cell,
        }
    }
}

/// The fault kinds that apply at one recorded site, in sweep order: a
/// fail-stop and a transient apply everywhere; a torn write only where a
/// byte stream is actually written.
fn faults_for(site: &SiteRecord) -> Vec<Fault> {
    let mut kinds = vec![Fault::FailStop, Fault::Transient];
    if site.bytes >= 2 {
        kinds.push(Fault::TornWrite {
            keep_bytes: site.bytes / 2,
        });
    }
    kinds
}

/// The one fault-sweep driver. For each column: record its sites
/// fault-free, arm each site with each fault kind that applies there, and
/// classify the cell; a cell whose armed fault never fired is a
/// `Violation`. Columns fan out on `pool` and merge back in column order,
/// so `cells` are identical at every pool width.
pub fn sweep(pool: &Pool, columns: Vec<Column>) -> MatrixReport {
    let runs = pool.par_map_ordered(
        columns,
        || (),
        |_, _, col| {
            let start = Instant::now();
            let recording = FaultHandle::recording();
            (col.record)(col.config, &recording);
            let mut cells = Vec::new();
            for site in recording.sites() {
                for fault in faults_for(&site) {
                    let armed = FaultHandle::armed(&site.name, fault);
                    let mut outcome = (col.cell)(col.config, &armed);
                    if armed.fired().is_none() {
                        outcome = CellOutcome::Violation {
                            what: format!("armed fault never fired (cell ended {outcome:?})"),
                        };
                    }
                    cells.push(MatrixCell {
                        mechanism: col.config.mechanism,
                        backend: col.config.backend,
                        site: site.name.clone(),
                        fault: fault.label(),
                        outcome,
                    });
                }
            }
            (cells, (col.config, start.elapsed()))
        },
    );
    let mut report = MatrixReport::default();
    for (cells, wall) in runs {
        report.cells.extend(cells);
        report.column_wall.push(wall);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(cfg: MatrixConfig) -> Vec<SiteRecord> {
        let faults = FaultHandle::recording();
        (column(cfg).record)(cfg, &faults);
        faults.sites()
    }

    fn armed_cell(cfg: MatrixConfig, site: &str, fault: Fault) -> CellOutcome {
        (column(cfg).cell)(cfg, &FaultHandle::armed(site, fault))
    }

    #[test]
    fn reference_digest_is_step_exact_and_deterministic() {
        let p = app_params();
        let a = reference_digest(&p, 50).unwrap();
        let b = reference_digest(&p, 50).unwrap();
        let c = reference_digest(&p, 51).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "one extra step must change the digest");
    }

    #[test]
    fn sweep_runs_applicable_kinds_and_flags_faults_that_never_fire() {
        fn visit(_: MatrixConfig, f: &FaultHandle) {
            f.check("probe/store", 8);
        }
        fn visits(cfg: MatrixConfig, f: &FaultHandle) -> CellOutcome {
            visit(cfg, f);
            CellOutcome::Restarted { lost_steps: 0 }
        }
        fn skips(_: MatrixConfig, _: &FaultHandle) -> CellOutcome {
            CellOutcome::Restarted { lost_steps: 0 }
        }
        let config = MatrixConfig {
            mechanism: "probe",
            backend: "none",
        };
        let [a, b] = [visits, skips].map(|cell| Column {
            config,
            record: visit,
            cell,
        });
        let report = sweep(&Pool::new(2), vec![a, b]);
        let faults: Vec<&str> = report.cells.iter().map(|c| c.fault).collect();
        // A byte-carrying site gets all three kinds, in column order.
        assert_eq!(faults, ["fail-stop", "transient", "torn-write"].repeat(2));
        assert_eq!(report.restarted(), 3);
        assert_eq!(
            report.violations().len(),
            3,
            "an unfired fault proves nothing"
        );
        assert_eq!(report.column_wall.len(), 2);
        let no_bytes = SiteRecord {
            name: "probe/freeze@1".into(),
            bytes: 0,
        };
        assert_eq!(faults_for(&no_bytes), [Fault::FailStop, Fault::Transient]);
    }

    #[test]
    fn clean_scenario_restarts_bit_exact() {
        // No fault armed at all: every non-hibernate column — each plain
        // backend and every storage tier — must restart bit-exact.
        for cfg in all_configs() {
            if cfg.mechanism == "hibernate" {
                continue;
            }
            let (end, k, restart) = mech_lifecycle(cfg, &FaultHandle::disabled());
            assert!(end.ckpt_error.is_none(), "{cfg:?}: {:?}", end.ckpt_error);
            let r = restart.unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
            let step = verify_restored(&k, r.pid, &app_params()).unwrap();
            assert_eq!(step, r.work_done, "{cfg:?}");
            assert!(end.work_at_end >= step, "{cfg:?}");
        }
    }

    #[test]
    fn recording_enumerates_checkpoint_and_restart_sites() {
        let sites = recorded(MatrixConfig {
            mechanism: "syscall",
            backend: "local-disk",
        });
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        let has = |frag: &str| names.iter().any(|n| n.contains(frag));
        assert!(has("mech/epckpt/freeze"), "{names:?}");
        assert!(has("mech/epckpt/capture"), "{names:?}");
        assert!(has("mech/epckpt/store"), "{names:?}");
        assert!(has("mech/epckpt/walk"), "incremental second checkpoint: {names:?}");
        assert!(has("storage/local-disk/store"), "{names:?}");
        assert!(has("storage/local-disk/load"), "{names:?}");
        assert!(has("chain/seg"), "{names:?}");
        assert!(has("mech/restart/restore"), "{names:?}");
        // Store sites carry byte sizes so torn writes can split them.
        assert!(sites
            .iter()
            .any(|s| s.name.contains("/store") && s.bytes > 0));
    }

    #[test]
    fn fail_stop_mid_store_falls_back_to_previous_checkpoint() {
        let cfg = MatrixConfig {
            mechanism: "syscall",
            backend: "local-disk",
        };
        let sites = recorded(cfg);
        let store2 = sites
            .iter()
            .find(|s| s.name.contains("storage/local-disk/store@2"))
            .expect("second store site recorded");
        let torn = Fault::TornWrite {
            keep_bytes: store2.bytes / 2,
        };
        let out = armed_cell(cfg, &store2.name, torn);
        match out {
            CellOutcome::Restarted { lost_steps } => {
                assert!(lost_steps > 0, "rolled back past the torn checkpoint")
            }
            other => panic!("expected fallback restart, got {other:?}"),
        }
    }

    #[test]
    fn dedup_recording_enumerates_cas_commit_sites() {
        let sites = recorded(MatrixConfig {
            mechanism: STORAGE_TIER_MECH,
            backend: "dedup(local-disk)",
        });
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        assert!(
            names.iter().any(|n| n.contains("cas/commit")),
            "manifest-commit site must be recorded: {names:?}"
        );
        // Inner-backend store sites still show through the decorator.
        assert!(
            names.iter().any(|n| n.contains("storage/local-disk/store")),
            "{names:?}"
        );
    }

    #[test]
    fn dedup_torn_cas_commit_never_silently_corrupts() {
        // A torn manifest write must surface as typed detection or a
        // bit-exact restart from an older chain — never a Violation.
        let cfg = MatrixConfig {
            mechanism: STORAGE_TIER_MECH,
            backend: "dedup(local-disk)",
        };
        let sites = recorded(cfg);
        let commits: Vec<_> = sites
            .iter()
            .filter(|s| s.name.contains("cas/commit"))
            .collect();
        assert!(!commits.is_empty());
        let mut saw_restart = false;
        for site in commits {
            let torn = Fault::TornWrite {
                keep_bytes: (site.bytes / 2).max(1),
            };
            let out = armed_cell(cfg, &site.name, torn);
            match out {
                CellOutcome::Restarted { .. } => saw_restart = true,
                CellOutcome::Detected { .. } => {}
                other => panic!("{}: silent corruption path: {other:?}", site.name),
            }
        }
        assert!(
            saw_restart,
            "at least one torn commit must fall back to an older chain"
        );
    }

    #[test]
    fn striped_recording_enumerates_per_stripe_batch_sites() {
        let sites = recorded(MatrixConfig {
            mechanism: STORAGE_TIER_MECH,
            backend: "striped(2x3,2)",
        });
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        // Stores on the striped pool travel the framed batch path, so the
        // shard-commit tier's per-stripe admission sites are all recorded.
        assert!(
            names.iter().any(|n| n.starts_with("stripe") && n.contains("/batch")),
            "per-stripe batch-commit sites must be recorded: {names:?}"
        );
        // Batch sites carry the frame size so torn writes can split them.
        assert!(
            sites.iter().any(|s| s.name.contains("/batch") && s.bytes > 0),
            "batch sites must carry frame byte sizes"
        );
    }

    #[test]
    fn erasure_recording_enumerates_per_shard_batch_sites() {
        let sites = recorded(MatrixConfig {
            mechanism: STORAGE_TIER_MECH,
            backend: "rs(4,2)",
        });
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        // Stores on the coded store travel the framed shard batch path,
        // so every shard node's admission site is recorded — all k + m.
        for i in 0..6 {
            assert!(
                names.iter().any(|n| n.starts_with(&format!("ec/s{i}/batch"))),
                "shard {i} batch-commit site must be recorded: {names:?}"
            );
        }
        // Shard sites carry the frame size so torn writes can split them.
        assert!(
            sites.iter().any(|s| s.name.contains("/batch") && s.bytes > 0),
            "shard batch sites must carry frame byte sizes"
        );
    }

    #[test]
    fn lost_shard_mid_commit_still_restarts_by_reconstruction() {
        // Fail-stop one shard node during the second checkpoint's batch
        // commit: the write quorum (k + ceil(m/2) = 5 of 6) still holds,
        // and the restart must reconstruct bit-exact around the lost
        // shard — the cell the whole coding tier exists for.
        let cfg = MatrixConfig {
            mechanism: STORAGE_TIER_MECH,
            backend: "rs(4,2)",
        };
        let sites = recorded(cfg);
        let batch2 = sites
            .iter()
            .find(|s| s.name.starts_with("ec/s0/batch@2"))
            .expect("second-checkpoint shard batch site recorded");
        let out = armed_cell(cfg, &batch2.name, Fault::FailStop);
        assert!(
            matches!(out, CellOutcome::Restarted { .. }),
            "expected a reconstructing restart, got {out:?}"
        );
    }

    #[test]
    fn fail_stop_before_any_store_is_detected() {
        let cfg = MatrixConfig {
            mechanism: "syscall",
            backend: "local-disk",
        };
        let out = armed_cell(cfg, "mech/epckpt/capture@1", Fault::FailStop);
        assert!(
            matches!(out, CellOutcome::Detected { .. }),
            "no image was ever written, restart must be refused: {out:?}"
        );
    }
}
