//! `dedup-coscheduled`: guest pairs with identical seeds share one
//! kernel and one content-addressed store.
//!
//! Why: guest execution (`simos`) and chunking, digest and delta
//! (`ckpt-cas`) do most of the work; no quorum or coding code runs.
//! Every guest is checkpointed once per cycle (kernel-page incremental,
//! a full every `FULL_EVERY`), and every `RESTART_EVERY` cycles one
//! guest, round-robin, is restarted onto a fresh kernel and checked
//! bit-exact against its source.

use crate::common::{self, guest_state, mix, pick_distinct, Layer, Run};
use crate::trace::{self, StoreSpans, Tap, TimedStore};
use crate::{Settings, Workload};
use ckpt_cas::{CasStatsHandle, ChunkParams, DedupStore};
use ckpt_core::mechanism::syscall::{CkptSyscallModule, SyscallMechanism, SyscallVariant};
use ckpt_core::mechanism::{KernelCkptEngine, Mechanism};
use ckpt_core::{shared_storage, RestorePid, SharedStorage, TrackerKind};
use ckpt_par::Pool;
use ckpt_storage::LocalDisk;
use simos::apps::{AppParams, NativeKind};
use simos::cost::CostModel;
use simos::types::Pid;
use simos::Kernel;
use std::sync::{Arc, Mutex};

/// Guests on the kernel: `GUESTS / 2` pairs with identical seeds.
const GUESTS: usize = 4;
/// Checkpoints per full-checkpoint cycle of each guest. Fulls are 1/16
/// of the samples, so the 90th percentile lands in the slowest
/// incrementals, where the dedup store's per-chain cost growth shows.
const FULL_EVERY: u64 = 16;
/// Cycles between restarts.
const RESTART_EVERY: u64 = 2;
const JOB: &str = "dedup";

struct Size {
    mem_bytes: u64,
    interval_ns: u64,
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            mem_bytes: 256 * 1024,
            interval_ns: 2_000_000,
        }
    } else {
        Size {
            mem_bytes: 2 << 20,
            interval_ns: 400_000_000,
        }
    }
}

/// Pages between written words: every other page is dirtied each
/// interval. The dirty pages keep one layout from checkpoint to
/// checkpoint, so each delta drifts further from its base as the chain
/// grows; the clean half is what a guest shares with its twin.
const STRIDE: u64 = 2;

const OUTER: StoreSpans = StoreSpans {
    store: "cas.store",
    batch: "cas.store",
    load: "cas.load",
    other: "cas.other",
};
const INNER: StoreSpans = StoreSpans {
    store: "storage.store",
    batch: "storage.store",
    load: "storage.load",
    other: "storage.other",
};

pub struct Dedup {
    kernel: Kernel,
    pids: Vec<Pid>,
    mechs: Vec<SyscallMechanism>,
    cas: CasStatsHandle,
    /// Host ms of the incrementals at each position of the chain.
    by_position: Vec<Vec<f64>>,
    /// (image bytes, novel bytes shipped) of the full checkpoints of the
    /// second guest of each pair: what sharing with its twin saves.
    twin_fulls: (u64, u64),
    tap: Arc<Mutex<Tap>>,
    pool: Arc<Pool>,
    seed: u64,
    size: Size,
    covered: u64,
}

impl Dedup {
    pub fn new(s: &Settings) -> Self {
        let size = size(s.smoke);
        let disk = TimedStore::new(Arc::new(Mutex::new(LocalDisk::new(1 << 40))), INNER);
        let dedup = DedupStore::new(Box::new(disk))
            .with_params(ChunkParams::DEFAULT)
            .with_pool(s.pool.clone());
        let cas = dedup.stats_handle();
        let tap = Arc::new(Mutex::new(Tap::default()));
        let storage: SharedStorage = shared_storage(
            TimedStore::new(Arc::new(Mutex::new(dedup)), OUTER).with_tap(tap.clone()),
        );
        let mut kernel = Kernel::new(CostModel::circa_2005());
        let mut pids = Vec::new();
        let mut mechs = Vec::new();
        for g in 0..GUESTS {
            let params = AppParams {
                mem_bytes: size.mem_bytes,
                total_steps: u64::MAX,
                writes_per_step: 0,
                write_stride_pages: STRIDE,
                // Pairs (0,1), (2,3), ... share a seed.
                seed: mix(s.seed, (g / 2) as u64),
            };
            let pid = kernel
                .spawn_native(NativeKind::ReadMostly, params)
                .expect("spawn guest");
            let name = format!("epckpt{g}");
            let engine =
                KernelCkptEngine::builder(&name, JOB, storage.clone(), TrackerKind::KernelPage)
                    .full_every(FULL_EVERY)
                    .compress(false)
                    .encode_pool(s.pool.clone())
                    .build();
            kernel
                .register_module(Box::new(CkptSyscallModule::new(&name, engine)))
                .expect("register checkpoint module");
            let mut mech = SyscallMechanism::new(
                &name,
                SyscallVariant::ByPid,
                JOB,
                storage.clone(),
                TrackerKind::KernelPage,
            );
            mech.prepare(&mut kernel, pid).expect("prepare mechanism");
            pids.push(pid);
            mechs.push(mech);
        }
        Dedup {
            kernel,
            pids,
            mechs,
            cas,
            by_position: vec![Vec::new(); FULL_EVERY as usize],
            twin_fulls: (0, 0),
            tap,
            pool: s.pool.clone(),
            seed: s.seed,
            size,
            covered: 0,
        }
    }

    fn steps(&self) -> u64 {
        self.pids
            .iter()
            .filter_map(|&p| self.kernel.process(p))
            .map(|p| p.work_done)
            .sum()
    }

    fn mem_counters(&self) -> (u64, u64, u64) {
        let mut out = (0, 0, 0);
        for &pid in &self.pids {
            if let Some(p) = self.kernel.process(pid) {
                out.0 += p.mem.stats.tlb_hits;
                out.1 += p.mem.stats.tlb_misses;
                out.2 += p.mem.stats.write_faults_tracked;
            }
        }
        out
    }

    fn run_guests(&mut self, run: &mut Run) {
        let before = trace::enabled().then(|| self.mem_counters());
        let v0 = self.kernel.now();
        let steps0 = self.steps();
        let interval = self.size.interval_ns;
        let kernel = &mut self.kernel;
        let (res, ms) = trace::timed("simos.run_for", || kernel.run_for(interval));
        run.check(res.is_ok(), || format!("guest interval failed: {res:?}"));
        run.guest_host_s += ms / 1e3;
        run.guest_virtual_s += (self.kernel.now() - v0) as f64 / 1e9;
        *run.notes.entry("guest_steps").or_insert(0.0) += (self.steps() - steps0) as f64;
        if let Some((h0, m0, f0)) = before {
            let (h1, m1, f1) = self.mem_counters();
            run.sample("simos.run_ms", ms);
            run.sample(
                "simos.tlb_hit_ratio",
                (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)).max(1) as f64,
            );
            run.sample("simos.write_faults", (f1 - f0) as f64);
        }
    }

    fn checkpoint(&mut self, run: &mut Run, g: usize) {
        let pid = self.pids[g];
        let par0 = self.pool.stats();
        let cas_before = self.cas.snapshot();
        let cas0 = trace::count("cas.store");
        let (mech, kernel) = (&mut self.mechs[g], &mut self.kernel);
        self.tap.lock().expect("tap").stored.clear();
        let (res, ms) = trace::timed("core.checkpoint", || mech.checkpoint(kernel, pid));
        let o = match res {
            Ok(o) => o,
            Err(e) => return run.check(false, || format!("checkpoint of guest {g} failed: {e}")),
        };
        run.check(true, String::new);
        run.ckpt_ms.push(ms);
        self.by_position[((o.seq - 1) % FULL_EVERY) as usize].push(ms);
        let cas_after = self.cas.snapshot();
        if !o.incremental && g % 2 == 1 {
            self.twin_fulls.0 += cas_after.logical_bytes - cas_before.logical_bytes;
            self.twin_fulls.1 += cas_after.physical_bytes - cas_before.physical_bytes;
        }
        run.observed.extend([
            o.seq,
            o.incremental as u64,
            o.pages_saved,
            o.memory_bytes,
            o.logical_dirty_bytes,
            o.encoded_bytes,
            o.total_ns,
            o.storage_ns,
            cas_after.physical_bytes,
        ]);
        self.covered += self
            .kernel
            .process(pid)
            .map_or(0, |p| p.mem.resident_bytes());
        if !trace::enabled() {
            return;
        }
        let par = self.pool.stats().since(par0);
        let store_ms = trace::ms_since("cas.store", cas0);
        let stored = std::mem::take(&mut self.tap.lock().expect("tap").stored);
        let pool = self.pool.clone();
        let victims = pick_distinct(mix(self.seed, run.ckpt_ms.len() as u64), 3, 11);
        run.excluded(|run| {
            run.sample("par.tasks", par.tasks as f64);
            run.sample("par.steals", par.steals as f64);
            run.sample("par.merge_stalls", par.merge_stalls as f64);
            run.sample("core.pages_per_ckpt", o.pages_saved as f64);
            run.sample("storage.store_ms", store_ms);
            run.sample("cas.store_ms", store_ms);
            for (_, bytes) in &stored {
                if common::replay_image(run, bytes, &victims, &pool).is_some() {
                    *run.notes.entry("replay_images").or_insert(0.0) += 1.0;
                }
            }
            common::replay_other_layers(run, &stored, Layer::Dedup, &victims, &pool);
        });
    }

    fn restart(&mut self, run: &mut Run, g: usize) {
        let src = run.excluded(|_| guest_state(&self.kernel, self.pids[g]));
        let mut fresh = Kernel::new(CostModel::circa_2005());
        let loads0 = trace::count("cas.load");
        let mech = &mut self.mechs[g];
        self.tap.lock().expect("tap").loaded.clear();
        let (res, ms) = trace::timed("core.restart", || {
            mech.restart(&mut fresh, RestorePid::Fresh)
        });
        let o = match res {
            Ok(o) => o,
            Err(e) => return run.check(false, || format!("restart of guest {g} failed: {e}")),
        };
        run.restart_ms.push(ms);
        run.observed
            .extend([o.work_done, o.pages_restored, o.total_ns, o.images_loaded]);
        let pool = self.pool.clone();
        let tap = self.tap.clone();
        let interval = self.size.interval_ns;
        run.excluded(|run| {
            let got = guest_state(&fresh, o.pid);
            run.check(src.is_some() && got == src, || {
                format!("restart of guest {g} not bit-exact: {got:?} != {src:?}")
            });
            if !trace::enabled() {
                return;
            }
            let load_ms = trace::ms_since("cas.load", loads0);
            run.sample("storage.load_ms", load_ms);
            let mut loaded = std::mem::take(&mut tap.lock().expect("tap").loaded);
            loaded.reverse();
            common::chain_load_replay(run, &loaded);
            let segs: Vec<&[u8]> = loaded.iter().map(|(_, b)| b.as_slice()).collect();
            if let Some((mut k, pid)) = common::replay_chain(run, &segs) {
                common::replay_capture(run, &mut k, pid, true, interval, &pool);
            }
        });
    }
}

impl Workload for Dedup {
    const CKPT_SPAN: &'static str = "core.checkpoint";
    const RESTART_SPAN: &'static str = "core.restart";
    const IMAGES_PER_CKPT: f64 = 1.0;
    const INCREMENTAL: bool = true;
    const IMAGES_PER_RESTART: f64 = 1.0;

    fn epoch_cycles(&self) -> u64 {
        FULL_EVERY
    }

    fn cycle(&mut self, run: &mut Run, i: u64) {
        self.run_guests(run);
        for g in 0..GUESTS {
            self.checkpoint(run, g);
        }
        if (i + 1).is_multiple_of(RESTART_EVERY) {
            self.restart(run, ((i / RESTART_EVERY) % GUESTS as u64) as usize);
        }
    }

    fn committed(&self) -> (u64, u64) {
        (self.cas.snapshot().physical_bytes, self.covered)
    }

    fn finish(&mut self, run: &mut Run) {
        // Median host ms at each position of a guest's chain (0 is the
        // full): the dedup store's cost growth as deltas drift from their
        // base, until a delta too large to pay is stored raw as the next
        // base.
        run.profile = self.by_position.iter().map(|v| common::median(v)).collect();
        let s = self.cas.snapshot();
        let objects = (s.raw_objects + s.delta_objects).max(1);
        run.sample("cas.dedup_ratio", s.dedup_ratio());
        run.sample("cas.delta_frac", s.delta_objects as f64 / objects as f64);
        run.sample("cas.live_chunks", s.live_chunks as f64);
        run.notes.insert(
            "cross_guest_dedup_x",
            self.twin_fulls.0 as f64 / self.twin_fulls.1.max(1) as f64,
        );
        let replays = run.notes.get("replay_images").copied().unwrap_or(0.0);
        run.sample("trace.replay_images", replays);
    }
}
