//! `erasure-degraded`: one large high-entropy guest, full checkpoints
//! into RS(8,3) over 11 simulated shard nodes.
//!
//! Why: GF(256), the Reed-Solomon code and the replica-node frame
//! substrate do most of the work; guest execution does little (short
//! intervals). Restarts follow a healthy, degraded, degraded pattern; a
//! degraded restart fails m = 3 seed-chosen nodes, reads around them,
//! and repairs them afterwards, so writes run beside degraded reads and
//! an encode-side speed-up that slows decoding shows.

use crate::common::{self, guest_state, mix, pick_distinct, Layer, Run};
use crate::trace::{self, StoreSpans, Tap, TimedStore};
use crate::{Settings, Workload};
use ckpt_core::mechanism::syscall::{CkptSyscallModule, SyscallMechanism, SyscallVariant};
use ckpt_core::mechanism::{KernelCkptEngine, Mechanism};
use ckpt_core::{shared_storage, RestorePid, TrackerKind};
use ckpt_ec::ErasureStore;
use ckpt_par::Pool;
use ckpt_replica::ReplicaSet;
use simos::apps::{AppParams, NativeKind};
use simos::cost::CostModel;
use simos::types::Pid;
use simos::Kernel;
use std::sync::{Arc, Mutex};

const K: usize = 8;
const M: usize = 3;
/// Cycles between restarts.
const RESTART_EVERY: u64 = 2;
/// Restarts per epoch: one healthy, then two degraded.
const RESTART_PATTERN: u64 = 3;
const JOB: &str = "erasure";
const NAME: &str = "epckpt";

const SPANS: StoreSpans = StoreSpans {
    store: "ec.store",
    batch: "ec.store",
    load: "ec.load",
    other: "ec.other",
};

struct Size {
    mem_bytes: u64,
    interval_ns: u64,
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            mem_bytes: 256 * 1024,
            interval_ns: 1_000_000,
        }
    } else {
        Size {
            mem_bytes: 4 << 20,
            interval_ns: 1_000_000,
        }
    }
}

pub struct Erasure {
    kernel: Kernel,
    pid: Pid,
    mech: SyscallMechanism,
    store: Arc<Mutex<ErasureStore>>,
    set: Arc<ReplicaSet>,
    tap: Arc<Mutex<Tap>>,
    pool: Arc<Pool>,
    seed: u64,
    size: Size,
    covered: u64,
}

impl Erasure {
    pub fn new(s: &Settings) -> Self {
        let size = size(s.smoke);
        let ec = ErasureStore::fresh(K, M).with_pool(s.pool.clone());
        let set = ec.replica_set();
        let store = Arc::new(Mutex::new(ec));
        let tap = Arc::new(Mutex::new(Tap::default()));
        let storage = shared_storage(TimedStore::new(store.clone(), SPANS).with_tap(tap.clone()));
        let mut kernel = Kernel::new(CostModel::circa_2005());
        // ReadMostly fills its whole working set from the seed at spawn,
        // so every checkpoint carries high-entropy pages.
        let params = AppParams {
            mem_bytes: size.mem_bytes,
            total_steps: u64::MAX,
            writes_per_step: 16,
            write_stride_pages: 16,
            seed: mix(s.seed, 0),
        };
        let pid = kernel
            .spawn_native(NativeKind::ReadMostly, params)
            .expect("spawn guest");
        let engine = KernelCkptEngine::builder(NAME, JOB, storage.clone(), TrackerKind::FullOnly)
            .compress(false)
            .encode_pool(s.pool.clone())
            .build();
        kernel
            .register_module(Box::new(CkptSyscallModule::new(NAME, engine)))
            .expect("register checkpoint module");
        let mut mech = SyscallMechanism::new(
            NAME,
            SyscallVariant::ByPid,
            JOB,
            storage,
            TrackerKind::FullOnly,
        );
        mech.prepare(&mut kernel, pid).expect("prepare mechanism");
        Erasure {
            kernel,
            pid,
            mech,
            store,
            set,
            tap,
            pool: s.pool.clone(),
            seed: s.seed,
            size,
            covered: 0,
        }
    }

    fn stats(&self) -> ckpt_ec::EcStats {
        self.store.lock().expect("store").stats()
    }

    fn digests(&self) -> u64 {
        self.set.nodes().iter().map(|n| n.digests_computed()).sum()
    }

    /// The m nodes the `r`-th restart fails, from the workload seed.
    fn victims(&self, r: u64) -> Vec<usize> {
        pick_distinct(mix(self.seed, 1000 + r), M, K + M)
    }

    fn run_guest(&mut self, run: &mut Run) {
        let before =
            trace::enabled().then(|| self.kernel.process(self.pid).map(|p| p.mem.stats.clone()));
        let v0 = self.kernel.now();
        let steps0 = self.kernel.process(self.pid).map_or(0, |p| p.work_done);
        let interval = self.size.interval_ns;
        let kernel = &mut self.kernel;
        let (res, ms) = trace::timed("simos.run_for", || kernel.run_for(interval));
        run.check(res.is_ok(), || format!("guest interval failed: {res:?}"));
        run.guest_host_s += ms / 1e3;
        run.guest_virtual_s += (self.kernel.now() - v0) as f64 / 1e9;
        let steps1 = self.kernel.process(self.pid).map_or(0, |p| p.work_done);
        *run.notes.entry("guest_steps").or_insert(0.0) += (steps1 - steps0) as f64;
        if let Some(Some(m0)) = before {
            if let Some(p) = self.kernel.process(self.pid) {
                let m1 = &p.mem.stats;
                let (h, m) = (m1.tlb_hits - m0.tlb_hits, m1.tlb_misses - m0.tlb_misses);
                run.sample("simos.run_ms", ms);
                run.sample("simos.tlb_hit_ratio", h as f64 / (h + m).max(1) as f64);
                run.sample(
                    "simos.write_faults",
                    (m1.write_faults_tracked - m0.write_faults_tracked) as f64,
                );
            }
        }
    }

    fn checkpoint(&mut self, run: &mut Run) {
        let par0 = self.pool.stats();
        let ec0 = self.stats();
        let dig0 = self.digests();
        let ing0 = self.set.bytes_ingested();
        let stores0 = trace::count("ec.store");
        let (mech, kernel, pid) = (&mut self.mech, &mut self.kernel, self.pid);
        self.tap.lock().expect("tap").stored.clear();
        let (res, ms) = trace::timed("core.checkpoint", || mech.checkpoint(kernel, pid));
        let o = match res {
            Ok(o) => o,
            Err(e) => return run.check(false, || format!("checkpoint failed: {e}")),
        };
        run.check(true, String::new);
        run.ckpt_ms.push(ms);
        let ingested = self.set.bytes_ingested();
        run.observed.extend([
            o.seq,
            o.pages_saved,
            o.memory_bytes,
            o.encoded_bytes,
            o.total_ns,
            o.storage_ns,
            ingested,
        ]);
        self.covered += self
            .kernel
            .process(pid)
            .map_or(0, |p| p.mem.resident_bytes());
        if !trace::enabled() {
            return;
        }
        let par = self.pool.stats().since(par0);
        let ec = self.stats();
        let digests = self.digests() - dig0;
        let store_ms = trace::ms_since("ec.store", stores0);
        let stored = std::mem::take(&mut self.tap.lock().expect("tap").stored);
        let pool = self.pool.clone();
        let victims = self.victims(run.ckpt_ms.len() as u64);
        run.excluded(|run| {
            run.sample("par.tasks", par.tasks as f64);
            run.sample("par.steals", par.steals as f64);
            run.sample("par.merge_stalls", par.merge_stalls as f64);
            run.sample("core.pages_per_ckpt", o.pages_saved as f64);
            run.sample("storage.store_ms", store_ms);
            run.sample("ec.store_ms", store_ms);
            run.sample("replica.digests_computed", digests as f64);
            run.sample(
                "replica.bytes_ingested_per_byte",
                (ingested - ing0) as f64 / o.encoded_bytes.max(1) as f64,
            );
            run.sample("replica.retries", (ec.retries - ec0.retries) as f64);
            run.sample(
                "replica.ack_cycles",
                (ec.ack_cycles - ec0.ack_cycles) as f64,
            );
            for (_, bytes) in &stored {
                if common::replay_image(run, bytes, &victims, &pool).is_some() {
                    *run.notes.entry("replay_images").or_insert(0.0) += 1.0;
                }
            }
            common::replay_other_layers(run, &stored, Layer::Erasure, &victims, &pool);
        });
    }

    fn restart(&mut self, run: &mut Run, r: u64) {
        let degraded = !r.is_multiple_of(RESTART_PATTERN);
        let victims = if degraded {
            self.victims(r)
        } else {
            Vec::new()
        };
        let src = run.excluded(|_| guest_state(&self.kernel, self.pid));
        let ec0 = self.stats();
        let loads0 = trace::count("ec.load");
        for &v in &victims {
            self.set.node(v).fail();
        }
        let mut fresh = Kernel::new(CostModel::circa_2005());
        let mech = &mut self.mech;
        self.tap.lock().expect("tap").loaded.clear();
        let (res, ms) = trace::timed("core.restart", || {
            mech.restart(&mut fresh, RestorePid::Fresh)
        });
        for &v in &victims {
            self.set.node(v).repair();
        }
        let o = match res {
            Ok(o) => o,
            Err(e) => {
                return run.check(false, || {
                    format!("restart {r} (failed nodes {victims:?}) failed: {e}")
                })
            }
        };
        run.restart_ms.push(ms);
        let ec = self.stats();
        run.observed.extend([
            o.work_done,
            o.pages_restored,
            o.total_ns,
            ec.decodes,
            ec.repairs,
        ]);
        let tap = self.tap.clone();
        let pool = self.pool.clone();
        let interval = self.size.interval_ns;
        run.excluded(|run| {
            let got = guest_state(&fresh, o.pid);
            run.check(src.is_some() && got == src, || {
                format!("restart {r} (failed nodes {victims:?}) not bit-exact: {got:?} != {src:?}")
            });
            if !trace::enabled() {
                return;
            }
            let load_ms = trace::ms_since("ec.load", loads0);
            run.sample("storage.load_ms", load_ms);
            run.sample(
                if degraded {
                    "ec.load_degraded_ms"
                } else {
                    "ec.load_healthy_ms"
                },
                load_ms,
            );
            run.sample("ec.decodes", (ec.decodes - ec0.decodes) as f64);
            run.sample("ec.repairs", (ec.repairs - ec0.repairs) as f64);
            let mut loaded = std::mem::take(&mut tap.lock().expect("tap").loaded);
            loaded.reverse();
            common::chain_load_replay(run, &loaded);
            let segs: Vec<&[u8]> = loaded.iter().map(|(_, b)| b.as_slice()).collect();
            if let Some((mut k, pid)) = common::replay_chain(run, &segs) {
                common::replay_capture(run, &mut k, pid, false, interval, &pool);
            }
        });
    }
}

impl Workload for Erasure {
    const CKPT_SPAN: &'static str = "core.checkpoint";
    const RESTART_SPAN: &'static str = "core.restart";
    const IMAGES_PER_CKPT: f64 = 1.0;
    const INCREMENTAL: bool = false;
    const IMAGES_PER_RESTART: f64 = 1.0;

    fn epoch_cycles(&self) -> u64 {
        RESTART_EVERY * RESTART_PATTERN
    }

    fn cycle(&mut self, run: &mut Run, i: u64) {
        self.run_guest(run);
        self.checkpoint(run);
        if (i + 1).is_multiple_of(RESTART_EVERY) {
            self.restart(run, i / RESTART_EVERY);
        }
    }

    fn committed(&self) -> (u64, u64) {
        (self.set.bytes_ingested(), self.covered)
    }

    fn finish(&mut self, run: &mut Run) {
        let replays = run.notes.get("replay_images").copied().unwrap_or(0.0);
        run.sample("trace.replay_images", replays);
    }
}
