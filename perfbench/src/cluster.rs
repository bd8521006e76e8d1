//! `cluster-striped`: 16 ranks on 4 nodes under a 4-shard coordinator,
//! committing to a striped replica pool of 4 stripes x 3 replicas, w = 2.
//!
//! Why: the sharded control plane and batched quorum commits of many
//! small objects do most of the work; no chunking or coding runs. Each
//! cycle is one superstep and one coordinated round (incremental after
//! an epoch's first); every `RESTART_EVERY` cycles the whole job is
//! restarted from the committed cut and every rank is checked against
//! the state it had at that cut. Each epoch starts a fresh coordinator
//! lineage (a full round) and deletes the previous one, so restart
//! chains stay `EPOCH` rounds long however fast the program runs.

use crate::common::{self, mix, pick_distinct, Layer, Run};
use crate::trace::{self, StoreSpans, Tap, TimedStore};
use crate::{Settings, Workload};
use ckpt_cluster::{Cluster, FailureConfig, MpiJob, NodeId, ShardedCoordinator};
use ckpt_core::TrackerKind;
use ckpt_par::Pool;
use ckpt_replica::{ReplStats, ReplicaConfig, StripedReplicaSet, StripedStore};
use ckpt_storage::ImageKey;
use simos::apps::{self, AppParams, GuestMemIo, NativeKind, VecMem};
use simos::cost::CostModel;
use std::sync::{Arc, Mutex};

const NODES: usize = 4;
const RANKS: u32 = 16;
const SHARDS: usize = 4;
const STRIPES: usize = 4;
const REPLICAS: usize = 3;
const W: usize = 2;
/// Rounds per coordinator lineage.
const EPOCH: u64 = 8;
/// Cycles between whole-job restarts.
const RESTART_EVERY: u64 = 4;
/// Guest time one rank runs between the replayed arm and collect.
const REPLAY_INTERVAL_NS: u64 = 20_000_000;

const SPANS: StoreSpans = StoreSpans {
    store: "replica.store",
    batch: "replica.batch",
    load: "replica.load",
    other: "replica.other",
};

struct Size {
    mem_bytes: u64,
    steps_per_superstep: u64,
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            mem_bytes: 64 * 1024,
            steps_per_superstep: 2,
        }
    } else {
        Size {
            mem_bytes: 1 << 20,
            steps_per_superstep: 4,
        }
    }
}

/// Pages between written words: a round commits 1 / STRIDE of each
/// rank's working set.
const STRIDE: u64 = 16;

/// A failure-free execution of one rank's app on plain memory, advanced
/// to whatever step a restarted rank reports.
struct Reference {
    params: AppParams,
    mem: VecMem,
}

impl Reference {
    fn new(params: AppParams) -> Self {
        let mut mem = VecMem::new(&params);
        apps::init(NativeKind::ReadMostly, &params, &mut mem);
        Reference { params, mem }
    }

    /// Whether the rank's app header and working array equal this
    /// reference's after the same number of steps.
    fn matches(&mut self, k: &simos::Kernel, pid: simos::types::Pid) -> bool {
        let Some(p) = k.process(pid) else {
            return false;
        };
        let mut word = [0u8; 8];
        p.mem.peek(apps::H_STEP, &mut word);
        let step = u64::from_le_bytes(word);
        if step < self.mem.r64(apps::H_STEP) {
            return false;
        }
        while self.mem.r64(apps::H_STEP) < step {
            apps::step(NativeKind::ReadMostly, &self.params, &mut self.mem);
        }
        let off = (apps::ARRAY_BASE - apps::HEADER_BASE) as usize;
        let mut array = vec![0u8; self.params.mem_bytes as usize];
        p.mem.peek(apps::ARRAY_BASE, &mut array);
        p.mem.peek(apps::H_SUM, &mut word);
        u64::from_le_bytes(word) == self.mem.r64(apps::H_SUM)
            && array[..] == self.mem.bytes[off..off + array.len()]
    }
}

pub struct Striped {
    cluster: Cluster,
    job: MpiJob,
    coord: ShardedCoordinator,
    epoch: u64,
    clients: Vec<Arc<Mutex<StripedStore>>>,
    set: Arc<StripedReplicaSet>,
    tap: Arc<Mutex<Tap>>,
    pool: Arc<Pool>,
    /// One per rank, built at the first restart check (verification
    /// state is not part of set-up).
    references: Vec<Reference>,
    seed: u64,
    covered: u64,
}

fn coordinator(epoch: u64, pool: &Arc<Pool>) -> ShardedCoordinator {
    ShardedCoordinator::new(&format!("cs{epoch}"), TrackerKind::KernelPage, SHARDS)
        .with_pool(pool.clone())
}

impl Striped {
    pub fn new(s: &Settings) -> Self {
        let size = size(s.smoke);
        let mut cluster = Cluster::new_striped(
            NODES,
            CostModel::circa_2005(),
            FailureConfig::none(),
            STRIPES,
            REPLICAS,
            W,
        );
        let set = cluster.striped_set().expect("striped cluster").clone();
        let tap = Arc::new(Mutex::new(Tap::default()));
        // Each node gets a timed client onto the same replica pool, built exactly
        // as the cluster builds its own but on the benchmark's worker pool.
        let mut clients = Vec::new();
        for node in &cluster.nodes {
            let client = Arc::new(Mutex::new(
                StripedStore::new(set.clone(), ReplicaConfig::new(REPLICAS, W))
                    .with_pool(s.pool.clone()),
            ));
            *node.remote.lock() =
                Box::new(TimedStore::new(client.clone(), SPANS).with_tap(tap.clone()));
            clients.push(client);
        }
        let params = AppParams {
            mem_bytes: size.mem_bytes,
            total_steps: u64::MAX,
            writes_per_step: 0,
            write_stride_pages: STRIDE,
            seed: mix(s.seed, 0),
        };
        let job = MpiJob::launch(
            &mut cluster,
            "stencil",
            RANKS,
            NativeKind::ReadMostly,
            params,
            size.steps_per_superstep,
            32 * 1024,
        )
        .expect("launch job");
        Striped {
            cluster,
            job,
            coord: coordinator(0, &s.pool),
            epoch: 0,
            clients,
            set,
            tap,
            pool: s.pool.clone(),
            references: Vec::new(),
            seed: s.seed,
            covered: 0,
        }
    }

    fn repl_stats(&self) -> ReplStats {
        self.clients.iter().fold(ReplStats::default(), |a, c| {
            let b = c.lock().expect("client").stats();
            ReplStats {
                commits: a.commits + b.commits,
                retries: a.retries + b.retries,
                repairs: a.repairs + b.repairs,
                quorum_losses: a.quorum_losses + b.quorum_losses,
                ack_cycles: a.ack_cycles + b.ack_cycles,
            }
        })
    }

    fn ingested(&self) -> u64 {
        self.set.stripes().iter().map(|s| s.bytes_ingested()).sum()
    }

    fn digests(&self) -> u64 {
        self.set
            .stripes()
            .iter()
            .flat_map(|s| s.nodes().iter().map(|n| n.digests_computed()))
            .sum()
    }

    fn mem_counters(&mut self) -> (u64, u64, u64) {
        let ranks = self.job.ranks.clone();
        let mut out = (0, 0, 0);
        for r in ranks {
            if let Some(p) = self
                .cluster
                .node(r.node)
                .kernel()
                .and_then(|k| k.process(r.pid))
            {
                out.0 += p.mem.stats.tlb_hits;
                out.1 += p.mem.stats.tlb_misses;
                out.2 += p.mem.stats.write_faults_tracked;
            }
        }
        out
    }

    fn superstep(&mut self, run: &mut Run) {
        let before = trace::enabled().then(|| self.mem_counters());
        let v0 = self.cluster.now();
        let (job, cluster) = (&mut self.job, &mut self.cluster);
        let (res, ms) = trace::timed("cluster.superstep", || job.superstep(cluster));
        run.check(res.is_ok(), || format!("superstep failed: {res:?}"));
        run.guest_host_s += ms / 1e3;
        run.guest_virtual_s += (self.cluster.now() - v0) as f64 / 1e9;
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

    fn round(&mut self, run: &mut Run) {
        let par0 = self.pool.stats();
        let st0 = self.repl_stats();
        let dig0 = self.digests();
        let ing0 = self.ingested();
        let batches0 = trace::count("replica.batch");
        let (coord, cluster, job) = (&mut self.coord, &mut self.cluster, &self.job);
        self.tap.lock().expect("tap").stored.clear();
        let (res, ms) = trace::timed("cluster.round", || coord.checkpoint(cluster, job));
        let o = match res {
            Ok(o) => o,
            Err(e) => return run.check(false, || format!("coordinated round failed: {e}")),
        };
        run.check(true, String::new);
        run.ckpt_ms.push(ms);
        let ingested = self.ingested();
        run.observed.extend([
            o.seq,
            o.incremental as u64,
            o.total_bytes,
            o.round_ns,
            o.ack_cycles,
            ingested,
        ]);
        let ranks = self.job.ranks.clone();
        for r in ranks {
            if let Some(p) = self
                .cluster
                .node(r.node)
                .kernel()
                .and_then(|k| k.process(r.pid))
            {
                self.covered += p.mem.resident_bytes();
            }
        }
        if !trace::enabled() {
            return;
        }
        let par = self.pool.stats().since(par0);
        let st = self.repl_stats();
        let digests = self.digests() - dig0;
        let batch_ms = trace::ms_since("replica.batch", batches0);
        let stored = std::mem::take(&mut self.tap.lock().expect("tap").stored);
        let pool = self.pool.clone();
        let victims = pick_distinct(mix(self.seed, run.ckpt_ms.len() as u64), 3, 11);
        run.excluded(|run| {
            run.sample("par.tasks", par.tasks as f64);
            run.sample("par.steals", par.steals as f64);
            run.sample("par.merge_stalls", par.merge_stalls as f64);
            run.sample("cluster.ack_cycles", o.ack_cycles as f64);
            run.sample("storage.store_ms", batch_ms);
            run.sample("replica.store_batch_ms", batch_ms);
            run.sample("replica.digests_computed", digests as f64);
            run.sample(
                "replica.bytes_ingested_per_byte",
                (ingested - ing0) as f64 / o.total_bytes.max(1) as f64,
            );
            run.sample("replica.retries", (st.retries - st0.retries) as f64);
            run.sample(
                "replica.ack_cycles",
                (st.ack_cycles - st0.ack_cycles) as f64,
            );
            let mut pages = 0;
            for (_, bytes) in &stored {
                if let Some(img) = common::replay_image(run, bytes, &victims, &pool) {
                    pages += img.page_count();
                    *run.notes.entry("replay_images").or_insert(0.0) += 1.0;
                }
            }
            run.sample("core.pages_per_ckpt", pages as f64);
            common::replay_other_layers(run, &stored, Layer::Striped, &victims, &pool);
        });
    }

    fn restart(&mut self, run: &mut Run) {
        let cut = run.excluded(|_| self.job.rank_states(&mut self.cluster).ok());
        let loads0 = trace::count("replica.load");
        let (coord, cluster, job) = (&mut self.coord, &mut self.cluster, &mut self.job);
        self.tap.lock().expect("tap").loaded.clear();
        let (res, ms) = trace::timed("cluster.restart", || coord.restart(cluster, job));
        if let Err(e) = res {
            return run.check(false, || format!("job restart failed: {e}"));
        }
        run.restart_ms.push(ms);
        let states = self.job.rank_states(&mut self.cluster).ok();
        run.observed
            .extend(states.iter().flatten().flat_map(|&(a, b)| [a, b]));
        run.excluded(|run| {
            run.check(cut.is_some() && states == cut, || {
                format!("restarted rank states {states:?} differ from the cut {cut:?}")
            });
            if self.references.is_empty() {
                // Rank r runs with seed + r, as `MpiJob::launch` assigns.
                let base = &self.job.params;
                self.references = (0..RANKS as u64)
                    .map(|r| {
                        Reference::new(AppParams {
                            seed: base.seed.wrapping_add(r),
                            ..base.clone()
                        })
                    })
                    .collect();
            }
            let ranks = self.job.ranks.clone();
            for r in ranks {
                let k = self.cluster.node(r.node).kernel().expect("alive node");
                let ok = self.references[r.rank as usize].matches(k, r.pid);
                run.check(ok, || {
                    format!(
                        "restarted rank {} differs from its failure-free reference",
                        r.rank
                    )
                });
            }
        });
        if !trace::enabled() {
            return;
        }
        let load_ms = trace::ms_since("replica.load", loads0);
        let loaded = std::mem::take(&mut self.tap.lock().expect("tap").loaded);
        let pool = self.pool.clone();
        run.excluded(|run| {
            run.sample("storage.load_ms", load_ms);
            // One rank's chain: replay the restart-side functions on the
            // objects that rank's restore loaded.
            let rank0: Vec<(String, Vec<u8>)> = loaded
                .into_iter()
                .filter(|(k, _)| k.parse::<ImageKey>().is_ok_and(|ik| ik.pid == 0))
                .rev()
                .collect();
            common::chain_load_replay(run, &rank0);
            let segs: Vec<&[u8]> = rank0.iter().map(|(_, b)| b.as_slice()).collect();
            if let Some((mut k, pid)) = common::replay_chain(run, &segs) {
                common::replay_capture(run, &mut k, pid, true, REPLAY_INTERVAL_NS, &pool);
            }
        });
    }

    /// Start the next lineage and delete the previous one.
    fn next_epoch(&mut self) {
        let old = format!("cs{}/", self.epoch);
        self.epoch += 1;
        self.coord = coordinator(self.epoch, &self.pool);
        let remote = self.cluster.nodes[0].remote.clone();
        trace::span("cluster.gc", || {
            let mut st = remote.lock();
            for key in st.list().into_iter().filter(|k| k.starts_with(&old)) {
                let _ = st.delete(&key);
            }
        });
    }
}

impl Workload for Striped {
    const CKPT_SPAN: &'static str = "cluster.round";
    const RESTART_SPAN: &'static str = "cluster.restart";
    const IMAGES_PER_CKPT: f64 = RANKS as f64;
    const INCREMENTAL: bool = true;
    const IMAGES_PER_RESTART: f64 = RANKS as f64;

    fn epoch_cycles(&self) -> u64 {
        EPOCH
    }

    fn cycle(&mut self, run: &mut Run, i: u64) {
        self.superstep(run);
        self.round(run);
        if (i + 1).is_multiple_of(RESTART_EVERY) {
            self.restart(run);
        }
        if (i + 1).is_multiple_of(EPOCH) {
            self.next_epoch();
        }
    }

    fn committed(&self) -> (u64, u64) {
        (self.ingested(), self.covered)
    }

    fn finish(&mut self, run: &mut Run) {
        // Processes left on the node kernels beyond the live ranks: the
        // killed ranks of earlier restarts that were never reaped.
        let live = self.job.ranks.len();
        let mut procs = 0;
        for n in 0..NODES {
            if let Some(k) = self.cluster.node(NodeId(n as u32)).kernel() {
                procs += k.pids().len();
            }
        }
        run.notes
            .insert("unreaped_processes", procs.saturating_sub(live) as f64);
        let replays = run.notes.get("replay_images").copied().unwrap_or(0.0);
        run.sample("trace.replay_images", replays);
    }
}
