//! Pieces every workload shares: seeded input derivation, the guest
//! state fingerprint restarts are checked against, the per-run sample
//! record, and the replays the traced run times inner functions with.

use crate::trace;
use ckpt_cas::{split_and_digest, ChunkParams, DedupStore};
use ckpt_core::{capture_image, restore_image, CaptureOptions, RestoreOptions, RestorePid};
use ckpt_core::{Tracker, TrackerKind};
use ckpt_ec::{ErasureStore, RsCode};
use ckpt_image::CheckpointImage;
use ckpt_par::Pool;
use ckpt_replica::StripedStore;
use ckpt_storage::{load_latest_valid_chain, ImageKey, LocalDisk, StableStorage};
use simos::apps;
use simos::cost::CostModel;
use simos::types::Pid;
use simos::Kernel;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64 step: derives independent per-item values from one seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` distinct indices below `of`, chosen from `seed`.
pub fn pick_distinct(seed: u64, n: usize, of: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..of).collect();
    for i in 0..n {
        let j = i + (mix(seed, i as u64) % (of - i) as u64) as usize;
        all.swap(i, j);
    }
    let mut out = all[..n].to_vec();
    out.sort_unstable();
    out
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What a bit-exact restart must reproduce: the app header's step
/// counter and running checksum, progress, and a digest of every
/// non-zero resident page (page number and contents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestState {
    pub step: u64,
    pub sum: u64,
    pub work_done: u64,
    pub digest: u64,
}

pub fn guest_state(k: &Kernel, pid: Pid) -> Option<GuestState> {
    let p = k.process(pid)?;
    let word = |addr| {
        let mut b = [0u8; 8];
        p.mem.peek(addr, &mut b);
        u64::from_le_bytes(b)
    };
    let mut pages: Vec<u64> = p.mem.resident_pages().collect();
    pages.sort_unstable();
    let mut h = FNV_OFFSET;
    for pn in pages {
        let data = p.mem.page_data(pn)?;
        if data.iter().all(|&b| b == 0) {
            continue;
        }
        h = fnv(h, &pn.to_le_bytes());
        h = fnv(h, data);
    }
    Some(GuestState {
        step: word(apps::H_STEP),
        sum: word(apps::H_SUM),
        work_done: p.work_done,
        digest: h,
    })
}

/// Everything one measured run of a workload records.
#[derive(Debug, Default)]
pub struct Run {
    /// Host ms of each checkpoint operation.
    pub ckpt_ms: Vec<f64>,
    /// Host ms of each restart operation.
    pub restart_ms: Vec<f64>,
    /// Host seconds spent inside guest execution calls.
    pub guest_host_s: f64,
    /// Virtual seconds those calls simulated.
    pub guest_virtual_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Host seconds of verification and replay work inside the loop;
    /// subtracted from the measured wall time.
    pub excluded_s: f64,
    /// Host seconds of the measured loop, minus `excluded_s`.
    pub measured_s: f64,
    /// Virtual-time observables in operation order (outcome fields,
    /// encoded bytes, commit-byte counters): what tracing must not move.
    pub observed: Vec<u64>,
    /// (stored bytes, covered guest bytes) over the fixed ratio window.
    pub ratio: Option<(u64, u64)>,
    /// Peak resident MB when the ratio window closed.
    pub window_rss_mb: f64,
    /// Per-layer samples (traced runs only), by metric name.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Workload facts for the detail line.
    pub notes: BTreeMap<&'static str, f64>,
    /// Median checkpoint ms by chain position, where a workload has one.
    pub profile: Vec<f64>,
    pub cycles: u64,
}

impl Run {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Count one attempted operation; a failed check counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.layers.entry(name).or_default().push(v);
    }

    /// Run `f` outside the measured time (verification, replays).
    pub fn excluded<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self);
        self.excluded_s += t0.elapsed().as_secs_f64();
        r
    }
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Megabytes per second for `bytes` processed in `ms`.
pub fn mb_s(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / 1e6 / (ms / 1e3).max(1e-9)
}

/// Replay the codecs on one committed image: re-encode the decoded image
/// and require the exact committed bytes back, then time CRC-32, content
/// chunking and digests, RS(8,3) encode, reconstruction with the
/// `victims` shards lost (checked against the encoded shards) and the
/// GF(256) multiply-accumulate. Returns the decoded image.
pub fn replay_image(
    run: &mut Run,
    bytes: &[u8],
    victims: &[usize],
    pool: &Arc<Pool>,
) -> Option<CheckpointImage> {
    let img = match ckpt_image::decode(bytes) {
        Ok(i) => i,
        Err(e) => {
            run.fail(format!("committed image does not decode: {e}"));
            return None;
        }
    };
    let t0 = Instant::now();
    let again = std::hint::black_box(ckpt_image::encode_with_pool(&img, pool));
    let enc_ms = ms_since(t0);
    run.sample("image.encode_ms", enc_ms);
    run.sample("image.encode_mb_s", mb_s(bytes.len(), enc_ms));
    if again != bytes {
        run.fail("re-encoding a committed image changed its bytes".into());
    }
    let t0 = Instant::now();
    std::hint::black_box(ckpt_image::crc32(bytes));
    run.sample("image.crc_mb_s", mb_s(bytes.len(), ms_since(t0)));
    if img.page_count() > 0 {
        run.sample(
            "image.bytes_per_page",
            bytes.len() as f64 / img.page_count() as f64,
        );
    }
    let t0 = Instant::now();
    std::hint::black_box(split_and_digest(bytes, &ChunkParams::DEFAULT, pool));
    run.sample("cas.split_digest_mb_s", mb_s(bytes.len(), ms_since(t0)));
    replay_rs(run, bytes, victims, pool);
    Some(img)
}

/// RS(8,3) encode, reconstruct and GF(256) multiply-accumulate replays.
fn replay_rs(run: &mut Run, bytes: &[u8], victims: &[usize], pool: &Arc<Pool>) {
    let code = RsCode::new(8, 3);
    let data = code.split(bytes);
    let t0 = Instant::now();
    let parity = std::hint::black_box(code.encode(&data, pool));
    run.sample("ec.encode_mb_s", mb_s(bytes.len(), ms_since(t0)));
    let all: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
    let damaged: Vec<Option<Vec<u8>>> = all
        .iter()
        .enumerate()
        .map(|(i, s)| (!victims.contains(&i)).then(|| s.clone()))
        .collect();
    let t0 = Instant::now();
    let rebuilt = code.reconstruct(&damaged);
    run.sample("ec.reconstruct_mb_s", mb_s(bytes.len(), ms_since(t0)));
    if rebuilt.as_ref().ok() != Some(&all) {
        run.fail(format!(
            "RS reconstruction with shards {victims:?} lost differs"
        ));
    }
    let mut dst = vec![0u8; bytes.len()];
    let t0 = Instant::now();
    ckpt_ec::gf::mul_acc_slice(0x8e, bytes, &mut dst);
    std::hint::black_box(&dst);
    run.sample("ec.mul_acc_mb_s", mb_s(bytes.len(), ms_since(t0)));
}

/// Replay the restart-side functions on a chain the restart loaded
/// (oldest segment first): decode each segment, reconstruct, restore
/// onto a scratch kernel. Returns the scratch kernel and restored pid.
pub fn replay_chain(run: &mut Run, segments: &[&[u8]]) -> Option<(Kernel, Pid)> {
    let t0 = Instant::now();
    let chain: Result<Vec<CheckpointImage>, _> =
        segments.iter().map(|b| ckpt_image::decode(b)).collect();
    run.sample("image.decode_ms", ms_since(t0));
    let Ok(chain) = chain else {
        run.fail("a loaded chain segment does not decode".into());
        return None;
    };
    let t0 = Instant::now();
    let full = ckpt_image::reconstruct(&chain);
    run.sample("image.reconstruct_ms", ms_since(t0));
    let Ok(full) = full else {
        run.fail("a loaded chain does not reconstruct".into());
        return None;
    };
    let mut k = Kernel::new(CostModel::circa_2005());
    let t0 = Instant::now();
    let pid = restore_image(
        &mut k,
        &full,
        &RestoreOptions::fresh_running(RestorePid::Fresh),
    );
    run.sample("core.restore_ms", ms_since(t0));
    match pid {
        Ok(pid) => Some((k, pid)),
        Err(e) => {
            run.fail(format!("replayed restore failed: {e}"));
            None
        }
    }
}

/// Replay one checkpoint interval's tracker and capture work on a
/// scratch kernel holding a restored guest: arm a kernel-page tracker,
/// run `interval_ns`, collect, and capture the collected pages (or, for
/// a workload that takes only full checkpoints, the whole guest).
pub fn replay_capture(
    run: &mut Run,
    k: &mut Kernel,
    pid: Pid,
    incremental: bool,
    interval_ns: u64,
    pool: &Arc<Pool>,
) {
    let mut tracker = Tracker::new(TrackerKind::KernelPage);
    let t0 = Instant::now();
    let armed = tracker.arm(k, pid);
    run.sample("core.rearm_ms", ms_since(t0));
    if armed.is_err() || k.run_for(interval_ns).is_err() {
        run.fail("replayed tracker arm or guest interval failed".into());
        return;
    }
    let t0 = Instant::now();
    let collected = tracker.collect(k, pid);
    run.sample("core.collect_ms", ms_since(t0));
    let Ok(collected) = collected else {
        run.fail("replayed tracker collect failed".into());
        return;
    };
    let mut opts = if incremental {
        CaptureOptions::incremental("replay", 2, 1, collected.pages)
    } else {
        CaptureOptions::full("replay", 1)
    };
    opts.compress = false;
    opts.encode_pool = Some(pool.clone());
    let t0 = Instant::now();
    let img = capture_image(k, pid, &opts);
    run.sample("core.capture_ms", ms_since(t0));
    if img.is_err() {
        run.fail("replayed capture failed".into());
    }
}

/// A storage layer some workload commits through.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Dedup,
    Erasure,
    Striped,
}

/// Replay one operation's committed objects through scratch instances
/// of the storage layers the workload does not use, so that every
/// layer's store and load time is measured on every workload's bytes:
/// `DedupStore` over a local disk, RS(8,3) `ErasureStore` (loaded back
/// healthy and with the `victims` nodes down) and a 4 x 3 striped
/// replica pool committing the objects as one batch. Every load must
/// return the stored bytes.
pub fn replay_other_layers(
    run: &mut Run,
    objects: &[(String, Vec<u8>)],
    own: Layer,
    victims: &[usize],
    pool: &Arc<Pool>,
) {
    let cost = CostModel::circa_2005();
    let mut bad = false;
    if own != Layer::Dedup {
        let mut cas = DedupStore::new(Box::new(LocalDisk::new(1 << 40))).with_pool(pool.clone());
        let t0 = Instant::now();
        for (k, b) in objects {
            bad |= cas.store(k, b, &cost).is_err();
        }
        run.sample("cas.store_ms", ms_since(t0));
    }
    if own != Layer::Erasure {
        let mut ec = ErasureStore::fresh(8, 3).with_pool(pool.clone());
        let t0 = Instant::now();
        for (k, b) in objects {
            bad |= ec.store(k, b, &cost).is_err();
        }
        run.sample("ec.store_ms", ms_since(t0));
        let mut load = |name| {
            let t0 = Instant::now();
            for (k, b) in objects {
                bad |= ec.load(k, &cost).map_or(true, |(got, _)| got != *b);
            }
            run.sample(name, ms_since(t0));
        };
        load("ec.load_healthy_ms");
        let set = ec.replica_set();
        victims.iter().for_each(|&v| set.node(v).fail());
        load("ec.load_degraded_ms");
        victims.iter().for_each(|&v| set.node(v).repair());
    }
    if own != Layer::Striped {
        let mut striped = StripedStore::fresh(4, 3, 2).with_pool(pool.clone());
        let batch: Vec<(&str, &[u8])> = objects
            .iter()
            .map(|(k, b)| (k.as_str(), b.as_slice()))
            .collect();
        let t0 = Instant::now();
        bad |= striped.store_batch(&batch, &cost).is_err();
        run.sample("replica.store_batch_ms", ms_since(t0));
    }
    if bad {
        run.fail("a replayed store or load through another layer failed".into());
    }
}

/// Time `load_latest_valid_chain` over a scratch disk holding exactly
/// the objects the restart loaded (oldest first).
pub fn chain_load_replay(run: &mut Run, loaded: &[(String, Vec<u8>)]) {
    let cost = CostModel::circa_2005();
    let mut disk = LocalDisk::new(1 << 40);
    for (k, b) in loaded {
        let _ = disk.store(k, b, &cost);
    }
    let Some(key) = loaded.first().and_then(|(k, _)| k.parse::<ImageKey>().ok()) else {
        return;
    };
    let t0 = Instant::now();
    let r = load_latest_valid_chain(&disk, &key.job, key.pid, &cost, |_| Ok(()));
    run.sample("storage.chain_load_ms", ms_since(t0));
    if r.is_err() {
        run.fail("replayed chain load failed".into());
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The crate a span's self time is charged to, by span name.
pub fn crate_of(span: &str) -> &'static str {
    match span.split('.').next().unwrap_or("") {
        "simos" => "simos",
        "core" => "core",
        "cas" => "cas",
        "storage" => "storage",
        "ec" => "ec",
        "replica" => "replica",
        // A superstep is guest execution driven through the job layer.
        "cluster" if span == "cluster.superstep" => "simos",
        "cluster" => "cluster",
        _ => "other",
    }
}

/// Self time per crate, in seconds, from everything traced so far.
pub fn crate_self_s(
    spans: &BTreeMap<&'static str, trace::SpanStats>,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (name, s) in spans {
        *out.entry(crate_of(name)).or_insert(0.0) += s.self_total_ms() / 1e3;
    }
    out
}
