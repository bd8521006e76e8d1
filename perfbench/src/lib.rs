//! Host-time checkpoint/restart benchmark.
//!
//! One process drives the real checkpoint and restart paths of the
//! workspace crates on one of three seeded workloads and reports
//! end-to-end host-time metrics. A traced run (`trace = true`) first
//! repeats the untraced run for half the time, then runs again with
//! spans on, checks that tracing moved no virtual-time observable, and
//! splits the numbers across the crates.
//!
//! Workloads (see `BENCHMARK.json` for their traffic dimensions):
//! * [`dedup`]: co-scheduled identical guest pairs, kernel-page
//!   incremental checkpoints through `ckpt-cas` over a local disk.
//! * [`erasure`]: one large guest, full checkpoints into RS(8,3), healthy
//!   and degraded restarts.
//! * [`cluster`]: 16 ranks under a 4-shard coordinator over a striped
//!   replica pool.

pub mod cluster;
pub mod common;
pub mod dedup;
pub mod erasure;
pub mod trace;

use common::{median, quantile, Run};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["dedup-coscheduled", "erasure-degraded", "cluster-striped"];

/// End-to-end metrics (name, unit), reported by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ckpt_p50_ms", "ms"),
    ("ckpt_p90_ms", "ms"),
    ("restart_p50_ms", "ms"),
    ("ckpt_per_s", "1/s"),
    ("sim_vs_per_s", "vs/s"),
    ("commit_bytes_per_byte", "B/B"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by every traced run. A
/// storage layer a workload does not commit through is timed by
/// replaying the workload's committed objects through it; a count of a
/// layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("simos.run_ms", "ms"),
    ("simos.tlb_hit_ratio", "ratio"),
    ("simos.write_faults", "count"),
    ("core.collect_ms", "ms"),
    ("core.rearm_ms", "ms"),
    ("core.capture_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.pages_per_ckpt", "count"),
    ("image.encode_ms", "ms"),
    ("image.encode_mb_s", "MB/s"),
    ("image.decode_ms", "ms"),
    ("image.reconstruct_ms", "ms"),
    ("image.crc_mb_s", "MB/s"),
    ("image.bytes_per_page", "B/page"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("par.merge_stalls", "count"),
    ("storage.store_ms", "ms"),
    ("storage.load_ms", "ms"),
    ("storage.chain_load_ms", "ms"),
    ("cas.store_ms", "ms"),
    ("cas.split_digest_mb_s", "MB/s"),
    ("cas.dedup_ratio", "ratio"),
    ("cas.delta_frac", "ratio"),
    ("cas.live_chunks", "count"),
    ("ec.store_ms", "ms"),
    ("ec.encode_mb_s", "MB/s"),
    ("ec.load_healthy_ms", "ms"),
    ("ec.load_degraded_ms", "ms"),
    ("ec.reconstruct_mb_s", "MB/s"),
    ("ec.mul_acc_mb_s", "MB/s"),
    ("ec.decodes", "count"),
    ("ec.repairs", "count"),
    ("replica.store_batch_ms", "ms"),
    ("replica.digests_computed", "count"),
    ("replica.bytes_ingested_per_byte", "B/B"),
    ("replica.retries", "count"),
    ("replica.ack_cycles", "count"),
    ("cluster.ack_cycles", "count"),
    ("trace.overhead_ckpt_ms", "ms"),
    ("trace.overhead_restart_ms", "ms"),
    ("trace.ckpt_uncovered_ms", "ms"),
    ("trace.restart_uncovered_ms", "ms"),
    ("share.simos_pct", "%"),
    ("share.core_pct", "%"),
    ("share.storage_pct", "%"),
    ("share.cas_pct", "%"),
    ("share.ec_pct", "%"),
    ("share.replica_pct", "%"),
    ("share.cluster_pct", "%"),
    ("share.uncovered_pct", "%"),
    ("trace.ckpt_samples", "count"),
    ("trace.restart_samples", "count"),
    ("trace.replay_images", "count"),
    ("trace.observer_mismatches", "count"),
];

/// One workload instance, built by its set-up and driven cycle by cycle.
pub trait Workload {
    /// Span names of this workload's checkpoint and restart operations.
    const CKPT_SPAN: &'static str;
    const RESTART_SPAN: &'static str;
    /// Images committed per checkpoint operation, and chains restored
    /// per restart: the replays time one of each.
    const IMAGES_PER_CKPT: f64;
    const IMAGES_PER_RESTART: f64;
    /// Whether checkpoints collect and re-arm a page tracker.
    const INCREMENTAL: bool;
    /// Cycles after which the operation mix repeats.
    fn epoch_cycles(&self) -> u64;
    /// One cycle: guest execution, checkpoints, and scheduled restarts.
    fn cycle(&mut self, run: &mut Run, i: u64);
    /// (bytes accepted by stable storage, guest bytes checkpointed).
    fn committed(&self) -> (u64, u64);
    /// Traced runs: record end-of-run counters as layer samples.
    fn finish(&mut self, run: &mut Run);
}

/// How one invocation runs.
#[derive(Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub pool: Arc<ckpt_par::Pool>,
    /// Small guests and a fixed cycle count, for tests.
    pub smoke: bool,
}

impl Settings {
    /// Set-ups timed per run; the last one is measured.
    const SETUPS: usize = 15;
    /// Epochs over which `commit_bytes_per_byte` and `peak_rss_mb` are
    /// taken, so that they do not depend on how far a time-bounded run
    /// got.
    const RATIO_EPOCHS: u64 = 4;
    /// Checkpoint samples a run collects at least, so that ten lie
    /// beyond the 90th percentile.
    fn min_ckpts(&self) -> usize {
        if self.smoke {
            0
        } else {
            100
        }
    }
}

/// The result of one invocation.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts, host facts and workload notes, as one JSON object.
    pub detail: String,
    /// Virtual-time observables of the measured run(s), for tests.
    pub observed: Vec<Vec<u64>>,
}

/// Build `W` `setups` times (timing each), keep the last, and drive it.
fn measure<W: Workload>(
    build: &dyn Fn() -> W,
    s: &Settings,
    traced: bool,
    setups: usize,
) -> (Run, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..setups {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(build());
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    trace::set_enabled(traced);
    let mut run = Run::default();
    let ratio_at = Settings::RATIO_EPOCHS * w.epoch_cycles();
    let t0 = Instant::now();
    loop {
        let out_of_time = t0.elapsed().as_secs_f64() >= s.seconds;
        let enough = run.ckpt_ms.len() >= s.min_ckpts() && run.ratio.is_some();
        if (out_of_time && enough) || (s.smoke && run.cycles >= ratio_at) {
            break;
        }
        let i = run.cycles;
        w.cycle(&mut run, i);
        run.cycles += 1;
        if run.cycles == ratio_at {
            run.ratio = Some(w.committed());
            run.window_rss_mb = peak_rss_mb();
        }
    }
    run.measured_s = t0.elapsed().as_secs_f64() - run.excluded_s;
    w.finish(&mut run);
    if traced {
        let spans = trace::take();
        let by_crate = common::crate_self_s(&spans);
        for (metric, c) in SHARES {
            let s = by_crate.get(c).copied().unwrap_or(0.0);
            run.sample(metric, 100.0 * s / run.measured_s);
        }
        let covered: f64 = by_crate.values().sum();
        run.sample(
            "share.uncovered_pct",
            100.0 * (1.0 - covered / run.measured_s),
        );
        // The part of each operation no in-situ span covers, less the
        // replayed inner functions it contains.
        let op_self = |name| {
            median(
                &spans
                    .get(name)
                    .map(|s| {
                        s.self_ns
                            .iter()
                            .map(|&n| n as f64 / 1e6)
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default(),
            )
        };
        let layer =
            |run: &Run, n: &str| median(run.layers.get(n).map(Vec::as_slice).unwrap_or(&[]));
        let tracker: &[&str] = if W::INCREMENTAL {
            &["core.collect_ms", "core.rearm_ms"]
        } else {
            &[]
        };
        let ckpt_inner: f64 = ["image.encode_ms", "core.capture_ms"]
            .iter()
            .chain(tracker)
            .map(|n| layer(&run, n))
            .sum::<f64>()
            * W::IMAGES_PER_CKPT;
        let restart_inner: f64 = ["image.decode_ms", "image.reconstruct_ms", "core.restore_ms"]
            .iter()
            .map(|n| layer(&run, n))
            .sum::<f64>()
            * W::IMAGES_PER_RESTART;
        let ckpt_uncovered = op_self(W::CKPT_SPAN) - ckpt_inner;
        let restart_uncovered = op_self(W::RESTART_SPAN) - restart_inner;
        run.sample("trace.ckpt_uncovered_ms", ckpt_uncovered);
        run.sample("trace.restart_uncovered_ms", restart_uncovered);
    }
    trace::set_enabled(false);
    (run, setup_s)
}

/// Share metrics and the crate whose span self time each one sums.
const SHARES: [(&str, &str); 7] = [
    ("share.simos_pct", "simos"),
    ("share.core_pct", "core"),
    ("share.storage_pct", "storage"),
    ("share.cas_pct", "cas"),
    ("share.ec_pct", "ec"),
    ("share.replica_pct", "replica"),
    ("share.cluster_pct", "cluster"),
];

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn end_to_end(run: &Run, setup_s: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let (stored, covered) = run.ratio.unwrap_or((0, 1));
    let values = [
        median(&run.ckpt_ms),
        quantile(&run.ckpt_ms, 0.9),
        median(&run.restart_ms),
        run.ckpt_ms.len() as f64 / run.measured_s,
        run.guest_virtual_s / run.guest_host_s.max(1e-9),
        stored as f64 / covered.max(1) as f64,
        median(setup_s),
        run.window_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}

fn run_workload<W: Workload>(build: &dyn Fn() -> W, s: &Settings, traced: bool) -> Report {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut detail = vec![
        ("seed".to_string(), s.seed.to_string()),
        ("host_cores".to_string(), host_cores.to_string()),
        ("pool_width".to_string(), s.pool.workers().to_string()),
        ("traced".to_string(), traced.to_string()),
    ];
    let (run, metrics, observed, mismatches) = if !traced {
        let (run, setup_s) = measure(build, s, false, Settings::SETUPS);
        let metrics = end_to_end(&run, &setup_s);
        let observed = vec![run.observed.clone()];
        (run, metrics, observed, 0)
    } else {
        let half = Settings {
            seconds: s.seconds / 2.0,
            ..s.clone()
        };
        let (base, _) = measure(build, &half, false, 1);
        let (mut run, _) = measure(build, &half, true, 1);
        // Both halves' operations count: a failure untraced is a failure.
        run.attempted += base.attempted;
        run.failed += base.failed;
        run.errors.extend(base.errors.iter().cloned());
        let n = base.observed.len().min(run.observed.len());
        let mismatches = (0..n)
            .filter(|&i| base.observed[i] != run.observed[i])
            .count() as u64;
        if mismatches > 0 {
            run.fail(format!(
                "tracing moved {mismatches} virtual-time observables"
            ));
        }
        if base.ratio != run.ratio {
            run.fail("tracing moved the commit-byte count".into());
        }
        run.sample(
            "trace.overhead_ckpt_ms",
            median(&run.ckpt_ms) - median(&base.ckpt_ms),
        );
        run.sample(
            "trace.overhead_restart_ms",
            median(&run.restart_ms) - median(&base.restart_ms),
        );
        run.sample("trace.ckpt_samples", run.ckpt_ms.len() as f64);
        run.sample("trace.restart_samples", run.restart_ms.len() as f64);
        run.sample("trace.observer_mismatches", mismatches as f64);
        let metrics = PER_LAYER
            .iter()
            .map(|&(n, u)| {
                (
                    n,
                    median(run.layers.get(n).map(Vec::as_slice).unwrap_or(&[])),
                    u,
                )
            })
            .collect();
        let observed = vec![base.observed.clone(), run.observed.clone()];
        (run, metrics, observed, mismatches)
    };
    let tail = run.ckpt_ms.len() - (run.ckpt_ms.len() as f64 * 0.9).ceil() as usize;
    detail.extend([
        ("cycles".to_string(), run.cycles.to_string()),
        ("ckpt_samples".to_string(), run.ckpt_ms.len().to_string()),
        ("ckpt_p90_tail_samples".to_string(), tail.to_string()),
        (
            "restart_samples".to_string(),
            run.restart_ms.len().to_string(),
        ),
        ("measured_s".to_string(), format!("{:.3}", run.measured_s)),
        ("excluded_s".to_string(), format!("{:.3}", run.excluded_s)),
        (
            "end_of_run_peak_rss_mb".to_string(),
            format!("{:.3}", peak_rss_mb()),
        ),
        (
            "failed_frac".to_string(),
            format!("{}", run.failed as f64 / run.attempted.max(1) as f64),
        ),
        ("observer_mismatches".to_string(), mismatches.to_string()),
    ]);
    for (k, v) in &run.notes {
        detail.push((k.to_string(), format!("{v}")));
    }
    if !run.profile.is_empty() {
        let ms: Vec<String> = run.profile.iter().map(|v| format!("{v:.3}")).collect();
        detail.push((
            "ckpt_ms_by_chain_position".to_string(),
            format!("[{}]", ms.join(", ")),
        ));
    }
    let errors: Vec<String> = run.errors.iter().map(|e| json_str(e)).collect();
    let mut body: Vec<String> = detail
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), v))
        .collect();
    body.push(format!("\"errors\": [{}]", errors.join(", ")));
    Report {
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        detail: format!("{{{}}}", body.join(", ")),
        observed,
    }
}

/// Run one workload by name; `None` for an unknown name.
pub fn run(workload: &str, s: &Settings, traced: bool) -> Option<Report> {
    Some(match workload {
        "dedup-coscheduled" => run_workload(&|| dedup::Dedup::new(s), s, traced),
        "erasure-degraded" => run_workload(&|| erasure::Erasure::new(s), s, traced),
        "cluster-striped" => run_workload(&|| cluster::Striped::new(s), s, traced),
        _ => return None,
    })
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: correctness, operation counts, and metrics.
pub fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
