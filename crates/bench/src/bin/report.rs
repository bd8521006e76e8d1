//! The experiment reporter: regenerates every table and figure of the
//! reproduction on the deterministic simulator.
//!
//! ```text
//! cargo run --release --bin report -- all            # everything
//! cargo run --release --bin report -- table1         # one experiment
//! cargo run --release --bin report -- timings        # wall-clock only
//! cargo run --release --bin report -- list           # what exists
//! ```

use ckpt_bench as bench;

/// `report sweep [--out DIR]`: run every swept experiment, write the
/// canonical `SWEEP_cXX.json` artifacts plus the `RUNBOOK.json`
/// manifest, and print the per-cell wall-clock so CI can attribute a
/// perf regression to the specific sweep cell that moved.
fn run_sweep_cmd(out_dir: &std::path::Path) -> std::io::Result<String> {
    use bench::artifact::canonical_document;
    use bench::runbook::{build_runbook, ArtifactEntry};
    use bench::sweep::sweep_artifact;

    std::fs::create_dir_all(out_dir)?;
    let batch = bench::swept::sweep_batch();
    let mut out = String::new();
    for (exp, file, runs) in &batch {
        let doc = canonical_document(&sweep_artifact(runs));
        std::fs::write(out_dir.join(file), &doc)?;
        out.push_str(&format!("{exp} -> {file} ({} bytes)\n", doc.len()));
        for run in runs {
            let wall: f64 = run.cell_walls.iter().map(|(_, w)| w).sum();
            out.push_str(&format!(
                "  plan {} ({} jobs, plan_hash {}, wall_s={wall:.3})\n",
                run.plan_name,
                run.jobs.len(),
                run.plan_hash,
            ));
            for (label, w) in &run.cell_walls {
                out.push_str(&format!("    cell {} {label} wall_s={w:.3}\n", run.plan_name));
            }
        }
    }
    let entries: Vec<ArtifactEntry<'_>> = batch
        .iter()
        .map(|(exp, file, runs)| ArtifactEntry {
            experiment: exp,
            file: file.clone(),
            runs,
        })
        .collect();
    let rb = build_runbook(&entries);
    let rb_doc = canonical_document(&rb);
    std::fs::write(out_dir.join("RUNBOOK.json"), &rb_doc)?;
    let total = rb.get("total_jobs").and_then(|j| j.as_u64()).unwrap_or(0);
    out.push_str(&format!("RUNBOOK.json ({total} jobs total)"));
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(|s| s.as_str()).unwrap_or("all");
    let out = match which {
        "list" => {
            println!("experiments: table1 figure1 c1 c2 c3 c3b c4 c5 c6 c7a c7b c8 c9 c10 c11 c12 c13 c14 c15 c16 trace timings sweep all");
            println!("(c11 crash matrix, c12 replication, c13 dedup, c14 shard, c15 livemig, c16 erasure are standalone — not part of `all`)");
            println!("(sweep writes the canonical SWEEP_cXX.json artifacts and the RUNBOOK.json manifest; --out DIR picks the directory)");
            return;
        }
        "table1" | "t1" => bench::t1_table(),
        "figure1" | "f1" => bench::f1_figure(),
        "c1" | "claims" => bench::c1_gather(),
        "c2" | "incremental" => bench::c2_incremental(),
        "c3" | "blocksize" => bench::c3_blocksize(),
        "c3b" | "omission" => bench::c3b_omission(),
        "c4" | "mechanisms" => bench::c4_mechanisms(),
        "c5" | "fork" => bench::c5_fork(),
        "c6" | "storage" => bench::c6_storage(),
        "c7a" => bench::c7_cluster_mechanistic(),
        "c7b" | "cluster" => bench::c7_cluster_scale(),
        "c8" | "migration" => bench::c8_migration(),
        "c9" | "batch" => bench::c9_batch_vs_autonomic(),
        "c10" | "sensitivity" => bench::c10_sensitivity(),
        "c11" | "crashmatrix" => bench::c11_crash_matrix(),
        "c12" | "replication" => bench::c12_replication(),
        "c13" | "dedup" => bench::c13_dedup(),
        "c14" | "shard" => bench::c14_shard(),
        "c15" | "livemig" => bench::c15_livemig(),
        "c16" | "erasure" => bench::c16_erasure(),
        "trace" => bench::trace_breakdown(),
        "timings" => match bench::run_timings() {
            Ok(table) => table,
            Err(e) => {
                eprintln!("could not write BENCH_report.json: {e}");
                std::process::exit(1);
            }
        },
        "sweep" => {
            let out_dir = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| std::path::PathBuf::from("."));
            match run_sweep_cmd(&out_dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("could not write sweep artifacts: {e}");
                    std::process::exit(1);
                }
            }
        }
        "all" => bench::run_all(),
        other => {
            eprintln!("unknown experiment '{other}' — try: report list");
            std::process::exit(2);
        }
    };
    println!("{out}");
}
