//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a detail line (sample counts, host facts,
//! workload notes, errors) and, last, the result line. Exits non-zero
//! when any operation failed or a restart was not bit-exact.

use perfbench::{result_line, run, Settings, WORKLOADS};
use std::process::ExitCode;
use std::sync::Arc;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage(
            "--workload, --seed, --seconds (0 < s <= 600) and --trace (0|1) are required",
        );
    };
    // The checkpoint pools run on at most two workers, never more than
    // the host has, so the benchmark stays light on a shared machine.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let width = cores.min(2);
    std::env::set_var("CKPT_PAR_WORKERS", width.to_string());
    let settings = Settings {
        seed,
        seconds,
        pool: Arc::new(ckpt_par::Pool::new(width)),
        smoke: false,
    };
    let Some(report) = run(&workload, &settings, traced) else {
        return usage(&format!("unknown workload {workload}"));
    };
    println!("{}", report.detail);
    println!("{}", result_line(&report));
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
