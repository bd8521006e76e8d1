//! The benchmark's own checks, at smoke size: every workload emits
//! exactly the metrics `BENCHMARK.json` declares, with their units, and
//! fails nothing; and tracing is a pure observer of virtual time.

use ckpt_bench::artifact::{parse_document, Json};
use perfbench::{result_line, run, Settings, WORKLOADS};
use std::sync::Arc;

fn settings(seed: u64) -> Settings {
    Settings {
        seed,
        seconds: 600.0,
        pool: Arc::new(ckpt_par::Pool::new(2)),
        smoke: true,
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse_document(&text).expect("BENCHMARK.json parses").value;
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(line: &str) -> Vec<(String, String)> {
    let doc = parse_document(line).expect("result line parses").value;
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let mut out: Vec<(String, String)> = metrics
        .iter()
        .map(|(n, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{n} has a numeric value"
            );
            (
                n.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

fn check_workload(name: &str, traced: bool, section: &str) {
    let report = run(name, &settings(7), traced).expect("known workload");
    assert_eq!(report.failed, 0, "{name}: {}", report.detail);
    let mut want = declared(section);
    want.sort();
    assert_eq!(
        emitted(&result_line(&report)),
        want,
        "{name} traced={traced}"
    );
}

#[test]
fn untraced_smoke_runs_emit_the_declared_end_to_end_metrics() {
    for name in WORKLOADS {
        check_workload(name, false, "end_to_end");
    }
}

#[test]
fn traced_smoke_runs_emit_the_declared_per_layer_metrics() {
    for name in WORKLOADS {
        check_workload(name, true, "per_layer");
    }
}

#[test]
fn tracing_moves_no_virtual_time_observable() {
    for name in WORKLOADS {
        let report = run(name, &settings(11), true).expect("known workload");
        let [untraced, traced] = &report.observed[..] else {
            panic!("a traced run reports both halves");
        };
        assert!(!untraced.is_empty());
        assert_eq!(
            untraced, traced,
            "{name}: outcomes, encoded bytes or commit bytes moved"
        );
        assert_eq!(report.failed, 0, "{name}: {}", report.detail);
    }
}

#[test]
fn the_same_seed_gives_the_same_observables() {
    let a = run("dedup-coscheduled", &settings(3), false).expect("known workload");
    let b = run("dedup-coscheduled", &settings(3), false).expect("known workload");
    assert_eq!(a.observed, b.observed);
    let c = run("dedup-coscheduled", &settings(4), false).expect("known workload");
    assert_ne!(a.observed, c.observed, "the seed reaches the inputs");
}
