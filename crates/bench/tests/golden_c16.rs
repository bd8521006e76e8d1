//! Structural golden pin for C16, the erasure-coded storage engine.
//!
//! C16 runs on the sweep engine and emits a canonical JSON artifact
//! (`goldens/SWEEP_c16.json`); this test diffs the regenerated artifact
//! against the golden *structurally* — a mismatch names the first
//! divergent path and both values
//! (`c16.traffic.jobs[1].metrics.coded_bytes_42: 4096 != 4160`) instead
//! of "hash mismatch". Everything in the artifact is deterministic by
//! construction: the guest lineages are seeded, GF(256) arithmetic is
//! table-driven, fault admission runs sequentially in shard-node order,
//! and only pure work fans out on the pool behind an ordered merge — so
//! the bytes pin at any worker count.
//!
//! If an *intentional* change lands, regenerate:
//! `./target/release/report sweep --out crates/bench/goldens/` (then
//! drop the RUNBOOK/other artifacts) and commit the new golden with the
//! reason in the same commit.

use ckpt_bench::artifact::{canonical_document, first_divergence, parse_document};
use ckpt_bench::sweep::sweep_artifact;
use std::process::Command;

const GOLDEN: &str = include_str!("../goldens/SWEEP_c16.json");

#[test]
fn c16_artifact_matches_structural_golden() {
    let golden = parse_document(GOLDEN).expect("golden parses");
    assert!(golden.keys_sorted, "golden must be canonical (sorted keys)");
    let actual_doc = canonical_document(&sweep_artifact(&ckpt_bench::swept::c16_sweeps()));
    let actual = parse_document(&actual_doc).expect("artifact parses");
    if let Some(d) = first_divergence("c16", &golden.value, &actual.value) {
        panic!("C16 sweep artifact diverged from golden: {d}");
    }
    assert_eq!(actual_doc, GOLDEN, "artifact bytes moved without a structural diff");
}

#[test]
fn report_c16_is_pool_width_invariant() {
    // The determinism discipline's observable contract: the rendered
    // report's bytes cannot depend on how many workers encode parity
    // rows. Each width runs in its own process because the global pool
    // latches its size once. (The sweep-artifact counterpart of this
    // test lives in sweep_properties.rs.)
    let mut outputs = Vec::new();
    for width in ["1", "4", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .env("CKPT_PAR_WORKERS", width)
            .arg("c16")
            .output()
            .expect("run report c16");
        assert!(out.status.success(), "report c16 failed at width {width}");
        outputs.push(out.stdout);
    }
    assert_eq!(outputs[0], outputs[1], "width 1 vs 4 outputs differ");
    assert_eq!(outputs[1], outputs[2], "width 4 vs 8 outputs differ");
}

#[test]
fn c16_coded_commit_bytes_stay_under_the_acceptance_floor() {
    // Acceptance: RS(4,2) commits at most 0.55x the replica-ingested
    // bytes of replication(3,2) on the same lineages — the bandwidth win
    // the engine exists for, measured, not assumed. This test is the
    // one place the floor is enforced; ci.sh runs it in its erasure gate.
    let out = ckpt_bench::c16_erasure();
    let ratio = |needle: &str| -> f64 {
        out.lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(':').next())
            .and_then(|v| v.trim().trim_end_matches('x').parse().ok())
            .unwrap_or_else(|| panic!("gate line '{needle}' missing from report c16"))
    };
    let r42 = ratio("gate: rs(4,2) commit bytes vs replicated(3,2):");
    assert!(
        r42 <= 0.55,
        "rs(4,2) must commit <= 0.55x replication(3,2) bytes, got {r42}"
    );
    let r83 = ratio("gate: rs(8,3) commit bytes vs replicated(5,3):");
    assert!(
        r83 <= 0.55,
        "rs(8,3) must commit <= 0.55x replication(5,3) bytes, got {r83}"
    );
    assert!(
        out.contains("gate: coded reads bit-exact within m losses and typed beyond: true"),
        "survivability gate must hold"
    );
}

#[test]
fn c16_reconstruction_repairs_persist_across_reads() {
    // The reconstruction table's second-read column is only honest if
    // read-repair actually persists: damage a shard group, read twice,
    // and require the second read to be decode- and repair-free.
    use ckpt_ec::ErasureStore;
    use ckpt_storage::StableStorage;
    use simos::cost::CostModel;

    let cost = CostModel::circa_2005();
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    let mut store = ErasureStore::fresh(4, 2);
    store.store("g/img", &payload, &cost).unwrap();
    store.replica_set().node(0).drop_key("g/img");
    store.replica_set().node(5).corrupt_key("g/img");
    let (first, t_first) = store.load("g/img", &cost).unwrap();
    assert_eq!(first, payload);
    assert_eq!(store.stats().repairs, 2);
    let (second, t_second) = store.load("g/img", &cost).unwrap();
    assert_eq!(second, payload);
    assert_eq!(store.stats().repairs, 2, "second read must not repair again");
    assert_eq!(store.stats().decodes, 1, "second read must not decode again");
    assert!(t_second < t_first, "repair traffic must not recur");
}
