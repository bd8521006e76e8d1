//! Pins the exact faultpoint sites the four quorum backends visit.
//!
//! The crash matrix arms faults by site name (and picks torn-write
//! offsets from the recorded frame size), so renaming a site or moving a
//! frame boundary would silently drop or shift matrix cells. One
//! `store`, one `load` and one two-object `store_batch` are recorded on
//! each backend and compared against the full expected list — name,
//! visit ordinal and recorded bytes.

use ckpt_restart::ec::{EcStripedStore, ErasureStore};
use ckpt_restart::replica::{ReplicatedStore, StripedStore};
use ckpt_restart::storage::{ImageKey, StableStorage};
use simos::cost::CostModel;
use simos::faultpoint::FaultHandle;

fn record<S: StableStorage>(build: impl FnOnce(FaultHandle) -> S) -> Vec<String> {
    let h = FaultHandle::recording();
    let mut s = build(h.clone());
    let cost = CostModel::circa_2005();
    let (a, b) = (ImageKey::new("j", 1, 1).to_string(), ImageKey::new("j", 2, 1).to_string());
    s.store(&a, b"payload", &cost).unwrap();
    s.load(&a, &cost).unwrap();
    s.store_batch(&[(a.as_str(), b"v2".as_slice()), (b.as_str(), b"v1".as_slice())], &cost)
        .unwrap();
    h.sites().into_iter().map(|r| format!("{} {}", r.name, r.bytes)).collect()
}

fn expect(lines: &str) -> Vec<String> {
    lines.split_whitespace().collect::<Vec<_>>().chunks(2).map(|c| c.join(" ")).collect()
}

#[test]
fn replicated_store_sites_are_pinned() {
    let got = record(|h| ReplicatedStore::fresh(3, 2).with_faults(h));
    assert_eq!(got, expect(REPLICATED));
}

#[test]
fn striped_store_sites_are_pinned() {
    let got = record(|h| StripedStore::fresh(2, 3, 2).with_faults(h));
    assert_eq!(got, expect(STRIPED));
}

#[test]
fn erasure_store_sites_are_pinned() {
    let got = record(|h| ErasureStore::fresh(4, 2).with_faults(h));
    assert_eq!(got, expect(ERASURE));
}

#[test]
fn ec_striped_store_sites_are_pinned() {
    let got = record(|h| EcStripedStore::fresh(2, 4, 2).with_faults(h));
    assert_eq!(got, expect(EC_STRIPED));
}

const REPLICATED: &str = "
    replica/r0/store@1 7
    replica/r1/store@1 7
    replica/r2/store@1 7
    replica/r0/load@1 0
    replica/r1/load@1 0
    replica/r2/load@1 0
    replica/r0/batch@1 96
    replica/r1/batch@1 96
    replica/r2/batch@1 96
";
const STRIPED: &str = "
    stripe1/r0/batch@1 61
    stripe1/r1/batch@1 61
    stripe1/r2/batch@1 61
    stripe1/r0/load@1 0
    stripe1/r1/load@1 0
    stripe1/r2/load@1 0
    stripe0/r0/batch@1 56
    stripe0/r1/batch@1 56
    stripe0/r2/batch@1 56
    stripe1/r0/batch@2 56
    stripe1/r1/batch@2 56
    stripe1/r2/batch@2 56
";
const ERASURE: &str = "
    ec/s0/batch@1 80
    ec/s1/batch@1 80
    ec/s2/batch@1 80
    ec/s3/batch@1 80
    ec/s4/batch@1 80
    ec/s5/batch@1 80
    ec/s0/load@1 0
    ec/s1/load@1 0
    ec/s2/load@1 0
    ec/s3/load@1 0
    ec/s4/load@1 0
    ec/s5/load@1 0
    ec/s0/batch@2 142
    ec/s1/batch@2 142
    ec/s2/batch@2 142
    ec/s3/batch@2 142
    ec/s4/batch@2 142
    ec/s5/batch@2 142
";
const EC_STRIPED: &str = "
    ecstripe1/s0/batch@1 80
    ecstripe1/s1/batch@1 80
    ecstripe1/s2/batch@1 80
    ecstripe1/s3/batch@1 80
    ecstripe1/s4/batch@1 80
    ecstripe1/s5/batch@1 80
    ecstripe1/s0/load@1 0
    ecstripe1/s1/load@1 0
    ecstripe1/s2/load@1 0
    ecstripe1/s3/load@1 0
    ecstripe1/s4/load@1 0
    ecstripe1/s5/load@1 0
    ecstripe0/s0/batch@1 79
    ecstripe0/s1/batch@1 79
    ecstripe0/s2/batch@1 79
    ecstripe0/s3/batch@1 79
    ecstripe0/s4/batch@1 79
    ecstripe0/s5/batch@1 79
    ecstripe1/s0/batch@2 79
    ecstripe1/s1/batch@2 79
    ecstripe1/s2/batch@2 79
    ecstripe1/s3/batch@2 79
    ecstripe1/s4/batch@2 79
    ecstripe1/s5/batch@2 79
";
