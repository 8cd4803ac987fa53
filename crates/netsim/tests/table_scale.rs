//! Scale guard for the reference table: ROADMAP direction 1 gates every
//! table-free forwarding view on "analytic lowering ≡ table", which
//! needs the CSR table at PS-scale32 to stay a seconds-scale build that
//! fits beside the view under test. Release only (`#[ignore]`d; CI runs
//! it with `-- --ignored` under its own timeout):
//!
//! ```sh
//! cargo test --release -p polarstar-netsim --test table_scale -- --ignored --nocapture
//! ```
//!
//! It prints the build time and the process's peak RSS (`VmHWM`); both
//! sizes below were measured identical on the per-destination-column
//! assembler (30db64b: 44.1 s, 1 200 MiB peak) and on the block-BFS +
//! row-fill one that replaced it.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::RouteTable;

#[test]
#[ignore = "release-only: builds an 858 MB table"]
fn radix32_reference_table_builds_to_the_recorded_size() {
    // The radix-32 PolarStar of PS-scale32: 9 954 routers, 11 endpoints
    // each.
    let spec = PolarStarNetwork::build(best_config(32).unwrap(), 11)
        .unwrap()
        .spec;
    assert_eq!(spec.routers(), 9_954);
    let t0 = std::time::Instant::now();
    let table = RouteTable::for_spec(&spec);
    let built = t0.elapsed();
    assert_eq!(table.memory_bytes(), 858_104_124);
    assert_eq!(table.storage_entries(), 262_297_492);
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak = status.lines().find(|l| l.starts_with("VmHWM"));
    println!("PS-scale32 RouteTable::for_spec: {built:.1?}, {peak:?}");
}
