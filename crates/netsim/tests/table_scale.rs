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
//! It prints the build time and the process's peak RSS (`VmHWM`). The
//! table is its `u16` distance arena plus the graph: 199 MB, built in
//! ≈ 0.2 s with a ≈ 200 MB peak on a 2-core host. The count of derived
//! minimal ports is the one the stored port arena held before ports
//! were read off the distance columns.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::RouteTable;
use rayon::prelude::*;

#[test]
#[ignore = "release-only: builds a 199 MB table"]
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
    assert_eq!(table.memory_bytes(), 199_517_984);
    let n = table.n() as u32;
    let ports: usize = (0..n)
        .into_par_iter()
        .map(|dst| (0..n).map(|r| table.min_ports(r, dst).count()).sum())
        .reduce(|| 0, |a, b| a + b);
    assert_eq!(ports, 262_297_492);
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak = status.lines().find(|l| l.starts_with("VmHWM"));
    println!("PS-scale32 RouteTable::for_spec: {built:.1?}, {peak:?}");
}
