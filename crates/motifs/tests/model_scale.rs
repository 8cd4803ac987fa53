//! The motif model at PS-scale32 — the first motif number above 1 064
//! routers: one recursive-doubling allreduce (MIN, 64 KB, 1 iteration)
//! over the 109 494 ranks of the radix-32 PolarStar (9 954 routers),
//! routed from `u16` distance rows. Release only (`#[ignore]`d; CI runs
//! it with `-- --ignored` under its own timeout):
//!
//! ```sh
//! cargo test --release -p polarstar-motifs --test model_scale -- --ignored --nocapture
//! ```
//!
//! It prints seconds, messages per second and the process's peak RSS
//! (`VmHWM`); EXPERIMENTS.md "Figure 11", "PR 22 ledger", records one run.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_motifs::{allreduce, AllreduceAlgo, MotifConfig, NetModel, RoutingMode};

#[test]
#[ignore = "release-only: 9 954 routers, ~200 MB of distance rows"]
fn radix32_recursive_doubling_allreduce() {
    let spec = PolarStarNetwork::build(best_config(32).unwrap(), 11)
        .unwrap()
        .spec;
    let n = spec.routers();
    assert_eq!((n, spec.total_endpoints()), (9_954, 109_494));
    let mut model = NetModel::new(spec, MotifConfig::default());
    let t0 = std::time::Instant::now();
    let algo = AllreduceAlgo::RecursiveDoubling;
    let done_ns = allreduce(&mut model, algo, 64 << 10, 1, RoutingMode::Min).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let messages = model.link_report(1).messages;
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak = status.lines().find(|l| l.starts_with("VmHWM"));
    println!(
        "PS-scale32 RD allreduce MIN 64 KB: {secs:.2} s, model {:.1} us, {messages} link \
         crossings ({:.0}/s), rows {} bytes, {peak:?}",
        done_ns / 1e3,
        messages as f64 / secs,
        model.row_bytes()
    );
    assert!(done_ns > 0.0);
    // Every router is some rank's destination, so every row is swept —
    // and a row is all the routing state there is.
    assert_eq!(model.row_bytes(), n * n * 2);
}
