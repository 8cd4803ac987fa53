//! The motif model at PS-scale32 — the first motif number above 1 064
//! routers: one recursive-doubling allreduce (MIN, 64 KB, 1 iteration)
//! over the 109 494 ranks of the radix-32 PolarStar (9 954 routers),
//! routed from per-router minimal-port masks, one 4-byte mask per
//! (router, destination). Release only (`#[ignore]`d; CI runs it with
//! `-- --ignored` under its own timeout):
//!
//! ```sh
//! cargo test --release -p polarstar-motifs --test model_scale -- --ignored --nocapture
//! ```
//!
//! It prints seconds, messages per second, the port-mask bytes
//! (`NetModel::port_mask_bytes`) and the process's peak RSS (`VmHWM`,
//! asserted ≤ 450 MiB); EXPERIMENTS.md "Figure 11" records one run.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_motifs::{allreduce, AllreduceAlgo, MotifConfig, NetModel, RoutingMode};

#[test]
#[ignore = "release-only: 9 954 routers, ~400 MB of port masks"]
fn radix32_recursive_doubling_allreduce() {
    let spec = PolarStarNetwork::build(best_config(32).unwrap(), 11)
        .unwrap()
        .spec;
    let n = spec.routers();
    let links = spec.graph.directed_edge_count();
    assert_eq!((n, spec.total_endpoints()), (9_954, 109_494));
    let mut model = NetModel::new(spec, MotifConfig::default());
    let t0 = std::time::Instant::now();
    let algo = AllreduceAlgo::RecursiveDoubling;
    let done_ns = allreduce(&mut model, algo, 64 << 10, 1, RoutingMode::Min).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let messages = model.link_report(1).messages;
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak_kb: Option<u64> = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok());
    println!(
        "PS-scale32 RD allreduce MIN 64 KB: {secs:.2} s, model {:.1} us, {messages} link \
         crossings ({:.0}/s), port masks {} bytes, VmHWM {peak_kb:?} kB",
        done_ns / 1e3,
        messages as f64 / secs,
        model.port_mask_bytes()
    );
    assert!(done_ns > 0.0);
    // Every router is some rank's destination, so every block is swept
    // — and the port masks are all the routing state there is: at degree
    // 32, ⌈32/8⌉ · 64 · n = 8 · directed links bytes a block; twice the
    // 2·n² of `u16` distance rows.
    assert_eq!(model.port_mask_bytes(), 8 * links * n.div_ceil(64));
    assert_eq!(model.port_mask_bytes(), 397_522_944);
    if let Some(kb) = peak_kb {
        assert!(kb <= 450 << 10, "peak RSS {kb} kB above 450 MiB");
    }
}
