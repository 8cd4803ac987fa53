//! The cycle engine at PS-scale32 — the first cycle points above 1 064
//! routers (ROADMAP direction 1(a)) and the measurement behind keeping
//! the sharded driver: MIN and UGAL uniform points through the 858 MB
//! reference table, sequential and at two threads, the two results
//! compared for equality. Release only (`#[ignore]`d; CI runs it with
//! `-- --ignored` under its own timeout):
//!
//! ```sh
//! cargo test --release -p polarstar-netsim --test engine_scale -- --ignored --nocapture
//! ```
//!
//! It prints seconds, measured packets per second and the process's
//! peak RSS (`VmHWM`) per point; EXPERIMENTS.md "Engine parallelism"
//! records one run.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::{Pattern, RouteTable, RoutingKind, SimConfig, Simulation};

#[test]
#[ignore = "release-only: 9 954 routers, ~1 GiB, minutes"]
fn radix32_uniform_points_match_across_thread_counts() {
    let spec = PolarStarNetwork::build(best_config(32).unwrap(), 11)
        .unwrap()
        .spec;
    assert_eq!(spec.routers(), 9_954);
    let table = RouteTable::for_spec(&spec);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("PS-scale32 uniform load 0.3, warm-up 200 / measure 400, {cores} host cores");
    for kind in [RoutingKind::MinMulti, RoutingKind::ugal4()] {
        let sim = Simulation::new(&spec, &table, kind, &Pattern::Uniform);
        let point = |threads: Option<usize>| {
            let cfg = SimConfig {
                warmup_cycles: 200,
                measure_cycles: 400,
                threads,
                ..SimConfig::default()
            };
            let t0 = std::time::Instant::now();
            let r = sim.run(0.3, &cfg);
            let secs = t0.elapsed().as_secs_f64();
            let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
            let peak = status.lines().find(|l| l.starts_with("VmHWM"));
            println!(
                "{} threads {threads:?}: {secs:.1} s, {} measured packets, {:.0} pkt/s, {peak:?}",
                kind.label(),
                r.measured_ejected,
                r.measured_ejected as f64 / secs
            );
            r
        };
        let seq = point(None);
        assert!(seq.stable && seq.measured_ejected > 0, "{seq:?}");
        assert_eq!(point(Some(2)), seq, "{}: two threads diverge", kind.label());
    }
}
