//! The flow layer at its own scale: PS-million, the radix-32 PolarStar
//! (9 954 routers) at 101 endpoints a router, 1 005 354 endpoints in
//! all, routed table-free through `AnalyticOracle` — the build
//! `flow_million` in `benchmark/` times. Release only (`#[ignore]`d; CI
//! runs it with `-- --ignored` under its own timeout):
//!
//! ```sh
//! cargo test --release -p polarstar-routed --test flow_scale -- --ignored --nocapture
//! ```
//!
//! It asserts the exact flow, pair and saturation counts, prints each
//! phase's seconds and the process's peak RSS (`VmHWM`), and caps that
//! peak at 300 MiB: a network that copied the plan's DAG arena, or a
//! route pass that kept every group buffer until the end, reads ≈ 380
//! MiB here (≈ 253 MiB on a 2-core host without either). It then pins
//! the numbers themselves, FNV digests of `rates(1.0)` and
//! `link_utilization(1.0)`: the one test whose destination groups hold
//! about 100 pairs at radix 32, where the route pass walks from parent
//! masks.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::{FlowPlan, FlowRouting, Pattern, TrafficComponent};
use polarstar_routed::AnalyticOracle;
use std::time::Instant;

/// FNV-1a 64 over the bits of every entry of `xs`.
fn digest(xs: &[f64]) -> u64 {
    xs.iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Peak resident set of this process, in KiB (`VmHWM`).
fn peak_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM"))
        .expect("VmHWM");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
#[ignore = "release-only: 1 005 354 flows, ~250 MiB peak"]
fn ps_million_flow_build_and_solve() {
    let cfg = best_config(32).unwrap();
    let per_router = 1_000_000usize.div_ceil(cfg.order()) as u32;
    let net = PolarStarNetwork::build(cfg, per_router).unwrap();
    let spec = net.spec.clone();
    assert_eq!((spec.routers(), spec.total_endpoints()), (9_954, 1_005_354));
    let oracle = AnalyticOracle::new(net);
    let comps = [TrafficComponent::new(Pattern::Uniform, 1)];

    let t0 = Instant::now();
    let plan = FlowPlan::build(&spec, &oracle, &comps, FlowRouting::EcmpSplit);
    let t1 = Instant::now();
    let fnet = plan.network();
    let t2 = Instant::now();
    let full = fnet.solve(1.0);
    let t3 = Instant::now();

    assert_eq!(plan.num_pairs(), 1_000_239);
    assert_eq!(fnet.num_flows(), 1_005_354);
    assert_eq!(fnet.unroutable(), 0);
    assert_eq!(fnet.saturation_load(), 1.0 / 28.0);
    assert!(!full.stable && full.flows == 1_005_354, "{full:?}");
    let peak = peak_kib();
    println!(
        "PS-million flow: plan {:.2} s, network {:.2} s, solve {:.2} s, state {} bytes, \
         VmHWM {} KiB",
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        (t3 - t2).as_secs_f64(),
        fnet.memory_bytes(),
        peak
    );
    assert!(
        peak <= 300 << 10,
        "peak RSS {peak} KiB above the 300 MiB cap"
    );
    // Recorded at commit 5c0a38d, before the pair index was bucketed by
    // source router and the DAG walks read port bitmasks: the numbers
    // at 1 000 239 pairs, not just their counts.
    let rates = digest(&fnet.rates(1.0));
    let util = digest(&fnet.link_utilization(1.0));
    assert_eq!(
        (rates, util),
        (0x090f_a8b1_01a5_29ac, 0x7f59_2860_3df5_720c),
        "digests of rates(1.0) and link_utilization(1.0): {rates:#018x}, {util:#018x}"
    );
}
