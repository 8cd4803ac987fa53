//! Quickstart: build a PolarStar network, inspect it, and route packets
//! analytically.
//!
//! ```text
//! cargo run --example quickstart [radix]
//! ```

use polarstar::design::{best_config, enumerate_configs, moore_bound_d3, moore_efficiency};
use polarstar::layout::Layout;
use polarstar::network::PolarStarNetwork;
use polarstar_repro::graph::traversal;
use polarstar_repro::routed::AnalyticOracle;
use polarstar_repro::topo::PathOracle;

fn main() {
    let radix: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(15);

    // 1. Explore the design space for this network radix.
    let configs = enumerate_configs(radix);
    println!("PolarStar configurations at radix {radix}:");
    for cfg in configs.iter().take(5) {
        println!(
            "  {:26} {} routers ({:.1}% of the diameter-3 Moore bound)",
            cfg.label(),
            cfg.order(),
            100.0 * moore_efficiency(cfg.order() as u64, radix as u64)
        );
    }

    // 2. Build the largest one (Table 3's PS-IQ when radix = 15).
    let cfg = best_config(radix).expect("configurations exist for every radix in [8,128]");
    let net = PolarStarNetwork::build(cfg, 0).expect("constructible");
    println!(
        "\nbuilt {}: {} routers, {} links",
        cfg.label(),
        net.spec.routers(),
        net.graph().m()
    );

    // 3. Verify the headline property: diameter 3.
    let diam = traversal::diameter(net.graph()).expect("connected");
    println!("diameter = {diam} (Theorem 4/5 guarantee ≤ 3)");
    assert!(diam <= 3);

    // 4. Route analytically — no routing tables, only factor-graph state:
    //    each hop is the first neighbor the §9.2 distance kernel puts one
    //    hop closer, so the path is the lexicographically first minimal one.
    let oracle = AnalyticOracle::new(net.clone());
    let (s, t) = (0u32, net.spec.routers() as u32 - 1);
    let path = oracle.path(s, t).expect("PolarStar is connected");
    let hops = &path[1..]; // the routers after `s`
    println!("analytic route {s} → {t}: {} hops via {hops:?}", hops.len());
    println!(
        "moore bound at this radix: {}",
        moore_bound_d3(radix as u64)
    );

    // 5. Physical layout: supernode bundles for multi-core fibers (§8).
    let layout = Layout::of(&net);
    println!(
        "layout: {} clusters, {} links per inter-supernode bundle, {} bundles total",
        layout.clusters.len(),
        layout.links_per_bundle,
        layout.bundle_count
    );
}
