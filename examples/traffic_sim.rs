//! Simulate synthetic traffic on a small PolarStar and a Dragonfly of
//! comparable radix, reproducing the Figure 9 methodology in miniature.
//!
//! ```text
//! cargo run --release --example traffic_sim
//! ```

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_repro::netsim::engine::{simulate, SimConfig};
use polarstar_repro::netsim::routing::{RouteTable, RoutingKind};
use polarstar_repro::netsim::traffic::Pattern;
use polarstar_repro::topo::dragonfly::{dragonfly, DragonflyParams};

fn main() {
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 1_500,
        drain_cycles: 8_000,
        seed: 42,
        ..SimConfig::default()
    };

    // A radix-9 PolarStar (ER_5 * IQ_3: 248 routers) vs a Dragonfly of
    // the same network degree with 3 endpoints per router each.
    let ps = {
        let c = best_config(9).unwrap();
        let mut net = PolarStarNetwork::build(c, 3).unwrap().spec;
        net.name = "PolarStar".into();
        net
    };
    let df = {
        let mut net = dragonfly(DragonflyParams { a: 6, h: 3, p: 3 });
        net.name = "Dragonfly".into();
        net
    };

    println!("topology,routing,pattern,offered,avg_latency,accepted,stable");
    for net in [&ps, &df] {
        let table = RouteTable::for_spec(net);
        for kind in [RoutingKind::MinMulti, RoutingKind::ugal4()] {
            for pattern in [Pattern::Uniform, Pattern::AdversarialGroup] {
                for load in [0.1, 0.3, 0.5, 0.7] {
                    let r = simulate(net, &table, kind, &pattern, load, &cfg);
                    println!(
                        "{},{},{},{:.2},{:.1},{:.3},{}",
                        net.name,
                        kind.label(),
                        pattern.label(),
                        r.offered,
                        r.avg_latency,
                        r.accepted,
                        r.stable
                    );
                    if !r.stable {
                        break;
                    }
                }
            }
        }
    }
}
