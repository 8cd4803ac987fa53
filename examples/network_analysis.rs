//! Structural analysis walkthrough: channel load, minimal-path
//! diversity, and edge-disjoint spanning trees for a PolarStar and a
//! Dragonfly of comparable radix — the quantities behind the paper's §9
//! performance explanations.
//!
//! ```text
//! cargo run --release --example network_analysis
//! ```

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_repro::analysis::linkload::channel_load;
use polarstar_repro::analysis::pathdiversity::path_diversity;
use polarstar_repro::graph::edst::greedy_edst;
use polarstar_repro::topo::dragonfly::{dragonfly, DragonflyParams};

fn main() {
    let ps = {
        let mut n = PolarStarNetwork::build(best_config(9).unwrap(), 1)
            .unwrap()
            .spec;
        n.name = "PolarStar(248)".into();
        n
    };
    let df = {
        let mut n = dragonfly(DragonflyParams { a: 6, h: 3, p: 1 });
        n.name = "Dragonfly(114)".into();
        n
    };

    for net in [&ps, &df] {
        println!(
            "== {} — {} routers, {} links",
            net.name,
            net.routers(),
            net.graph.m()
        );

        let cl = channel_load(&net.graph);
        println!(
            "  channel load: max {:.1}, mean {:.1}, imbalance {:.2} \
             (hot channels cap MIN-routing throughput)",
            cl.max,
            cl.mean,
            cl.imbalance()
        );

        let pd = path_diversity(&net.graph);
        println!(
            "  path diversity: geomean {:.2} minimal paths/pair, {:.0}% single-path, \
             all-minpath table = {} entries",
            pd.geomean,
            100.0 * pd.single_path_fraction,
            pd.table_entries
        );

        let trees = greedy_edst(&net.graph);
        println!(
            "  spanning-tree packing: {} edge-disjoint trees (in-network collective lanes)",
            trees.len()
        );
    }
}
