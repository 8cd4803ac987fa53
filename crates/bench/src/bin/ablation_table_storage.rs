//! Ablation: §9.3's routing-state comparison. For each Table 3 network,
//! the size of a full all-minpaths table (what SF/BF store) vs the
//! factor-graph state PolarStar's analytic router needs.

use bench::{table3_network, TABLE3_KEYS};
use polarstar::design::{best_config, best_config_with};
use polarstar::network::PolarStarNetwork;
use polarstar::routing::AnalyticRouter;
use polarstar_analysis::pathdiversity::path_diversity;

fn main() {
    println!("network,routers,minpath_table_entries,avg_minpaths_geomean");
    for key in TABLE3_KEYS {
        let net = table3_network(key).expect("Table 3 config");
        let pd = path_diversity(&net.graph);
        println!(
            "{key},{},{},{:.2}",
            net.routers(),
            pd.table_entries,
            pd.geomean
        );
    }
    // PolarStar's analytic alternative (§9.2): the router's whole
    // factor-graph state, as it reports it.
    for (label, cfg) in [
        ("PS-IQ", best_config(15).unwrap()),
        ("PS-Pal", best_config_with(15, false).unwrap()),
    ] {
        let router = AnalyticRouter::new(PolarStarNetwork::build(cfg, 1).unwrap());
        eprintln!(
            "# {label}: analytic routing state {} bytes (vs full table above)",
            router.memory_bytes()
        );
    }
}
