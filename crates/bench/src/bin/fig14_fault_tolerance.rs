//! Figure 14: diameter and average path length under random link
//! failures; 100 scenarios per topology, median disconnection scenario
//! reported. Indirect topologies (FT, MF) measure distances only between
//! endpoint-carrying routers.

use bench::{table3_network, Cli};
use polarstar_analysis::faults::median_trajectory;

fn main() {
    let quick = Cli::from_env(&["--quick"]).has("--quick");
    let trials = if quick { 9 } else { 101 };
    let keys = ["PS-IQ", "BF", "DF", "HX", "SF", "MF", "FT"];
    let mut errors: Vec<String> = Vec::new();
    println!("topology,failed_fraction,diameter,avg_path_length,connected");
    eprintln!("# disconnection ratios (median over {trials} trials):");
    for key in keys {
        let net = match table3_network(key) {
            Ok(net) => net,
            Err(e) => {
                errors.push(format!("{key}: {e}"));
                continue;
            }
        };
        let relevant = net.endpoint_routers();
        let (median, ratios) = median_trajectory(&net.graph, &relevant, 0.05, 48, trials, 1234);
        for step in &median.steps {
            println!(
                "{key},{:.2},{},{},{}",
                step.failed_fraction,
                step.diameter
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "-".into()),
                step.avg_path_length
                    .map(|a| format!("{a:.3}"))
                    .unwrap_or_else(|| "-".into()),
                step.connected
            );
        }
        eprintln!("#   {key}: median {:.2}", ratios[ratios.len() / 2]);
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("error: {e}");
        }
        std::process::exit(1);
    }
}
