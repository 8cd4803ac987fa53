//! Figure 13: PolarStar bisection with Inductive-Quad vs Paley
//! supernodes as a function of radix.

use polarstar::design::best_config_with;
use polarstar::network::PolarStarNetwork;
use polarstar_analysis::bisection::bisection_row;

fn main() {
    let full = bench::Cli::from_env(&["--full"]).has("--full");
    let max_radix = if full { 64 } else { 48 };
    println!("radix,supernode,routers,cut,bisection_fraction");
    let mut sums = [0.0f64; 2];
    let mut counts = [0usize; 2];
    for radix in 8..=max_radix {
        for (idx, want_iq) in [(0usize, true), (1, false)] {
            let cfg = match best_config_with(radix, want_iq) {
                Some(c) => c,
                None => continue,
            };
            let net = match PolarStarNetwork::build(cfg, 1) {
                Ok(n) => n.spec,
                Err(_) => continue,
            };
            if net.routers() > 25_000 {
                continue;
            }
            let row = bisection_row(&net, 6, 13);
            let label = if want_iq { "InductiveQuad" } else { "Paley" };
            println!(
                "{radix},{label},{},{},{:.4}",
                row.routers, row.cut, row.fraction
            );
            sums[idx] += row.fraction;
            counts[idx] += 1;
        }
    }
    eprintln!(
        "# average bisection fraction: IQ {:.3} ({} pts), Paley {:.3} ({} pts)",
        sums[0] / counts[0].max(1) as f64,
        counts[0],
        sums[1] / counts[1].max(1) as f64,
        counts[1]
    );
}
