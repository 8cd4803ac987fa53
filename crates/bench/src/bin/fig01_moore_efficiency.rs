//! Figure 1: scalability of direct diameter-3 topologies relative to the
//! Moore bound.
//!
//! Emits CSV `radix,topology,order,moore_efficiency` for radixes 8–128,
//! plus the paper's headline geometric-mean ratios and the ≤ 64-radix
//! data labels. Spectralfly points construct actual LPS graphs and check
//! their diameter (vertex-transitive, so one BFS each); they are capped
//! at a construction size in quick mode.

use polarstar::design::{
    best_config, dragonfly_best_order, hyperx3d_best_order, kautz_best_order, moore_bound_d3,
    moore_efficiency, starmax_bound,
};
use polarstar_gf::primes::is_prime;
use polarstar_topo::bundlefly::best_params_for_degree;
use polarstar_topo::lps;

fn spectralfly_d3_order(radix: u64, max_n: u64) -> Option<u64> {
    let p = radix.checked_sub(1)?;
    if !is_prime(p) || p % 2 == 0 {
        return None;
    }
    let mut best = None;
    for q in (5..=97u64).filter(|&q| is_prime(q) && q % 4 == 1) {
        if !lps::is_feasible(p, q) || lps::lps_order(p, q) > max_n {
            continue;
        }
        if let Ok(g) = lps::lps_graph(p, q) {
            if lps::lps_diameter(&g) <= Some(3) {
                best = best.max(Some(g.n() as u64));
            }
        }
    }
    best
}

fn main() {
    let quick = bench::Cli::from_env(&["--quick"]).has("--quick");
    let sf_cap = if quick { 5_000 } else { 60_000 };
    println!("radix,topology,order,moore_efficiency");
    let mut ratios: Vec<(&str, f64, usize)> = Vec::new();
    let mut log_sum = std::collections::HashMap::new();
    let mut log_cnt = std::collections::HashMap::new();
    let mut labels: std::collections::HashMap<&str, (u64, u64)> = std::collections::HashMap::new();

    for radix in 8u64..=128 {
        let mut row = |name: &'static str, order: Option<u64>| {
            if let Some(o) = order {
                if o > 0 {
                    println!("{radix},{name},{o},{:.4}", moore_efficiency(o, radix));
                    if radix <= 64 {
                        let e = labels.entry(name).or_insert((0, 0));
                        if o > e.0 {
                            *e = (o, radix);
                        }
                    }
                    return Some(o);
                }
            }
            None
        };
        let ps = row(
            "PolarStar",
            best_config(radix as usize).map(|c| c.order() as u64),
        );
        row("StarMax", Some(starmax_bound(radix)));
        row("MooreBound", Some(moore_bound_d3(radix)));
        let bf = row(
            "Bundlefly",
            best_params_for_degree(radix).map(|p| p.order()),
        );
        let df = row("Dragonfly", Some(dragonfly_best_order(radix)));
        let hx = row("HyperX3D", Some(hyperx3d_best_order(radix)));
        let kz = row("Kautz", Some(kautz_best_order(radix)));
        let sf = if quick && radix % 8 != 0 {
            None
        } else {
            row("Spectralfly", spectralfly_d3_order(radix, sf_cap))
        };
        let _ = (kz, sf);
        if let Some(ps) = ps {
            for (name, other) in [("Bundlefly", bf), ("Dragonfly", df), ("HyperX3D", hx)] {
                if let Some(o) = other {
                    *log_sum.entry(name).or_insert(0.0) += (ps as f64 / o as f64).ln();
                    *log_cnt.entry(name).or_insert(0usize) += 1;
                }
            }
        }
    }
    eprintln!("# geometric-mean PolarStar scale advantage (radix 8-128):");
    for (name, s) in &log_sum {
        let gm = (s / log_cnt[name] as f64).exp();
        eprintln!("#   vs {name}: {gm:.2}x");
        ratios.push((name, gm, log_cnt[name]));
    }
    eprintln!("# data labels (largest order at radix ≤ 64):");
    for (name, (order, radix)) in labels {
        eprintln!("#   {name}: {order} nodes @ radix {radix}");
    }
}
