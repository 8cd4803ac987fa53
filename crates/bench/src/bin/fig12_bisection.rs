//! Figure 12: fraction of links crossing the estimated minimum bisection
//! versus radix, across topologies (METIS replaced by FM with restarts).
//!
//! Largest feasible construction per radix, Jellyfish matched to
//! PolarStar's radix and scale. Radixes are sampled up to 48 by default
//! (constructions grow cubically); `--full` extends to 64.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_analysis::bisection::bisection_row;
use polarstar_gf::primes::is_prime;
use polarstar_topo::bundlefly::{best_params_for_degree, bundlefly};
use polarstar_topo::dragonfly::{dragonfly, DragonflyParams};
use polarstar_topo::hyperx::hyperx;
use polarstar_topo::jellyfish::jellyfish;
use polarstar_topo::lps;
use polarstar_topo::megafly::{megafly, MegaflyParams};
use polarstar_topo::network::NetworkSpec;

const RESTARTS: usize = 6;
const SEED: u64 = 7;

fn hx_dims(radix: usize) -> [usize; 3] {
    let side = radix / 3 + 1;
    [side, side, radix + 3 - 2 * side]
}

fn spectralfly(radix: usize, cap: usize) -> Option<NetworkSpec> {
    let p = (radix - 1) as u64;
    if !is_prime(p) {
        return None;
    }
    let mut best: Option<NetworkSpec> = None;
    for q in (5..=61u64).filter(|&q| is_prime(q) && q % 4 == 1) {
        if !lps::is_feasible(p, q) || lps::lps_order(p, q) > cap as u64 {
            continue;
        }
        if let Ok(g) = lps::lps_graph(p, q) {
            if lps::lps_diameter(&g) <= Some(3) {
                let better = best.as_ref().is_none_or(|b| g.n() > b.routers());
                if better {
                    best = Some(NetworkSpec::uniform("Spectralfly", g, 1));
                }
            }
        }
    }
    best
}

fn main() {
    let full = bench::Cli::from_env(&["--full"]).has("--full");
    let max_radix = if full { 64 } else { 48 };
    let cap_routers = if full { 80_000 } else { 25_000 };
    println!("radix,topology,routers,cut,bisection_fraction");
    for radix in (8..=max_radix).step_by(4) {
        let emit = |name: &str, spec: Option<NetworkSpec>| {
            if let Some(spec) = spec {
                if spec.routers() < 4 || spec.routers() > cap_routers {
                    return None;
                }
                let row = bisection_row(&spec, RESTARTS, SEED);
                println!(
                    "{radix},{name},{},{},{:.4}",
                    row.routers, row.cut, row.fraction
                );
                return Some(spec.routers());
            }
            None
        };
        let ps_routers = {
            let cfg = best_config(radix);
            let spec = cfg
                .and_then(|c| PolarStarNetwork::build(c, 1).ok())
                .map(|n| n.spec);
            emit("PolarStar", spec)
        };
        emit(
            "Bundlefly",
            best_params_for_degree(radix as u64).and_then(|mut p| {
                p.p = 1;
                bundlefly(p).ok()
            }),
        );
        emit(
            "Dragonfly",
            Some(dragonfly(DragonflyParams::balanced_for_radix(radix))),
        );
        emit("HyperX3D", Some(hyperx(&hx_dims(radix), 1)));
        emit(
            "Megafly",
            (radix % 2 == 0).then(|| {
                let a = radix; // a/2 leaves with p = a/2 ports... keep ρ = a/2
                megafly(MegaflyParams {
                    rho: radix / 2,
                    a,
                    p: radix / 2,
                })
            }),
        );
        emit("Spectralfly", spectralfly(radix, cap_routers));
        if let Some(nps) = ps_routers {
            // Jellyfish with PolarStar's radix and scale.
            emit(
                "Jellyfish",
                jellyfish(nps, radix.min(nps - 1), 1, SEED).ok(),
            );
        }
    }
}
