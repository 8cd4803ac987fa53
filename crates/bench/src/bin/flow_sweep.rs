//! Cross-validate the max-min flow simulator against the cycle engine
//! on small PolarStar configs where both models are cheap
//! ([`cross_validate`]: same resolved traffic, one matched θ = 0.97
//! throughput-saturation definition, a 1.5×-overload delivered-fraction
//! probe). The table-free scale runs this binary used to time are the
//! `flow_million` and `flow_scale32_epochs` workloads of `benchmark/`.
//!
//! CSV to stdout:
//! `phase,topology,pattern,routers,endpoints,flows,exact_sat,cycle_sat,flow_sat,rel_err,delivered_err`.
//! `--quick` runs one config × one pattern with short windows;
//! `--metrics-dir <path>` writes one `RunManifest` per config. A row
//! outside the agreement gates ([`CrossValidation::check`]) is reported
//! on stderr and exits 1.
//!
//! [`CrossValidation::check`]: polarstar_netsim::stats::CrossValidation::check

use bench::manifest::file_stem;
use bench::{Cli, RunManifest};
use polarstar::design::{PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::stats::{cross_validate, XVAL_THETA};
use polarstar_netsim::{Pattern, RouteTable, SimConfig};

/// Shared simulator seed: the flow model resolves its pattern map with
/// `engine_resolve_seed(TRAFFIC_SEED)`, so the two sides route
/// identical source→destination pairs.
const TRAFFIC_SEED: u64 = 0xF10;

/// Small cross-validation configs: both factor kinds, both cheap enough
/// for the cycle engine's binary search.
fn xval_configs(quick: bool) -> Vec<(&'static str, PolarStarConfig, u32)> {
    let mut v = vec![(
        "PS-q3-IQ3",
        PolarStarConfig {
            q: 3,
            supernode: SupernodeKind::InductiveQuad { degree: 3 },
        },
        4,
    )];
    if !quick {
        v.push((
            "PS-q5-Pal2",
            PolarStarConfig {
                q: 5,
                supernode: SupernodeKind::Paley { degree: 2 },
            },
            4,
        ));
    }
    v
}

fn main() {
    let cli = Cli::from_env(&["--quick", "--metrics-dir"]);
    let quick = cli.has("--quick");
    let mut failed = false;

    println!("phase,topology,pattern,routers,endpoints,flows,exact_sat,cycle_sat,flow_sat,rel_err,delivered_err");

    let tol = if quick { 0.02 } else { 0.01 };
    let patterns: &[Pattern] = if quick {
        &[Pattern::Permutation]
    } else {
        &[Pattern::Permutation, Pattern::AdversarialGroup]
    };
    let cfg = SimConfig {
        seed: TRAFFIC_SEED,
        warmup_cycles: if quick { 2_000 } else { 4_000 },
        measure_cycles: if quick { 5_000 } else { 20_000 },
        drain_cycles: if quick { 20_000 } else { 80_000 },
        ..Default::default()
    };
    for (key, ps_cfg, h) in xval_configs(quick) {
        let net = match PolarStarNetwork::build(ps_cfg, h) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("flow_sweep: {key}: {e}");
                failed = true;
                continue;
            }
        };
        let spec = &net.spec;
        let table = RouteTable::for_spec(spec);
        let mut manifest = RunManifest::for_network(key, spec);
        for pattern in patterns {
            let p = pattern.label();
            let x = cross_validate(spec, &table, pattern, &cfg, tol);
            println!(
                "xval,{key},{p},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                spec.routers(),
                spec.total_endpoints(),
                x.flows,
                x.exact_sat,
                x.cycle_sat,
                x.flow_sat,
                x.rel_err,
                x.delivered_err,
            );
            if let Err(e) = x.check() {
                eprintln!("flow_sweep: {key}/{p}: {e}");
                failed = true;
            }
            manifest.push_extra(format!("exact_sat_{p}"), x.exact_sat);
            manifest.push_extra(format!("cycle_sat_{p}"), x.cycle_sat);
            manifest.push_extra(format!("flow_sat_{p}"), x.flow_sat);
            manifest.push_extra(format!("xval_rel_err_{p}"), x.rel_err);
            manifest.push_extra(format!("xval_delivered_err_{p}"), x.delivered_err);
        }
        manifest.push_extra("xval_search_tol", tol);
        manifest.push_extra("xval_theta", XVAL_THETA);
        if let Some(dir) = cli.metrics_dir() {
            let stem = file_stem(&format!("flow_sweep_{key}"));
            match manifest.write(dir, &stem) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("flow_sweep: writing manifest for {key}: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
