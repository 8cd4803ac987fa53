//! Shared harness for the per-figure benchmark binaries.
//!
//! [`table3_network`] constructs the exact simulated configurations of
//! the paper's Table 3 (with the documented substitutions for PS-Pal's
//! order and Spectralfly's LPS realization); the binaries in `src/bin/`
//! regenerate each table and figure as CSV on stdout. [`manifest`]
//! captures run provenance (config, topology, seed, metrics) as JSON.

pub mod manifest;
pub mod motif_sweep;
pub mod sweep_driver;

use polarstar::design::{best_config, best_config_with};
use polarstar::network::PolarStarNetwork;
use polarstar_topo::bundlefly::{bundlefly, bundlefly_factors, BundleflyParams};
use polarstar_topo::dragonfly::{dragonfly, DragonflyParams};
use polarstar_topo::error::TopoError;
use polarstar_topo::fattree::fattree;
use polarstar_topo::hyperx::hyperx;
use polarstar_topo::lps::lps_graph;
use polarstar_topo::megafly::{megafly, MegaflyParams};
use polarstar_topo::network::NetworkSpec;

pub use manifest::RunManifest;

/// Table 3 topology keys in paper order.
pub const TABLE3_KEYS: [&str; 8] = ["PS-IQ", "PS-Pal", "BF", "HX", "DF", "SF", "MF", "FT"];

/// Build one Table 3 network by key.
pub fn table3_network(key: &str) -> Result<NetworkSpec, TopoError> {
    let net = match key {
        "PS-IQ" => {
            let cfg = best_config(15)
                .ok_or_else(|| TopoError::infeasible("PolarStar", "no radix-15 config"))?;
            let mut net = PolarStarNetwork::build(cfg, 5)?.spec;
            net.name = "PS-IQ".into();
            net
        }
        "PS-Pal" => {
            let cfg = best_config_with(15, false)
                .ok_or_else(|| TopoError::infeasible("PolarStar", "no radix-15 Paley config"))?;
            let mut net = PolarStarNetwork::build(cfg, 5)?.spec;
            net.name = "PS-Pal".into();
            net
        }
        "BF" => {
            let mut net = bundlefly(BundleflyParams {
                q: 7,
                dprime: 4,
                p: 5,
            })?;
            net.name = "BF".into();
            net
        }
        "HX" => {
            let mut net = hyperx(&[9, 9, 8], 8);
            net.name = "HX".into();
            net
        }
        "DF" => {
            let mut net = dragonfly(DragonflyParams { a: 12, h: 6, p: 6 });
            net.name = "DF".into();
            net
        }
        "SF" => {
            let g = lps_graph(23, 13)?;
            NetworkSpec::uniform("SF", g, 8)
        }
        "MF" => {
            let mut net = megafly(MegaflyParams {
                rho: 8,
                a: 16,
                p: 8,
            });
            net.name = "MF".into();
            net
        }
        "FT" => {
            let mut net = fattree(18, 3);
            net.name = "FT".into();
            net
        }
        other => return Err(TopoError::UnknownKey(other.to_string())),
    };
    Ok(net)
}

/// Build one Table 3 *PolarStar* network by key, keeping the factor
/// structure (the `NetworkSpec` inside matches [`table3_network`]).
/// The analytic routing backend needs the factors, not just the product
/// graph, so only the `PS-*` keys qualify.
pub fn table3_polarstar(key: &str) -> Result<PolarStarNetwork, TopoError> {
    let cfg = match key {
        "PS-IQ" => best_config(15)
            .ok_or_else(|| TopoError::infeasible("PolarStar", "no radix-15 config"))?,
        "PS-Pal" => best_config_with(15, false)
            .ok_or_else(|| TopoError::infeasible("PolarStar", "no radix-15 Paley config"))?,
        other => {
            return Err(TopoError::infeasible(
                "AnalyticOracle",
                format!("{other} is not a PolarStar key"),
            ))
        }
    };
    let mut net = PolarStarNetwork::build(cfg, 5)?;
    net.spec.name = key.into();
    Ok(net)
}

/// Edge-disjoint spanning trees for a Table 3 network — the substrate
/// for the striped multi-tree collectives. The star-product keys
/// (`PS-*`, `BF`) use the factor-aware composition of
/// [`polarstar_topo::edst::star_product_edst`], which packs more trees
/// than peeling the product graph blind; everything else gets the
/// generic greedy packing. `spec` must be the network
/// [`table3_network`] builds for `key`.
pub fn table3_edst(key: &str, spec: &NetworkSpec) -> Vec<Vec<(u32, u32)>> {
    match key {
        "PS-IQ" | "PS-Pal" => table3_polarstar(key)
            .map(|net| net.edst_trees())
            .expect("PS factors"),
        "BF" => {
            let (structure, sn) = bundlefly_factors(BundleflyParams {
                q: 7,
                dprime: 4,
                p: 5,
            })
            .expect("BF factors");
            polarstar_topo::edst::star_product_edst(&spec.graph, &structure, &sn)
        }
        _ => polarstar_graph::edst::greedy_edst(&spec.graph),
    }
}

/// Every value passed as `<name> <value>` in `args`, in order. A flag
/// that ends the command line or is directly followed by another
/// `--flag` forgot its value: that is an error, not an absent flag.
fn scan_flag(args: &[String], name: &str) -> Result<Vec<String>, String> {
    let mut values = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == name {
            match args.next() {
                Some(v) if !v.starts_with("--") => values.push(v.clone()),
                _ => return Err(format!("{name} expects a value: {name} <value>")),
            }
        }
    }
    Ok(values)
}

/// The value-taking flags of the bench binaries.
const VALUE_FLAGS: [&str; 6] = [
    "--oracle",
    "--only",
    "--engine-threads",
    "--metrics-dir",
    "--bench-json",
    "--epochs",
];

/// Every value of the command-line flag `name` (`--only` is repeatable;
/// the single-valued flags read the first). Any of [`VALUE_FLAGS`] given
/// without its value prints a usage line and exits non-zero — on the
/// first flag a binary reads, before the sweep runs — instead of being
/// silently ignored.
pub fn flag_values(name: &str) -> Vec<String> {
    debug_assert!(VALUE_FLAGS.contains(&name));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scan = VALUE_FLAGS
        .iter()
        .try_for_each(|flag| scan_flag(&args, flag).map(drop))
        .and_then(|()| scan_flag(&args, name));
    scan.unwrap_or_else(|usage| {
        eprintln!("error: {usage}");
        std::process::exit(2)
    })
}

/// Serving backend from `--oracle <table|analytic>` (default `table`):
/// the CSR route table or the table-free §9.2 analytic router.
pub fn oracle_mode() -> String {
    let mode = flag_values("--oracle")
        .into_iter()
        .next()
        .unwrap_or_else(|| "table".into());
    assert!(
        mode == "table" || mode == "analytic",
        "--oracle expects table|analytic, got {mode:?}"
    );
    mode
}

/// Whether `--quick` was passed (smoke-test mode for the heavy figures).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The topology keys a binary runs: `defaults` unless `--only <substr>`
/// (repeatable) was given, then every key of `universe` containing one
/// of the substrings, in `universe` order.
pub fn selected_keys(universe: &[&'static str], defaults: &[&'static str]) -> Vec<&'static str> {
    let only = flag_values("--only");
    if only.is_empty() {
        return defaults.to_vec();
    }
    let matches = |k: &&str| only.iter().any(|o| k.contains(o.as_str()));
    universe.iter().copied().filter(matches).collect()
}

/// Engine worker threads from `--engine-threads <n>` for the sharded
/// cycle engine (`SimConfig::threads`). Results are bit-identical for
/// every value; this trades sweep-level for run-level parallelism (see
/// EXPERIMENTS.md). Absent or `<= 1` means the sequential engine.
pub fn engine_threads() -> Option<usize> {
    flag_values("--engine-threads").first().map(|v| {
        v.parse::<usize>()
            .unwrap_or_else(|_| panic!("--engine-threads expects a number, got {v:?}"))
    })
}

/// Directory from `--metrics-dir <path>`: when present, binaries write a
/// [`RunManifest`] JSON per topology next to their CSV output.
pub fn metrics_dir() -> Option<std::path::PathBuf> {
    flag_values("--metrics-dir").first().map(Into::into)
}

/// Write a sweep binary's `{group,bench,value,unit}` JSON lines to the
/// file named by `--bench-json <path>`; a no-op without the flag. The
/// error names the path.
pub fn write_bench_json<S: AsRef<str>>(rows: impl IntoIterator<Item = S>) -> Result<(), String> {
    let Some(path) = flag_values("--bench-json").into_iter().next() else {
        return Ok(());
    };
    let text: String = rows
        .into_iter()
        .map(|r| format!("{}\n", r.as_ref()))
        .collect();
    std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_topo::network::RoutingPolicy;

    #[test]
    fn table3_shapes() {
        // Orders per Table 3 (PS-Pal uses the formula-consistent 949; see
        // EXPERIMENTS.md).
        let expect: &[(&str, usize, usize)] = &[
            ("PS-IQ", 1064, 5320),
            ("PS-Pal", 949, 4745),
            ("BF", 882, 4410),
            ("HX", 648, 5184),
            ("DF", 876, 5256),
            ("SF", 1092, 8736),
            ("MF", 1040, 4160),
            ("FT", 972, 5832),
        ];
        for &(key, routers, endpoints) in expect {
            let net = table3_network(key).unwrap();
            assert_eq!(net.routers(), routers, "{key} routers");
            assert_eq!(net.total_endpoints(), endpoints, "{key} endpoints");
            net.validate().unwrap();
        }
    }

    #[test]
    fn registry_round_trip() {
        // Every key builds, validates, carries the right routing policy,
        // and emits a well-formed manifest.
        for key in TABLE3_KEYS {
            let net = table3_network(key).expect(key);
            net.validate().expect(key);
            let want = match key {
                "DF" | "MF" => RoutingPolicy::HierarchicalMinimal,
                _ => RoutingPolicy::FlatMinimal,
            };
            assert_eq!(net.routing_policy(), want, "{key} routing policy");
            let m = RunManifest::for_network(key, &net);
            let json = m.to_json();
            assert!(
                json.starts_with('{') && json.ends_with('}'),
                "{key} manifest"
            );
            assert!(json.contains(&format!("\"key\": \"{key}\"")));
            assert_eq!(
                json.bytes().filter(|&b| b == b'{').count(),
                json.bytes().filter(|&b| b == b'}').count(),
                "{key} manifest braces balance"
            );
        }
    }

    #[test]
    fn flag_scanner_rejects_a_forgotten_value() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let line = args("--quick --only PS-IQ --metrics-dir out/ --only DF");
        assert_eq!(scan_flag(&line, "--only").unwrap(), ["PS-IQ", "DF"]);
        assert_eq!(scan_flag(&line, "--metrics-dir").unwrap(), ["out/"]);
        assert!(scan_flag(&line, "--bench-json").unwrap().is_empty());
        // Last argument, or followed by another flag: a usage error.
        assert!(scan_flag(&args("--quick --metrics-dir"), "--metrics-dir").is_err());
        assert!(scan_flag(&args("--metrics-dir --quick"), "--metrics-dir").is_err());
        // Another flag is never taken as the value.
        assert_eq!(
            scan_flag(&args("--only --only"), "--only"),
            Err("--only expects a value: --only <value>".into())
        );
    }

    #[test]
    fn unknown_key_is_an_error() {
        assert!(matches!(
            table3_network("nope"),
            Err(TopoError::UnknownKey(k)) if k == "nope"
        ));
    }
}
