//! Shared harness for the per-figure benchmark binaries.
//!
//! [`table3_network`] constructs the exact simulated configurations of
//! the paper's Table 3 (with the documented substitutions for PS-Pal's
//! order and Spectralfly's LPS realization); the binaries in `src/bin/`
//! regenerate each table and figure as CSV on stdout. [`manifest`]
//! captures run provenance (config, topology, seed, metrics) as JSON.

pub mod edst_sweep;
pub mod manifest;
pub mod motif_sweep;
pub mod negotiate_sweep;
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
use polarstar_topo::star::StarProduct;

pub use manifest::RunManifest;

/// Table 3 topology keys in paper order.
pub const TABLE3_KEYS: [&str; 8] = ["PS-IQ", "PS-Pal", "BF", "HX", "DF", "SF", "MF", "FT"];

/// Table 3's Bundlefly, as built and as packed into spanning trees.
const BF_PARAMS: BundleflyParams = BundleflyParams {
    q: 7,
    dprime: 4,
    p: 5,
};

/// Build one Table 3 network by key.
pub fn table3_network(key: &str) -> Result<NetworkSpec, TopoError> {
    let net = match key {
        "PS-IQ" | "PS-Pal" => table3_polarstar(key)?.spec,
        "BF" => {
            let mut net = bundlefly(BF_PARAMS)?;
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
/// structure (the `NetworkSpec` inside is what [`table3_network`]
/// returns).
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
/// [`StarProduct::edst`], which packs more trees
/// than peeling the product graph blind; everything else gets the
/// generic greedy packing. `spec` must be the network
/// [`table3_network`] builds for `key`.
pub fn table3_edst(key: &str, spec: &NetworkSpec) -> Vec<Vec<(u32, u32)>> {
    match key {
        "PS-IQ" | "PS-Pal" => table3_polarstar(key)
            .map(|net| net.edst_trees())
            .expect("PS factors"),
        "BF" => {
            let (structure, sn) = bundlefly_factors(BF_PARAMS).expect("BF factors");
            StarProduct::new(&structure, &[], &sn).edst(&spec.graph)
        }
        _ => polarstar_graph::edst::greedy_edst(&spec.graph),
    }
}

/// A bench binary's command line, checked against the flags the binary
/// declares: an undeclared `--flag`, a stray argument, a value flag
/// without its value and an unparsable value are all usage errors
/// (exit 2) raised by [`Cli::from_env`] — the first line of `main`, so
/// a typo never runs the wrong experiment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cli {
    switches: Vec<String>,
    only: Vec<String>,
    engine_threads: Option<usize>,
    metrics_dir: Option<std::path::PathBuf>,
}

impl Cli {
    /// Parse the process arguments against `declared`, the flags this
    /// binary reads (`--only`, `--engine-threads` and `--metrics-dir`
    /// take a value, any other name is a switch); prints the error and
    /// exits 2 on any mistake.
    pub fn from_env(declared: &[&str]) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse(&args, declared).unwrap_or_else(|e| usage_exit(&e))
    }

    fn parse(args: &[String], declared: &[&str]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !declared.contains(&arg.as_str()) {
                return Err(format!(
                    "unexpected argument {arg:?}; this binary takes: {}",
                    declared.join(" ")
                ));
            }
            // Another flag is never taken as the value.
            let mut value = || match args.next() {
                Some(v) if !v.starts_with("--") => Ok(v),
                _ => Err(format!("{arg} expects a value: {arg} <value>")),
            };
            match arg.as_str() {
                "--only" => cli.only.push(value()?.clone()),
                "--metrics-dir" => cli.metrics_dir = Some(value()?.into()),
                "--engine-threads" => {
                    let v = value()?;
                    let bad = |_| format!("--engine-threads expects a number, got {v:?}");
                    cli.engine_threads = Some(v.parse().map_err(bad)?);
                }
                _ => cli.switches.push(arg.clone()),
            }
        }
        Ok(cli)
    }

    /// Whether the valueless flag `switch` (`--quick`, `--full`) was
    /// passed.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// The topology keys a binary runs: `defaults` unless `--only
    /// <substr>` (repeatable) was given, then every key of `universe`
    /// containing one of the substrings, in `universe` order. A filter
    /// that matches no key is a usage error (exit 2) naming the
    /// universe.
    pub fn selected_keys(
        &self,
        universe: &[&'static str],
        defaults: &[&'static str],
    ) -> Vec<&'static str> {
        self.select(universe, defaults)
            .unwrap_or_else(|e| usage_exit(&e))
    }

    fn select(
        &self,
        universe: &[&'static str],
        defaults: &[&'static str],
    ) -> Result<Vec<&'static str>, String> {
        if self.only.is_empty() {
            return Ok(defaults.to_vec());
        }
        if let Some(o) = self
            .only
            .iter()
            .find(|o| !universe.iter().any(|k| k.contains(o.as_str())))
        {
            return Err(format!(
                "--only {o:?} matches no topology; keys: {}",
                universe.join(" ")
            ));
        }
        let matches = |k: &&str| self.only.iter().any(|o| k.contains(o.as_str()));
        Ok(universe.iter().copied().filter(matches).collect())
    }

    /// Engine worker threads from `--engine-threads <n>` for the sharded
    /// cycle engine (`SimConfig::threads`). Results are bit-identical for
    /// every value; this trades sweep-level for run-level parallelism (see
    /// EXPERIMENTS.md). Absent or `<= 1` means the sequential engine.
    pub fn engine_threads(&self) -> Option<usize> {
        self.engine_threads
    }

    /// Directory from `--metrics-dir <path>`: when present, binaries write a
    /// [`RunManifest`] JSON per topology next to their CSV output.
    pub fn metrics_dir(&self) -> Option<&std::path::Path> {
        self.metrics_dir.as_deref()
    }
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
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
        let sweep = ["--quick", "--only", "--engine-threads", "--metrics-dir"];
        let parse = |s: &str| Cli::parse(&args(s), &sweep);
        let cli = parse("--quick --only PS-IQ --metrics-dir out/ --only DF").unwrap();
        assert!(cli.has("--quick") && !cli.has("--full"));
        assert_eq!(cli.only, ["PS-IQ", "DF"]);
        assert_eq!(cli.metrics_dir(), Some(std::path::Path::new("out/")));
        assert_eq!(cli.engine_threads(), None);
        assert_eq!(
            cli.select(&TABLE3_KEYS, &["HX"]).unwrap(),
            ["PS-IQ", "DF"],
            "universe order"
        );
        assert_eq!(
            Cli::default().select(&TABLE3_KEYS, &["HX"]).unwrap(),
            ["HX"]
        );
        // Last argument, or followed by another flag: a usage error.
        assert!(parse("--quick --metrics-dir").is_err());
        assert!(parse("--metrics-dir --quick").is_err());
        // Another flag is never taken as the value.
        assert_eq!(
            parse("--only --only"),
            Err("--only expects a value: --only <value>".into())
        );
        // A flag the binary does not declare — a typo, or another
        // binary's flag — never falls through to the full sweep.
        let err = parse("--quik").unwrap_err();
        assert!(
            err.contains("\"--quik\"") && err.contains("--quick --only"),
            "{err}"
        );
        assert!(Cli::parse(&args("--engine-threads 4"), &["--quick"]).is_err());
        assert!(parse("--full").is_err());
        assert!(parse("PS-IQ").is_err(), "stray positional");
        // A filter matching nothing lists what it could have matched.
        let err = parse("--only PSIQ --only DF")
            .unwrap()
            .select(&TABLE3_KEYS, &TABLE3_KEYS)
            .unwrap_err();
        assert!(
            err.contains("\"PSIQ\"") && err.contains("PS-IQ PS-Pal BF"),
            "{err}"
        );
        // An unparsable value is the same usage error, not a panic.
        assert_eq!(
            parse("--engine-threads 4").unwrap().engine_threads(),
            Some(4)
        );
        assert_eq!(
            parse("--engine-threads four"),
            Err("--engine-threads expects a number, got \"four\"".into())
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
