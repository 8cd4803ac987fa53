//! Shared sweep/CSV/manifest driver for the simulation figure binaries.
//!
//! `fig09_synthetic` and `fig10_adversarial` share the whole pipeline —
//! a grid of (topology, pattern, routing) series swept over ascending
//! loads with early stop at the first unstable point, printed as the
//! standard CSV, plus an optional monitored point per topology written
//! as a [`RunManifest`] — and differ only in the grid and the chosen
//! monitored point. This module owns that pipeline.
//!
//! Parallelism layers compose here: rayon fans out across series, and
//! `cfg.threads` (the `--engine-threads` flag) shards each individual
//! run. See EXPERIMENTS.md for when to prefer which.

use crate::{table3_network, RunManifest};
use polarstar_netsim::engine::{simulate, SimConfig, SimResult, Simulation};
use polarstar_netsim::monitor::MetricsMonitor;
use polarstar_netsim::routing::{RouteTable, RoutingKind};
use polarstar_netsim::traffic::Pattern;
use rayon::prelude::*;

/// One CSV series: a (topology, pattern, routing) triple.
pub struct Series {
    /// Table 3 topology key.
    pub key: String,
    pub pattern: Pattern,
    pub kind: RoutingKind,
}

/// The full cross product of keys × patterns × routings, in that
/// nesting order (matches the historical CSV row grouping).
pub fn series_grid(keys: &[&str], patterns: &[Pattern], routings: &[RoutingKind]) -> Vec<Series> {
    let mut series = Vec::with_capacity(keys.len() * patterns.len() * routings.len());
    for &key in keys {
        for pattern in patterns {
            for &kind in routings {
                series.push(Series {
                    key: key.to_string(),
                    pattern: pattern.clone(),
                    kind,
                });
            }
        }
    }
    series
}

/// The CSV header shared by the simulation figures.
pub const CSV_HEADER: &str = "pattern,topology,routing,offered,avg_latency,accepted,stable";

/// One [`CSV_HEADER`] row.
pub fn csv_row(pattern: &Pattern, key: &str, kind: RoutingKind, r: &SimResult) -> String {
    format!(
        "{},{key},{},{:.3},{:.2},{:.4},{}",
        pattern.label(),
        kind.label(),
        r.offered,
        r.avg_latency,
        r.accepted,
        r.stable
    )
}

/// Sweep every series over `loads` (ascending; each series stops after
/// its first unstable point, as the paper plots up to the last stable
/// rate) and print [`CSV_HEADER`] plus one row per simulated point.
/// Series run in parallel via rayon; rows print in series order.
pub fn run_sweep_csv(series: &[Series], loads: &[f64], cfg: &SimConfig) {
    println!("{CSV_HEADER}");
    let rows: Vec<String> = series
        .par_iter()
        .flat_map(|s| {
            let net = table3_network(&s.key).expect("Table 3 config");
            let table = RouteTable::for_spec(&net);
            let mut out = Vec::new();
            for &load in loads {
                let r = simulate(&net, &table, s.kind, &s.pattern, load, cfg);
                out.push(csv_row(&s.pattern, &s.key, s.kind, &r));
                if !r.stable {
                    break;
                }
            }
            out
        })
        .collect();
    for row in rows {
        println!("{row}");
    }
}

/// The single monitored point a figure binary runs per topology when
/// `--metrics-dir` is given.
pub struct MonitoredPoint {
    pub kind: RoutingKind,
    pub pattern: Pattern,
    pub load: f64,
    /// Routing label recorded in the manifest ("MIN"/"UGAL").
    pub routing_label: &'static str,
}

/// Run `point` once per topology with a [`MetricsMonitor`] and write a
/// [`RunManifest`] JSON per key into `dir`.
pub fn write_manifests(
    keys: &[&str],
    point: &MonitoredPoint,
    cfg: &SimConfig,
    sample_every: u64,
    dir: &std::path::Path,
) {
    keys.par_iter().for_each(|&key| {
        let net = table3_network(key).expect("Table 3 config");
        let table = RouteTable::for_spec(&net);
        let mut mon = MetricsMonitor::new(sample_every);
        Simulation::new(&net, &table, point.kind, &point.pattern)
            .run_monitored(point.load, cfg, &mut mon);
        let manifest = RunManifest::for_network(key, &net).with_sim(
            point.routing_label,
            point.pattern.label(),
            point.load,
            cfg,
            mon.report(),
        );
        let path = manifest
            .write(dir, &crate::manifest::file_stem(key))
            .expect("write manifest");
        eprintln!("wrote {}", path.display());
    });
}
