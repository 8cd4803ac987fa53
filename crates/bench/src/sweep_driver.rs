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
use polarstar_topo::oracle::PathOracle;
use rayon::prelude::*;
use std::time::Instant;

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

/// Latency/throughput summary of one oracle query-storm measurement
/// ([`measure_query_latency`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryLatencyStats {
    /// Queries answered.
    pub queries: u64,
    /// Wall time of the whole storm (batch-level timing, so the
    /// throughput number carries no per-query timer overhead).
    pub elapsed_ns: u64,
    /// Median per-query latency (upper bound of its power-of-two
    /// nanosecond bucket).
    pub p50_ns: u64,
    /// 99th-percentile per-query latency (same bucketing).
    pub p99_ns: u64,
    /// Snapshots taken (one per batch) — under an [`EpochSwapper`] this
    /// is how many times the storm observed the current epoch pointer.
    ///
    /// [`EpochSwapper`]: polarstar_routed::EpochSwapper
    pub snapshots: u64,
}

impl QueryLatencyStats {
    /// Queries per second over the whole storm.
    pub fn qps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.queries as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

/// Drive a next-hop query storm against *any* [`PathOracle`] and
/// measure throughput plus per-query latency quantiles.
///
/// Generic over the oracle *provider*: `snapshot` is called once per
/// batch and hands back anything that derefs to a [`PathOracle`] — a
/// `&RouteTable` for a static table, an `Arc<Oracle>` cloned from an
/// `EpochSwapper` for epoch-churn serving — so the same driver measures
/// both the pristine and the swap-under-load paths.
///
/// Per-query latencies land in power-of-two nanosecond buckets (the
/// quantiles report a bucket's upper bound); throughput comes from
/// batch-level wall time, so the reported qps is not inflated by the
/// per-query `Instant` reads.
pub fn measure_query_latency<O, S, P>(
    mut snapshot: P,
    pairs: &[(u32, u32)],
    batch_size: usize,
) -> QueryLatencyStats
where
    O: PathOracle + ?Sized,
    S: std::ops::Deref<Target = O>,
    P: FnMut() -> S,
{
    assert!(batch_size > 0, "batch_size must be positive");
    let mut buckets = [0u64; 64];
    let mut stats = QueryLatencyStats::default();
    let storm = Instant::now();
    for batch in pairs.chunks(batch_size) {
        let oracle = snapshot();
        stats.snapshots += 1;
        for &(src, dst) in batch {
            let t0 = Instant::now();
            let hop = oracle.next_hop(src, dst);
            let dt = t0.elapsed().as_nanos() as u64;
            std::hint::black_box(hop).ok();
            buckets[(64 - dt.leading_zeros() as usize).min(63)] += 1;
        }
        stats.queries += batch.len() as u64;
    }
    stats.elapsed_ns = storm.elapsed().as_nanos() as u64;
    stats.p50_ns = bucket_quantile(&buckets, stats.queries, 0.50);
    stats.p99_ns = bucket_quantile(&buckets, stats.queries, 0.99);
    stats
}

/// Upper bound of the first bucket whose cumulative count reaches the
/// `q` quantile (buckets are `[2^(i-1), 2^i)` nanoseconds).
fn bucket_quantile(buckets: &[u64; 64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = (q * total as f64).ceil() as u64;
    let mut seen = 0;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= target {
            return 1u64 << i;
        }
    }
    u64::MAX
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
