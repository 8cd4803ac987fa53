//! Congestion-negotiated routing vs MIN/UGAL on adversarial and
//! permutation traffic (PS-IQ, SF, DF). Shared between the
//! `negotiate_sweep` binary (a printer) and the tests that gate its
//! results.
//!
//! For each (topology, pattern) cell:
//!
//! 1. [`negotiation`] builds the class-batched [`FlowPlan`] and
//!    negotiates a per-pair route assignment
//!    ([`NegotiatedRoutes::negotiate`] — PathFinder rip-up and re-route
//!    until no link is over capacity), and records the flow-level max
//!    link load of the MIN single-path baseline vs the negotiated
//!    assignment (same units: weighted demand per directed link at unit
//!    offered load), the reduction, the convergence-iterations curve,
//!    and both fluid saturation onsets;
//! 2. [`sweep_cell`] sweeps the cycle engine over ascending loads (rows
//!    through the first unstable point, fig09/fig10 harness
//!    conventions) under MIN (multipath), UGAL and NEG
//!    ([`RoutingKind::Negotiated`] following the negotiated paths).
//!
//! Every number is deterministic: the negotiation is a pure function of
//! `(seed, iteration)` and the engine is bit-identical at any thread
//! count, so the rows are identical across `RAYON_NUM_THREADS` and
//! `--engine-threads` settings (`tests/negotiate_determinism.rs`).

use crate::manifest::{file_stem, RunManifest};
use crate::sweep_driver::csv_row;
use crate::table3_network;
use polarstar_netsim::engine::{SimConfig, Simulation};
use polarstar_netsim::flow::{FlowPlan, FlowRouting, TrafficComponent};
use polarstar_netsim::monitor::MetricsMonitor;
use polarstar_netsim::negotiate::{NegotiateConfig, NegotiatedRoutes};
use polarstar_netsim::routing::{RouteTable, RoutingKind};
use polarstar_netsim::stats::{highest_stable_offered, sweep};
use polarstar_netsim::traffic::{engine_resolve_seed, Pattern};
use polarstar_topo::network::NetworkSpec;

/// The topologies the sweep runs by default.
pub const KEYS: [&str; 3] = ["PS-IQ", "SF", "DF"];

/// Convergence-curve points recorded in a manifest.
const CURVE_POINTS: usize = 40;

/// Flow-level summary of one negotiation: link loads are weighted
/// demand per directed link at unit offered load.
#[derive(Clone, Debug, PartialEq)]
pub struct Negotiation {
    /// MIN single-path baseline (every pair on its deterministic first
    /// minimal path — exactly the negotiation's initial state).
    pub max_link_load_min: f64,
    pub max_link_load_negotiated: f64,
    /// `1 − negotiated / min`.
    pub reduction_vs_min: f64,
    pub max_link_load_ecmp: f64,
    pub converged: bool,
    pub iterations: u32,
    pub overused_links: usize,
    /// The link capacity the negotiation settled on.
    pub capacity: f64,
    pub sat_flow_min: f64,
    pub sat_flow_ecmp: f64,
    pub sat_flow_negotiated: f64,
    /// Max link load after each iteration.
    pub curve: Vec<f64>,
}

impl Negotiation {
    /// The manifest scalars, in record order.
    fn extras(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = [
            ("max_link_load_min", self.max_link_load_min),
            ("max_link_load_negotiated", self.max_link_load_negotiated),
            ("reduction_vs_min", self.reduction_vs_min),
            ("max_link_load_ecmp", self.max_link_load_ecmp),
            ("converged", if self.converged { 1.0 } else { 0.0 }),
            ("iterations", self.iterations as f64),
            ("overused_links", self.overused_links as f64),
            ("capacity", self.capacity),
            ("sat_flow_min", self.sat_flow_min),
            ("sat_flow_ecmp", self.sat_flow_ecmp),
            ("sat_flow_negotiated", self.sat_flow_negotiated),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let curve = self.curve.iter().take(CURVE_POINTS).enumerate();
        out.extend(curve.map(|(i, &ml)| (format!("curve_iter{i}"), ml)));
        out
    }
}

/// Negotiate `pattern`'s traffic matrix (resolved with the engine's
/// seed for `seed`) on `spec` and summarize it against the MIN
/// single-path and ECMP baselines.
pub fn negotiation(
    spec: &NetworkSpec,
    table: &RouteTable,
    pattern: &Pattern,
    seed: u64,
) -> (Negotiation, NegotiatedRoutes) {
    let comps = [TrafficComponent::new(
        pattern.clone(),
        engine_resolve_seed(seed),
    )];
    let plan = FlowPlan::build(spec, table, &comps, FlowRouting::EcmpSplit);
    let min_net = FlowPlan::build(spec, table, &comps, FlowRouting::SinglePath).network();
    let mll_min = min_net.max_net_unit_load();
    let ecmp_net = plan.network();
    let ncfg = NegotiateConfig {
        seed,
        ..NegotiateConfig::default()
    };
    let neg = NegotiatedRoutes::negotiate(spec, table, &plan, &ncfg);
    let neg_net = FlowPlan::build(spec, &neg, &comps, FlowRouting::SinglePath).network();
    let mll_neg = neg.max_link_load();
    let summary = Negotiation {
        max_link_load_min: mll_min,
        max_link_load_negotiated: mll_neg,
        reduction_vs_min: if mll_min > 0.0 {
            1.0 - mll_neg / mll_min
        } else {
            0.0
        },
        max_link_load_ecmp: ecmp_net.max_net_unit_load(),
        converged: neg.converged(),
        iterations: neg.iterations(),
        overused_links: neg.overused_links(),
        capacity: neg.capacity(),
        sat_flow_min: min_net.saturation_load(),
        sat_flow_ecmp: ecmp_net.saturation_load(),
        sat_flow_negotiated: neg_net.saturation_load(),
        curve: neg.curve().to_vec(),
    };
    (summary, neg)
}

/// One (topology, pattern) cell's output.
pub struct Cell {
    pub negotiation: Negotiation,
    /// Engine sweep rows in [`crate::sweep_driver::CSV_HEADER`] form,
    /// series MIN, UGAL, NEG.
    pub rows: Vec<String>,
    /// The negotiation scalars plus `sat_engine_<routing>` per series
    /// (and the monitored NEG point when asked for).
    pub manifest: RunManifest,
    /// File stem for the manifest.
    pub stem: String,
}

/// Negotiate one cell and sweep the engine over `loads`; with
/// `want_metrics`, also run one monitored NEG point at load 0.1 for the
/// manifest.
pub fn sweep_cell(
    key: &str,
    pattern: &Pattern,
    loads: &[f64],
    cfg: &SimConfig,
    quick: bool,
    want_metrics: bool,
) -> Result<Cell, String> {
    let spec = table3_network(key).map_err(|e| format!("{key}: {e}"))?;
    let table = RouteTable::for_spec(&spec);
    let pat = pattern.label();
    let (negotiation, neg) = negotiation(&spec, &table, pattern, cfg.seed);

    let mut manifest = RunManifest::for_network(key, &spec);
    manifest.extra = negotiation.extras();

    // Engine sweep, series in CSV order. The fig09/fig10 convention:
    // ascending loads, rows through the first unstable point.
    let neg_sim = Simulation::negotiated(&spec, &table, &neg, pattern);
    let mut rows = Vec::new();
    for sim in [
        Simulation::new(&spec, &table, RoutingKind::MinMulti, pattern),
        Simulation::new(&spec, &table, RoutingKind::ugal4(), pattern),
        neg_sim,
    ] {
        let series = sweep(&sim, loads, cfg);
        let shown = series.through_first_unstable();
        rows.extend(shown.iter().map(|r| csv_row(pattern, key, sim.kind, r)));
        manifest.push_extra(
            format!("sat_engine_{}", sim.kind.label()),
            highest_stable_offered(shown),
        );
    }

    if want_metrics {
        let mut mon = MetricsMonitor::new(if quick { 64 } else { 256 });
        neg_sim.run_monitored(0.1, cfg, &mut mon);
        manifest = manifest.with_sim("NEG", pat, 0.1, cfg, mon.report());
    }

    Ok(Cell {
        negotiation,
        rows,
        manifest,
        stem: file_stem(&format!("negotiate_{key}_{pat}")),
    })
}
