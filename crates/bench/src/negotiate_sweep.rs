//! Congestion-negotiated routing as a flow-level study on adversarial
//! and permutation traffic (PS-IQ, SF, DF): how far below the MIN
//! single-path load an offline single-path assignment can push the
//! hottest link. Shared between the `negotiate_sweep` binary (a
//! printer) and the tests that gate its results.
//!
//! For each (topology, pattern) cell, [`negotiation`] builds the
//! class-batched [`FlowPlan`], negotiates a per-pair route assignment
//! ([`NegotiatedRoutes::negotiate`] — PathFinder rip-up and re-route
//! until no link is over capacity) and records the max link load of the
//! MIN single-path baseline, of ECMP and of the negotiated assignment
//! (same units: weighted demand per directed link at unit offered
//! load), the reduction, the three fluid saturation onsets and the
//! convergence curve. No cycle is simulated: the engine does not follow
//! negotiated routes (EXPERIMENTS.md keeps the record of why).
//!
//! Every number is deterministic: the negotiation is a pure function of
//! `(seed, iteration)`, so the rows are identical at any
//! `RAYON_NUM_THREADS` (`tests/negotiate_determinism.rs`).

use crate::manifest::{file_stem, RunManifest};
use crate::table3_network;
use polarstar_netsim::flow::{FlowPlan, FlowRouting, TrafficComponent};
use polarstar_netsim::negotiate::NegotiatedRoutes;
use polarstar_netsim::routing::RouteTable;
use polarstar_netsim::traffic::{engine_resolve_seed, Pattern};
use polarstar_topo::network::NetworkSpec;

/// The topologies the sweep runs by default.
pub const KEYS: [&str; 3] = ["PS-IQ", "SF", "DF"];

/// Seed of the traffic matrix and of the negotiation's visit order.
const SEED: u64 = 99;

/// Convergence-curve points recorded in a manifest.
const CURVE_POINTS: usize = 40;

/// The sweep's CSV header; [`Cell::row`] prints one row of it.
pub const CSV_HEADER: &str = "pattern,topology,max_link_load_min,max_link_load_ecmp,\
max_link_load_negotiated,reduction_vs_min,sat_flow_min,sat_flow_ecmp,sat_flow_negotiated,\
iterations,converged";

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
    let neg = NegotiatedRoutes::negotiate(spec, table, &plan, seed);
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
    /// The [`CSV_HEADER`] row.
    pub row: String,
    /// The network plus the negotiation scalars and convergence curve.
    pub manifest: RunManifest,
    /// File stem for the manifest.
    pub stem: String,
}

/// Negotiate one cell.
pub fn sweep_cell(key: &str, pattern: &Pattern) -> Result<Cell, String> {
    let spec = table3_network(key).map_err(|e| format!("{key}: {e}"))?;
    let table = RouteTable::for_spec(&spec);
    let pat = pattern.label();
    let (n, _) = negotiation(&spec, &table, pattern, SEED);
    let mut manifest = RunManifest::for_network(key, &spec);
    manifest.pattern = Some(pat.to_string());
    manifest.extra = n.extras();
    Ok(Cell {
        row: format!(
            "{pat},{key},{:.3},{:.3},{:.3},{:.4},{:.4},{:.4},{:.4},{},{}",
            n.max_link_load_min,
            n.max_link_load_ecmp,
            n.max_link_load_negotiated,
            n.reduction_vs_min,
            n.sat_flow_min,
            n.sat_flow_ecmp,
            n.sat_flow_negotiated,
            n.iterations,
            n.converged
        ),
        manifest,
        stem: file_stem(&format!("negotiate_{key}_{pat}")),
    })
}
