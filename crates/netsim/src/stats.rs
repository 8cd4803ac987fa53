//! Load sweeps and saturation detection — how Figure 9/10 series are
//! produced from individual simulation points.
//!
//! Sweeps fan out across load points with rayon; each point additionally
//! honors `SimConfig::threads`, so engine-level sharding nests inside
//! sweep-level parallelism. Prefer rayon alone for many small runs and
//! `threads` for few large ones (EXPERIMENTS.md has the full guidance) —
//! results are bit-identical either way.

use crate::engine::{SimConfig, SimResult, Simulation};
use crate::flow::{FlowNetwork, FlowRouting};
use crate::routing::{RouteTable, RoutingKind};
use crate::traffic::{engine_resolve_seed, Pattern};
use polarstar_topo::network::NetworkSpec;
use rayon::prelude::*;

/// The repo's single saturation-onset contract — "the highest offered
/// load the network carries in full" — with one estimator per model:
///
/// * [`fluid_onset`] answers it exactly from the flow model's per-link
///   unit loads: the most-loaded link reaches capacity at offered load
///   `1 / max_unit_load` (capped at 1.0 — injection links saturate at
///   unit demand by construction under unit weights).
/// * [`highest_stable_offered`] answers it empirically from cycle-engine
///   sweep points: the largest offered load whose run stayed stable.
///
/// [`cross_validate`] checks the two models against each other (at the
/// θ=0.97 throughput-saturation definition); keeping both behind these
/// helpers is what stops the onset definition from drifting between the
/// models.
pub fn fluid_onset(max_unit_load: f64) -> f64 {
    if max_unit_load <= 1.0 {
        1.0
    } else {
        1.0 / max_unit_load
    }
}

/// Empirical half of the saturation-onset contract (see
/// [`fluid_onset`]): the highest offered load among `points` whose run
/// stayed stable.
pub fn highest_stable_offered<'a, I: IntoIterator<Item = &'a SimResult>>(points: I) -> f64 {
    points
        .into_iter()
        .filter(|p| p.stable)
        .map(|p| p.offered)
        .fold(0.0, f64::max)
}

/// One figure series: latency and throughput across offered loads.
#[derive(Clone, Debug)]
pub struct LoadSweep {
    /// Topology label.
    pub name: String,
    /// Routing label ("MIN"/"UGAL").
    pub routing: &'static str,
    /// Results in ascending offered load.
    pub points: Vec<SimResult>,
}

impl LoadSweep {
    /// Highest offered load whose run stayed stable (the paper plots
    /// latency "up to the highest injection rate for which simulation is
    /// stable"). Delegates to [`highest_stable_offered`] — the shared
    /// onset definition.
    pub fn saturation_load(&self) -> f64 {
        highest_stable_offered(&self.points)
    }
}

/// Run a load sweep, parallelized across load points.
pub fn sweep(sim: &Simulation, loads: &[f64], cfg: &SimConfig) -> LoadSweep {
    let points: Vec<SimResult> = loads.par_iter().map(|&l| sim.run(l, cfg)).collect();
    LoadSweep {
        name: sim.spec.name.clone(),
        routing: sim.kind.label(),
        points,
    }
}

/// Binary-search the saturation throughput to `tol` resolution.
pub fn saturation_search(sim: &Simulation, cfg: &SimConfig, tol: f64) -> f64 {
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    // Establish that `hi` is saturated; if not, the answer is 1.0.
    if sim.run(hi, cfg).stable {
        return 1.0;
    }
    while hi - lo > tol {
        let mid = (lo + hi) / 2.0;
        if sim.run(mid, cfg).stable {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Delivered-fraction threshold defining *throughput* saturation on
/// both models (fraction of offered demand actually carried). The two
/// natural notions differ: [`FlowNetwork::saturation_load`] is the
/// first-link-capacity onset (where the cycle engine's latency knee
/// starts), while throughput loss only becomes material once enough
/// flows cross saturated links.
pub const XVAL_THETA: f64 = 0.97;

/// Cycle-vs-flow saturation agreement gate (relative).
pub const XVAL_GATE: f64 = 0.10;

/// Cycle-vs-fluid delivered-fraction agreement gate at the overload
/// probe (observed agreement is ~0.005).
pub const XVAL_DELIVERED_GATE: f64 = 0.02;

/// How far the max-min flow model and the cycle engine agree on one
/// (network, pattern) — [`cross_validate`]'s result.
#[derive(Clone, Debug, PartialEq)]
pub struct CrossValidation {
    /// Flows in the fluid network.
    pub flows: usize,
    /// Flows the route table could not route (0 on a pristine network).
    pub unroutable: u64,
    /// First-link-capacity onset, [`FlowNetwork::saturation_load`].
    pub exact_sat: f64,
    /// Smallest load where the engine's `accepted / offered` drops
    /// below [`XVAL_THETA`].
    pub cycle_sat: f64,
    /// Smallest load where the fluid delivered fraction does.
    pub flow_sat: f64,
    /// `|cycle_sat − flow_sat| / flow_sat`.
    pub rel_err: f64,
    /// `|engine − fluid|` delivered fraction at `min(1.5 · exact_sat, 1)`:
    /// the fluid allocation must predict the engine's measured
    /// throughput loss, not just the crossing point.
    pub delivered_err: f64,
    /// Fluid delivered fraction at half of `exact_sat`, where every
    /// demand must be carried in full.
    pub subsat_delivered: f64,
}

impl CrossValidation {
    /// The agreement gates: everything routed, full delivery below
    /// saturation, [`XVAL_GATE`] and [`XVAL_DELIVERED_GATE`].
    pub fn check(&self) -> Result<(), String> {
        if self.unroutable > 0 {
            return Err(format!("{} unroutable flows", self.unroutable));
        }
        if self.subsat_delivered < 1.0 - 1e-9 {
            return Err(format!(
                "sub-saturation probe not fully delivered ({:.4})",
                self.subsat_delivered
            ));
        }
        if self.rel_err > XVAL_GATE {
            return Err(format!(
                "cycle sat {:.4} vs flow sat {:.4} disagree by {:.1}% (> {:.0}% gate)",
                self.cycle_sat,
                self.flow_sat,
                self.rel_err * 100.0,
                XVAL_GATE * 100.0
            ));
        }
        if self.delivered_err > XVAL_DELIVERED_GATE {
            return Err(format!(
                "delivered fraction at the overload probe disagrees by {:.4} (> {XVAL_DELIVERED_GATE} gate)",
                self.delivered_err
            ));
        }
        Ok(())
    }
}

/// Smallest load in (0, 1] where `delivered(load)` (non-increasing)
/// drops below [`XVAL_THETA`], by bisection to `tol`; 1.0 if it never
/// does.
fn throughput_sat(tol: f64, delivered: impl Fn(f64) -> f64) -> f64 {
    if delivered(1.0) >= XVAL_THETA {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if delivered(mid) >= XVAL_THETA {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Cross-validate the flow model against the cycle engine on the
/// *same* resolved traffic (the flow side reuses the engine's pattern
/// seed via [`engine_resolve_seed`]) under one matched saturation
/// definition, [`XVAL_THETA`]. The cycle side bisects measured
/// `accepted / offered` under [`RoutingKind::MinMulti`] (whose fluid
/// limit is ECMP splitting) to `tol`; the fluid side bisects
/// `solve(load).delivered_fraction` to 1e-3.
pub fn cross_validate(
    spec: &NetworkSpec,
    table: &RouteTable,
    pattern: &Pattern,
    cfg: &SimConfig,
    tol: f64,
) -> CrossValidation {
    let fnet = FlowNetwork::build(
        spec,
        table,
        pattern,
        engine_resolve_seed(cfg.seed),
        FlowRouting::EcmpSplit,
    );
    let sim = Simulation::new(spec, table, RoutingKind::MinMulti, pattern);
    let cycle_delivered = |load: f64| sim.run(load, cfg).accepted / load;
    let exact_sat = fnet.saturation_load();
    let flow_sat = throughput_sat(1e-3, |load| fnet.solve(load).delivered_fraction);
    let cycle_sat = throughput_sat(tol, cycle_delivered);
    let overload = (1.5 * exact_sat).min(1.0);
    CrossValidation {
        flows: fnet.num_flows(),
        unroutable: fnet.unroutable(),
        exact_sat,
        cycle_sat,
        flow_sat,
        rel_err: (cycle_sat - flow_sat).abs() / flow_sat.max(1e-12),
        delivered_err: (cycle_delivered(overload) - fnet.solve(overload).delivered_fraction).abs(),
        subsat_delivered: fnet.solve(0.5 * exact_sat).delivered_fraction,
    }
}

/// Transient analysis of a fault-recovery run, computed from a
/// [`MetricsMonitor::delivery_series`](crate::monitor::MetricsMonitor::delivery_series)
/// (`(bucket_start, delivered, mean_latency)` tuples in time order).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryAnalysis {
    /// Mean delivered latency over the pre-failure baseline window.
    pub baseline_latency: f64,
    /// Worst bucket mean latency at or after the failure.
    pub peak_latency: f64,
    /// Cycles from the recovery event until the first bucket whose mean
    /// latency re-enters `tolerance × baseline` (and which delivered at
    /// least one packet). `None` if the run never settles.
    pub recovery_cycles: Option<u64>,
}

/// Measure the latency transient of a fault burst: baseline over the
/// buckets strictly before `fail_cycle`, peak from `fail_cycle` on, and
/// time-to-recover after `recover_cycle`. Buckets that delivered nothing
/// are skipped (their mean is undefined), so a wedged window delays
/// recovery rather than faking it.
pub fn recovery_analysis(
    series: &[(u64, u64, f64)],
    fail_cycle: u64,
    recover_cycle: u64,
    tolerance: f64,
) -> RecoveryAnalysis {
    let mut base_sum = 0.0;
    let mut base_n = 0u64;
    for &(start, delivered, mean) in series {
        if start < fail_cycle && delivered > 0 {
            base_sum += mean * delivered as f64;
            base_n += delivered;
        }
    }
    let baseline_latency = if base_n == 0 {
        0.0
    } else {
        base_sum / base_n as f64
    };
    let peak_latency = series
        .iter()
        .filter(|&&(start, delivered, _)| start >= fail_cycle && delivered > 0)
        .map(|&(_, _, mean)| mean)
        .fold(baseline_latency, f64::max);
    let threshold = baseline_latency * tolerance;
    let recovery_cycles = series
        .iter()
        .filter(|&&(start, delivered, mean)| {
            start >= recover_cycle && delivered > 0 && mean <= threshold
        })
        .map(|&(start, _, _)| start.saturating_sub(recover_cycle))
        .next();
    RecoveryAnalysis {
        baseline_latency,
        peak_latency,
        recovery_cycles,
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;

    #[test]
    fn recovery_analysis_finds_transient_shape() {
        // Baseline ~10, spike to 40 at the failure, settle after the
        // links return at 300.
        let series = vec![
            (0, 50, 10.0),
            (100, 50, 10.0),
            (200, 30, 40.0),
            (300, 40, 25.0),
            (400, 50, 11.0),
            (500, 50, 10.0),
        ];
        let a = recovery_analysis(&series, 200, 300, 1.2);
        assert!((a.baseline_latency - 10.0).abs() < 1e-9);
        assert!((a.peak_latency - 40.0).abs() < 1e-9);
        assert_eq!(a.recovery_cycles, Some(100));
    }

    #[test]
    fn recovery_analysis_reports_no_settle() {
        let series = vec![(0, 50, 10.0), (100, 10, 90.0), (200, 5, 95.0)];
        let a = recovery_analysis(&series, 100, 100, 1.2);
        assert_eq!(a.recovery_cycles, None);
        assert!(a.peak_latency > 90.0 - 1e-9);
    }

    #[test]
    fn recovery_analysis_skips_empty_buckets() {
        // The wedged window (0 delivered) cannot count as recovered.
        let series = vec![(0, 50, 10.0), (100, 0, 0.0), (200, 50, 10.5)];
        let a = recovery_analysis(&series, 100, 100, 1.2);
        assert_eq!(a.recovery_cycles, Some(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{RouteTable, RoutingKind};
    use crate::traffic::Pattern;
    use polarstar_graph::Graph;
    use polarstar_topo::network::NetworkSpec;

    fn cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 300,
            measure_cycles: 700,
            drain_cycles: 6_000,
            seed: 11,
            ..SimConfig::default()
        }
    }

    #[test]
    fn sweep_shapes() {
        let spec = NetworkSpec::uniform("k6", Graph::complete(6), 2);
        let table = RouteTable::for_spec(&spec);
        let sim = Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform);
        let s = sweep(&sim, &[0.1, 0.3, 0.5], &cfg());
        assert_eq!(s.points.len(), 3);
        assert!(s.saturation_load() >= 0.3, "K6 sustains moderate load");
    }

    #[test]
    fn saturation_search_on_ring() {
        // C8 with 2 eps/router: uniform saturation well below full load
        // (bisection of 2 links serves ~16 endpoints × load/2 crossing).
        let spec = NetworkSpec::uniform("c8", Graph::cycle(8), 2);
        let table = RouteTable::for_spec(&spec);
        let sim = Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform);
        let sat = saturation_search(&sim, &cfg(), 0.05);
        assert!(sat < 0.8, "ring saturation {sat} should be well below 1");
        assert!(sat > 0.01, "ring should sustain some load");
    }

    #[test]
    fn complete_graph_no_saturation() {
        let spec = NetworkSpec::uniform("k8", Graph::complete(8), 1);
        let table = RouteTable::for_spec(&spec);
        let sim = Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform);
        let sat = saturation_search(&sim, &cfg(), 0.1);
        assert!(
            sat >= 0.9,
            "K8 with 1 ep/router sustains ~full load, got {sat}"
        );
    }
}

#[cfg(test)]
mod paper_parameter_tests {
    use crate::engine::{SimConfig, BUF_FLITS_PER_PORT, PACKET_FLITS, VCS};

    /// §9.4's BookSim parameters are the engine's constants.
    #[test]
    fn defaults_match_section_9_4() {
        assert_eq!(PACKET_FLITS, 4, "packets are 4 flits");
        assert_eq!(VCS, 4, "4 virtual channels");
        assert_eq!(BUF_FLITS_PER_PORT, 128, "128-flit buffers per port");
        let c = SimConfig::default();
        assert!(c.warmup_cycles > 0, "a warm-up phase precedes measurement");
    }
}
