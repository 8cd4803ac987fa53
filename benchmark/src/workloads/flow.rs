//! The two flow-level workloads. Both route through the table-free
//! `AnalyticOracle` on the radix-32 PolarStar, but use the flow layer in
//! opposite ways.
//!
//! `flow_million` is the pristine class-batched fast path at the size the
//! cycle engine cannot reach (1 005 354 endpoints, a working set far
//! beyond cache): it is where `peak_rss_mb` and the table-free memory
//! claim are decided.
//!
//! `flow_scale32_epochs` uses the same layer and backend incrementally
//! and faulted: a weighted overlay, then a two-epoch fault walk through
//! `AnalyticOracle::remask` + `FlowPlan::advance_epoch`. A gain for the
//! fresh build that costs the epoch path, or the reverse, shows here and
//! not in `flow_million`.

use super::{build_radix32, RouterCounts};
use crate::harness::{median, named, Checks, Values, Workload};
use crate::trace::Tracer;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::traffic::resolve_flows;
use polarstar_netsim::{
    FlowDemand, FlowNetwork, FlowPlan, FlowResult, FlowRouting, Pattern, TrafficComponent,
};
use polarstar_routed::AnalyticOracle;
use polarstar_topo::fault::FaultSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What both workloads build before the body.
struct Base {
    net: Arc<PolarStarNetwork>,
    oracle: AnalyticOracle,
    uniform: [TrafficComponent; 1],
}

fn setup_base(endpoint_floor: usize, seed: u64, tr: &mut Tracer) -> Base {
    let net = Arc::new(tr.span("topo.network_build", || build_radix32(endpoint_floor)));
    let oracle = tr.span("analytic.build", || AnalyticOracle::new(net.clone()));
    // `FlowPlan::build` resolves its components itself; this times the
    // same resolution on its own.
    tr.span("traffic.resolve", || {
        black_box(resolve_flows(&Pattern::Uniform, &net.spec, seed).len())
    });
    Base {
        net,
        oracle,
        uniform: [TrafficComponent::new(Pattern::Uniform, seed)],
    }
}

/// A pristine uniform build + materialize + solve at full load.
struct Solved {
    plan: FlowPlan,
    fnet: FlowNetwork,
    at_full: FlowResult,
}

fn build_and_solve(base: &Base, tr: &mut Tracer) -> Solved {
    let plan = tr.span("flow.plan_build", || {
        FlowPlan::build(
            &base.net.spec,
            &base.oracle,
            &base.uniform,
            FlowRouting::EcmpSplit,
        )
    });
    let fnet = tr.span("flow.network", || plan.network());
    let at_full = tr.span("flow.solve", || fnet.solve(1.0));
    Solved {
        plan,
        fnet,
        at_full,
    }
}

fn solved_exact(base: &Base, s: &Solved, delta: &RouterCounts) -> Vec<(String, f64)> {
    named(&[
        ("sim.sat_load", s.fnet.saturation_load()),
        ("flow.flows", s.fnet.num_flows() as f64),
        ("flow.unique_pairs", s.plan.num_pairs() as f64),
        ("flow.state_bytes", s.fnet.memory_bytes() as f64),
        ("analytic.bytes", base.oracle.memory_bytes() as f64),
        ("analytic.routes_computed", delta.routes as f64),
        ("analytic.fallbacks", delta.fallbacks as f64),
        ("uniform.delivered_at_full", s.at_full.delivered_fraction),
    ])
}

/// Checks every pristine uniform build must pass.
fn verify_solved(base: &Base, s: &Solved, checks: &mut Checks) {
    checks.check(s.fnet.unroutable() == 0, || {
        format!(
            "{} unroutable flows on a pristine network",
            s.fnet.unroutable()
        )
    });
    let half = s.fnet.solve(0.5 * s.fnet.saturation_load());
    checks.check(half.stable && half.delivered_fraction >= 1.0 - 1e-9, || {
        format!(
            "half the saturation load not fully delivered ({})",
            half.delivered_fraction
        )
    });
    checks.check(base.oracle.router().fallbacks() == 0, || {
        format!(
            "{} routes left the template path on a pristine network",
            base.oracle.router().fallbacks()
        )
    });
}

pub struct FlowMillion {
    base: Base,
}

pub struct MillionOut {
    solved: Solved,
    delta: RouterCounts,
}

impl Workload for FlowMillion {
    type Out = MillionOut;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        FlowMillion {
            base: setup_base(1_000_000, seed, tr),
        }
    }

    fn body(&mut self, tr: &mut Tracer) -> MillionOut {
        let before = RouterCounts::read(Some(&self.base.oracle));
        let solved = build_and_solve(&self.base, tr);
        MillionOut {
            solved,
            delta: before.since(Some(&self.base.oracle)),
        }
    }

    /// Flows built and solved.
    fn work(&self, out: &MillionOut) -> u64 {
        out.solved.fnet.num_flows() as u64
    }

    fn exact(&self, out: &MillionOut) -> Vec<(String, f64)> {
        solved_exact(&self.base, &out.solved, &out.delta)
    }

    fn verify(&mut self, out: &MillionOut, checks: &mut Checks) {
        verify_solved(&self.base, &out.solved, checks);
    }

    fn probe(&mut self, _out: &MillionOut, _tr: &Tracer, _values: &mut Values) {}
}

/// Link-fault fractions of the nested two-epoch walk (same seed, so the
/// second set contains the first).
const EPOCH_LINK_FRACTIONS: [f64; 2] = [0.001, 0.002];

pub struct FlowScale32Epochs {
    base: Base,
    /// Every 4th endpoint at 4× demand over a permutation, plus a 0.25×
    /// uniform background.
    weighted: [TrafficComponent; 2],
    /// Cumulative fault sets, pristine first.
    epochs: Vec<FaultSet>,
    /// Seconds the faulted rebuild of `verify` took (read by `probe`).
    rebuild_s: f64,
}

pub struct EpochsOut {
    /// Pristine results; `solved.plan` has been walked to the last epoch.
    solved: Solved,
    weighted_flows: usize,
    weighted_pairs: usize,
    weighted_has_demands: bool,
    weighted_at_half: FlowResult,
    rerouted: Vec<usize>,
    delta: RouterCounts,
}

impl Workload for FlowScale32Epochs {
    type Out = EpochsOut;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let base = setup_base(100_000, seed, tr);
        let mut weights = vec![1.0f64; base.net.spec.total_endpoints()];
        for w in weights.iter_mut().step_by(4) {
            *w = 4.0;
        }
        let weighted = [
            TrafficComponent::with_demand(
                Pattern::Permutation,
                seed,
                FlowDemand::PerSource(weights),
            ),
            TrafficComponent::with_demand(
                Pattern::Uniform,
                seed.wrapping_add(1),
                FlowDemand::Scaled(0.25),
            ),
        ];
        let mut epochs = vec![FaultSet::empty()];
        for fraction in EPOCH_LINK_FRACTIONS {
            epochs.push(FaultSet::random_links(&base.net.spec.graph, fraction, seed));
        }
        FlowScale32Epochs {
            base,
            weighted,
            epochs,
            rebuild_s: 0.0,
        }
    }

    fn body(&mut self, tr: &mut Tracer) -> EpochsOut {
        let base = &self.base;
        let spec = &base.net.spec;
        let before = RouterCounts::read(Some(&base.oracle));
        let mut solved = build_and_solve(base, tr);

        let wplan = tr.span("flow.plan_build_weighted", || {
            FlowPlan::build(spec, &base.oracle, &self.weighted, FlowRouting::EcmpSplit)
        });
        let wnet = tr.span("flow.network", || wplan.network());
        let weighted_at_half = tr.span("flow.solve", || wnet.solve(0.5));

        let mut rerouted = Vec::new();
        for step in self.epochs.windows(2) {
            let (prev, next) = (&step[0], &step[1]);
            let masked = tr.span("analytic.remask", || base.oracle.remask(next));
            rerouted.push(tr.span("flow.advance_epoch", || {
                solved.plan.advance_epoch(spec, &masked, prev, next)
            }));
        }
        EpochsOut {
            solved,
            weighted_flows: wnet.num_flows(),
            weighted_pairs: wplan.num_pairs(),
            weighted_has_demands: wnet.demands().is_some(),
            weighted_at_half,
            rerouted,
            delta: before.since(Some(&base.oracle)),
        }
    }

    /// Router pairs routed (both fresh builds) or re-routed (the walk).
    fn work(&self, out: &EpochsOut) -> u64 {
        (out.solved.plan.num_pairs() + out.weighted_pairs + out.rerouted.iter().sum::<usize>())
            as u64
    }

    fn exact(&self, out: &EpochsOut) -> Vec<(String, f64)> {
        let mut v = solved_exact(&self.base, &out.solved, &out.delta);
        v.push((
            "flow.rerouted_pairs".into(),
            out.rerouted.iter().sum::<usize>() as f64,
        ));
        v.push(("weighted.flows".into(), out.weighted_flows as f64));
        v.push((
            "weighted.delivered_at_half".into(),
            out.weighted_at_half.delivered_fraction,
        ));
        v
    }

    fn verify(&mut self, out: &EpochsOut, checks: &mut Checks) {
        // The pristine-router fallback check comes first: the faulted
        // rebuild below routes through the same shared router.
        verify_solved(&self.base, &out.solved, checks);
        checks.check(out.weighted_has_demands, || {
            "weighted build lost its demand vector".to_string()
        });
        let delivered = out.weighted_at_half.delivered_fraction;
        checks.check(delivered > 0.0 && delivered <= 1.0 + 1e-9, || {
            format!("weighted delivered fraction {delivered} out of range")
        });
        checks.check(out.rerouted.iter().all(|&n| n > 0), || {
            format!("an epoch re-routed nothing: {:?}", out.rerouted)
        });
        // A fresh build against the last epoch's mask: what the walk must
        // equal, and the cost `flow.advance_vs_rebuild` compares it to.
        let last = self
            .epochs
            .last()
            .expect("epochs start with the pristine set");
        let masked = self.base.oracle.remask(last);
        let t0 = Instant::now();
        let fresh = FlowPlan::build(
            &self.base.net.spec,
            &masked,
            &self.base.uniform,
            FlowRouting::EcmpSplit,
        );
        self.rebuild_s = t0.elapsed().as_secs_f64();
        checks.check(out.solved.plan.network() == fresh.network(), || {
            "the epoch walk diverged from a fresh build at the last epoch".to_string()
        });
    }

    fn probe(&mut self, out: &EpochsOut, tr: &Tracer, values: &mut Values) {
        let walk_ms = median(&tr.self_ns_per_rep("flow.advance_epoch")) / 1e6;
        let rerouted = out.rerouted.iter().sum::<usize>() as f64;
        values.set("flow.advance_us_per_pair", walk_ms * 1e3 / rerouted);
        let rebuild_ms = self.rebuild_s * 1e3;
        values.set("flow.plan_build_faulted_ms", rebuild_ms);
        values.set("flow.advance_vs_rebuild", walk_ms / rebuild_ms);
        values.set(
            "analytic.remask_us",
            median(&tr.durations_ns("analytic.remask")) / 1e3,
        );
    }
}
