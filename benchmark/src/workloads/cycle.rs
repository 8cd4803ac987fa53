//! `cycle_psiq`: four cycle-engine points on Table 3's PS-IQ.
//!
//! The cycle engine does > 95 % of the work here. It is the only
//! workload where engine sharding (`threads: Some(2)`), the per-epoch
//! route-table prebuild of a live fault schedule, and UGAL's port-cost
//! scoring show, and the only one where the flow and analytic layers do
//! nothing.

use super::build_psiq;
use crate::harness::{median, named, Checks, Values, Workload};
use crate::trace::Tracer;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::traffic::{engine_resolve_seed, resolve};
use polarstar_netsim::{simulate, Pattern, RouteTable, RoutingKind, SimConfig, SimResult};
use polarstar_topo::fault::FaultSchedule;
use std::hint::black_box;

/// Shorter windows than the figure runs (2 000 / 5 000 cycles) so that a
/// run fits several bodies; every point stays well below saturation and
/// drains in a few dozen cycles.
const WARMUP_CYCLES: u64 = 200;
const MEASURE_CYCLES: u64 = 400;
const DRAIN_CYCLES: u64 = 6_000;
/// The fault burst falls inside the measurement window and recovers
/// before it ends, so the run crosses two epoch switches.
const BURST_AT: u64 = 300;
const RECOVER_AT: u64 = 500;
const BURST_LINK_FRACTION: f64 = 0.01;

struct Point {
    span: &'static str,
    kind: RoutingKind,
    pattern: Pattern,
    load: f64,
    cfg: SimConfig,
}

pub struct CyclePsiq {
    net: PolarStarNetwork,
    table: RouteTable,
    points: [Point; 4],
}

const MIN_UNI: usize = 0;
const UGAL_ADV: usize = 1;
const MIN_UNI_T2: usize = 2;
const UGAL_UNI_FAULTS: usize = 3;

impl Workload for CyclePsiq {
    type Out = [SimResult; 4];

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let net = tr.span("topo.network_build", build_psiq);
        let table = tr.span("route_table.build", || RouteTable::for_spec(&net.spec));
        // `simulate` resolves its pattern itself; this times the same
        // resolution for the two patterns the body uses.
        tr.span("traffic.resolve", || {
            for pattern in [Pattern::Uniform, Pattern::AdversarialGroup] {
                black_box(resolve(&pattern, &net.spec, engine_resolve_seed(seed)).active);
            }
        });
        let cfg = SimConfig {
            warmup_cycles: WARMUP_CYCLES,
            measure_cycles: MEASURE_CYCLES,
            drain_cycles: DRAIN_CYCLES,
            seed,
            ..SimConfig::default()
        };
        let burst = FaultSchedule::random_burst(
            &net.spec.graph,
            BURST_LINK_FRACTION,
            seed,
            BURST_AT,
            Some(RECOVER_AT),
        );
        let points = [
            Point {
                span: "engine.min_uni",
                kind: RoutingKind::MinMulti,
                pattern: Pattern::Uniform,
                load: 0.3,
                cfg: cfg.clone(),
            },
            Point {
                span: "engine.ugal_adv",
                kind: RoutingKind::ugal4(),
                pattern: Pattern::AdversarialGroup,
                load: 0.25,
                cfg: cfg.clone(),
            },
            Point {
                span: "engine.min_uni_t2",
                kind: RoutingKind::MinMulti,
                pattern: Pattern::Uniform,
                load: 0.3,
                cfg: SimConfig {
                    threads: Some(2),
                    ..cfg.clone()
                },
            },
            Point {
                span: "engine.ugal_uni_faults",
                kind: RoutingKind::ugal4(),
                pattern: Pattern::Uniform,
                load: 0.3,
                cfg: SimConfig {
                    fault_schedule: Some(burst),
                    ..cfg
                },
            },
        ];
        CyclePsiq { net, table, points }
    }

    fn body(&mut self, tr: &mut Tracer) -> Self::Out {
        let (spec, table) = (&self.net.spec, &self.table);
        self.points.each_ref().map(|p| {
            tr.span(p.span, || {
                simulate(spec, table, p.kind, &p.pattern, p.load, &p.cfg)
            })
        })
    }

    fn work(&self, out: &Self::Out) -> u64 {
        out.iter().map(|r| r.measured_ejected).sum()
    }

    fn exact(&self, out: &Self::Out) -> Vec<(String, f64)> {
        let faulted = &out[UGAL_UNI_FAULTS];
        let mut v = named(&[
            ("sim.latency_cycles", out[UGAL_ADV].avg_latency),
            ("engine.rerouted", faulted.rerouted as f64),
            ("engine.faulted_in_flight", faulted.faulted_in_flight as f64),
            ("engine.avg_hops", out[UGAL_ADV].avg_hops),
            ("route_table.bytes", self.table.memory_bytes() as f64),
        ]);
        // The remaining fields only feed the repeat-exactly check.
        for (p, r) in self.points.iter().zip(out) {
            v.push((format!("{}.accepted", p.span), r.accepted));
            v.push((format!("{}.avg_latency", p.span), r.avg_latency));
            v.push((format!("{}.p99_latency", p.span), r.p99_latency));
            v.push((format!("{}.ejected", p.span), r.measured_ejected as f64));
        }
        v
    }

    fn verify(&mut self, out: &Self::Out, checks: &mut Checks) {
        for (p, r) in self.points.iter().zip(out) {
            checks.check(r.stable, || format!("{}: run did not drain", p.span));
            checks.check(!r.watchdog_fired, || format!("{}: watchdog fired", p.span));
            if p.cfg.fault_schedule.is_none() {
                checks.check(r.delivered_fraction == 1.0, || {
                    format!("{}: delivered {}", p.span, r.delivered_fraction)
                });
                checks.check(r.unroutable == 0, || {
                    format!(
                        "{}: {} unroutable on a pristine network",
                        p.span, r.unroutable
                    )
                });
            }
        }
        checks.check(out[MIN_UNI_T2] == out[MIN_UNI], || {
            "2-thread sharded run differs from the sequential run".to_string()
        });
    }

    fn probe(&mut self, out: &Self::Out, tr: &Tracer, values: &mut Values) {
        let point_s = |i: usize| median(&tr.durations_ns(self.points[i].span)) / 1e9;
        let engine_s: f64 = (0..4).map(point_s).sum();
        values.set("engine.pkts_per_s", self.work(out) as f64 / engine_s);
        values.set(
            "engine.sharded_t2_speedup",
            point_s(MIN_UNI) / point_s(MIN_UNI_T2),
        );
    }
}
