//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics with where each
//! value comes from. `--list` prints this table and `BENCHMARK.json`
//! repeats it (`smoke.sh` checks the two agree).

use crate::json::Json;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "cycle_psiq",
        why: "PS-IQ cycle engine: MIN, UGAL, 2-thread sharded and live-fault points; only the engine works, flow and analytic layers idle",
    },
    WorkloadSpec {
        name: "flow_million",
        why: "1M-endpoint pristine table-free flow build+solve: the class-batched fast path with a working set far beyond cache; decides peak RSS",
    },
    WorkloadSpec {
        name: "flow_scale32_epochs",
        why: "PS-scale32 flow layer used incrementally and faulted (weighted overlay, two-epoch advance_epoch walk) instead of fresh and pristine",
    },
    WorkloadSpec {
        name: "routed_table_churn",
        why: "route service on the CSR table across a link-fault schedule: reads are cheap, epoch installs expensive; control for the analytic one",
    },
    WorkloadSpec {
        name: "routed_analytic_churn",
        why: "same schedule and queries on the table-free backend: installs are free, faulted reads expensive; where a template cache must pay",
    },
    WorkloadSpec {
        name: "motif_psiq",
        why: "message-level model only: RD allreduce, Sweep3D and EDST striped collectives with a lost tree; neither engine nor flow runs",
    },
];

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub meaning: &'static str,
}

/// Reported by every workload on the untraced run. Host times are in
/// seconds of the quiet reference box (yardstick.rs). Their bounds are the
/// widest the driver allows: on the shared 2-core reference box ten runs
/// of unchanged code still spread by up to 10 % between quartiles (README
/// "Steadiness"), so the 10 % the issue hoped for would reject them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median cold construction of everything the timed body needs (topology, route backend, traffic, EDST packing), in reference-box seconds",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median host time of one timed body, in reference-box seconds",
    },
    EndToEnd {
        name: "work_per_s",
        unit: "work/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "the workload's exact work count / wall_s",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        meaning: "VmHWM after the last timed body, before verification (one process per workload)",
    },
];

/// Where a per-layer value comes from.
#[derive(Clone, Copy)]
pub enum Source {
    /// Median over repetitions of the summed self time, in ms, of every
    /// span with this name.
    SpanMs(&'static str),
    /// Set by the workload (a count, a ratio, a percentile).
    Value,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Deterministic for a fixed seed: two runs of one commit must agree
    /// to the last digit (`repeat.sh` fails otherwise).
    pub exact: bool,
}

const fn span_ms(name: &'static str, span: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: Better::Lower,
        source: Source::SpanMs(span),
        exact: false,
    }
}

const fn value(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Value,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Value,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload on the traced run; a layer the workload
/// never enters reads 0 (it did no work there).
pub const PER_LAYER: &[PerLayer] = &[
    // topo / polarstar
    span_ms("topo.network_build_ms", "topo.network_build"),
    span_ms("topo.edst_pack_ms", "topo.edst_pack"),
    exact("topo.edst_trees", "trees", Higher),
    // CSR route table
    span_ms("route_table.build_ms", "route_table.build"),
    exact("route_table.bytes", "bytes", Lower),
    value("route_table.remask_ms", "ms", Lower),
    value("route_table.next_hop_ns", "ns", Lower),
    // §9.2 analytic backend
    span_ms("analytic.build_ms", "analytic.build"),
    exact("analytic.bytes", "bytes", Lower),
    value("analytic.next_hop_ns", "ns", Lower),
    value("analytic.next_hop_faulted_ns", "ns", Lower),
    value("analytic.remask_us", "us", Lower),
    exact("analytic.routes_computed", "count", Lower),
    exact("analytic.fallbacks", "count", Lower),
    // traffic
    span_ms("traffic.resolve_ms", "traffic.resolve"),
    // flow
    span_ms("flow.plan_build_ms", "flow.plan_build"),
    span_ms("flow.network_ms", "flow.network"),
    span_ms("flow.solve_ms", "flow.solve"),
    exact("flow.flows", "count", Higher),
    exact("flow.unique_pairs", "count", Higher),
    exact("flow.state_bytes", "bytes", Lower),
    span_ms("flow.plan_build_weighted_ms", "flow.plan_build_weighted"),
    span_ms("flow.advance_epoch_ms", "flow.advance_epoch"),
    exact("flow.rerouted_pairs", "count", Lower),
    value("flow.advance_us_per_pair", "us", Lower),
    value("flow.plan_build_faulted_ms", "ms", Lower),
    value("flow.advance_vs_rebuild", "ratio", Lower),
    // cycle engine
    span_ms("engine.min_uni_ms", "engine.min_uni"),
    span_ms("engine.ugal_adv_ms", "engine.ugal_adv"),
    span_ms("engine.min_uni_t2_ms", "engine.min_uni_t2"),
    span_ms("engine.ugal_uni_faults_ms", "engine.ugal_uni_faults"),
    value("engine.pkts_per_s", "pkt/s", Higher),
    value("engine.sharded_t2_speedup", "ratio", Higher),
    exact("engine.rerouted", "count", Lower),
    exact("engine.faulted_in_flight", "count", Lower),
    exact("engine.avg_hops", "hops", Lower),
    // route service
    span_ms("routed.oracle_build_ms", "routed.oracle_build"),
    exact("routed.oracle_bytes", "bytes", Lower),
    value("routed.prepare_us", "us", Lower),
    value("routed.install_us", "us", Lower),
    value("routed.install_p50_us", "us", Lower),
    value("routed.batch_p50_us", "us", Lower),
    value("routed.batch_p95_us", "us", Lower),
    value("routed.batch_us_pristine", "us", Lower),
    value("routed.batch_us_faulted", "us", Lower),
    value("routed.faulted_slowdown", "ratio", Lower),
    value("routed.sharded_batch_us", "us", Lower),
    value("routed.sharded_speedup", "ratio", Higher),
    exact("routed.queries", "count", Higher),
    exact("routed.unreachable", "count", Lower),
    exact("routed.swaps", "count", Lower),
    // motif model
    span_ms("motifs.rd_allreduce_min_ms", "motifs.rd_allreduce_min"),
    span_ms("motifs.rd_allreduce_ugal_ms", "motifs.rd_allreduce_ugal"),
    span_ms("motifs.sweep3d_ms", "motifs.sweep3d"),
    span_ms("motifs.striped_ms", "motifs.striped"),
    exact("motifs.rd_allreduce_model_us", "us", Lower),
    exact("motifs.striped_bcast_model_us", "us", Lower),
    exact("motifs.lose1_slowdown", "ratio", Lower),
    exact("motifs.effective_trees", "trees", Higher),
    // simulated results: model time, not host time
    exact("sim.latency_cycles", "cycles", Lower),
    exact("sim.sat_load", "load", Higher),
    exact("sim.collective_us", "us", Lower),
    // the benchmark itself
    value("bench.trace_overhead_frac", "ratio", Lower),
    exact("bench.work", "count", Higher),
    value("bench.reps", "count", Higher),
    value("bench.host_speed", "ratio", Higher),
];

fn metric_json(name: &str, unit: &str, better: Better) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::str(name)),
        ("unit", Json::str(unit)),
        ("better", Json::str(better.label())),
    ]
}

/// `--list`: everything `BENCHMARK.json` states, plus the meanings and
/// the exactness flags `repeat.sh` gates on.
pub fn list_json() -> Json {
    Json::Obj(vec![
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut o = metric_json(m.name, m.unit, m.better);
                        o.push(("bound", Json::Num(m.bound)));
                        o.push(("meaning", Json::str(m.meaning)));
                        Json::Obj(o)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        let mut o = metric_json(m.name, m.unit, m.better);
                        o.push(("exact", Json::Bool(m.exact)));
                        Json::Obj(o)
                    })
                    .collect(),
            ),
        ),
    ])
}
