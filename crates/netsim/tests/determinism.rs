//! Engine determinism across thread counts: the sharded engine must be
//! bit-identical to the sequential one for any `threads` setting — same
//! `SimResult` (exact float equality) and same `MetricsMonitor` report.
//!
//! This is the contract that makes `--engine-threads` safe to use in
//! experiments: a result can be reproduced on any machine regardless of
//! its core count.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::routing::{RouteTable, RoutingKind};
use polarstar_netsim::traffic::Pattern;
use polarstar_netsim::{simulate, FaultResponse, MetricsMonitor, SimConfig, Simulation};
use polarstar_topo::er::ErGraph;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::{FaultSchedule, FaultSet};

fn cfg(threads: Option<usize>) -> SimConfig {
    SimConfig {
        warmup_cycles: 200,
        measure_cycles: 400,
        drain_cycles: 2_500,
        seed: 77,
        threads,
        ..SimConfig::default()
    }
}

fn er5_spec() -> NetworkSpec {
    // ER_5: 31 routers, the smallest interesting polarity graph.
    let er = ErGraph::new(5).unwrap();
    NetworkSpec::uniform("er5", er.graph, 2)
}

fn polarstar_spec() -> NetworkSpec {
    PolarStarNetwork::build(best_config(9).unwrap(), 2)
        .unwrap()
        .spec
}

fn assert_thread_invariant(spec: &NetworkSpec, kind: RoutingKind, load: f64) {
    let table = RouteTable::for_spec(spec);
    let baseline = simulate(spec, &table, kind, &Pattern::Uniform, load, &cfg(None));
    assert!(
        baseline.measured_ejected > 0,
        "degenerate baseline on {}: {baseline:?}",
        spec.name
    );
    for threads in [1usize, 2, 4] {
        let sharded = simulate(
            spec,
            &table,
            kind,
            &Pattern::Uniform,
            load,
            &cfg(Some(threads)),
        );
        assert_eq!(
            baseline, sharded,
            "{} with {kind:?} diverges at threads={threads}",
            spec.name
        );
    }
}

#[test]
fn er5_min_identical_across_thread_counts() {
    assert_thread_invariant(&er5_spec(), RoutingKind::MinMulti, 0.3);
}

#[test]
fn er5_ugal_identical_across_thread_counts() {
    assert_thread_invariant(&er5_spec(), RoutingKind::ugal4(), 0.3);
}

#[test]
fn polarstar_min_identical_across_thread_counts() {
    assert_thread_invariant(&polarstar_spec(), RoutingKind::MinMulti, 0.3);
}

#[test]
fn polarstar_ugal_identical_across_thread_counts() {
    assert_thread_invariant(&polarstar_spec(), RoutingKind::ugal4(), 0.3);
}

/// The offline negotiation is a pure function of (seed, iteration): a
/// rebuild is the same table.
#[test]
fn er5_negotiation_rebuild_is_identical() {
    use polarstar_netsim::flow::{FlowPlan, FlowRouting, TrafficComponent};
    use polarstar_netsim::traffic::engine_resolve_seed;
    use polarstar_netsim::NegotiatedRoutes;

    let spec = er5_spec();
    let table = RouteTable::for_spec(&spec);
    let comps = [TrafficComponent::new(
        Pattern::Permutation,
        engine_resolve_seed(77),
    )];
    let plan = FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
    let neg = NegotiatedRoutes::negotiate(&spec, &table, &plan, 77);
    assert_eq!(
        neg,
        NegotiatedRoutes::negotiate(&spec, &table, &plan, 77),
        "negotiation rebuild diverges"
    );
}

/// A fault-degraded network must keep the same contract: masked route
/// tables and rerouted traffic stay bit-identical across thread counts.
#[test]
fn faulted_er5_min_identical_across_thread_counts() {
    let spec = er5_spec();
    let faults = FaultSet::random_links(&spec.graph, 0.15, 77);
    assert!(!faults.is_empty());
    assert_thread_invariant(&spec.with_faults(faults), RoutingKind::MinMulti, 0.3);
}

#[test]
fn faulted_er5_ugal_identical_across_thread_counts() {
    let spec = er5_spec();
    let faults = FaultSet::random_links(&spec.graph, 0.15, 77);
    assert_thread_invariant(&spec.with_faults(faults), RoutingKind::ugal4(), 0.3);
}

/// Router faults produce unroutable drops; the drop accounting must also
/// be thread-invariant, and the run must still drain cleanly.
#[test]
fn faulted_routers_unroutable_identical_across_thread_counts() {
    let spec = er5_spec().with_faults(FaultSet::from_routers([3, 11]));
    let table = RouteTable::for_spec(&spec);
    let baseline = simulate(
        &spec,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        0.3,
        &cfg(None),
    );
    assert!(baseline.unroutable > 0, "{baseline:?}");
    assert!(baseline.measured_ejected > 0, "{baseline:?}");
    for threads in [1usize, 2, 4] {
        let sharded = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.3,
            &cfg(Some(threads)),
        );
        assert_eq!(baseline, sharded, "diverges at threads={threads}");
    }
}

/// The monitor sees the same totals in both modes: per-shard counters
/// merged at commit must equal single-threaded collection.
#[test]
fn metrics_monitor_totals_identical_across_thread_counts() {
    let spec = er5_spec();
    let table = RouteTable::for_spec(&spec);
    let run = |threads: Option<usize>| {
        let mut mon = MetricsMonitor::new(64);
        let r = Simulation::new(&spec, &table, RoutingKind::ugal4(), &Pattern::Uniform)
            .run_monitored(0.3, &cfg(threads), &mut mon);
        (r, mon.report())
    };
    let (base_result, base_report) = run(None);
    for threads in [1usize, 2, 4] {
        let (result, report) = run(Some(threads));
        assert_eq!(base_result, result, "SimResult at threads={threads}");
        assert_eq!(base_report, report, "MetricsReport at threads={threads}");
    }
}

/// Live mid-run faults keep the contract: a failure burst plus recovery
/// applied at cycle boundaries — with its epoch switches, in-flight
/// drops, and re-routes — stays bit-identical (SimResult and
/// MetricsReport) at every thread count.
#[test]
fn live_fault_schedule_identical_across_thread_counts() {
    let spec = er5_spec();
    let schedule = FaultSchedule::random_burst(&spec.graph, 0.12, 0xFA17, 350, Some(650))
        .fail_router_at(400, 6)
        .recover_router_at(700, 6);
    let table = RouteTable::for_spec(&spec);
    let run = |threads: Option<usize>| {
        let mut mon = MetricsMonitor::new(64);
        let r = Simulation::new(&spec, &table, RoutingKind::ugal4(), &Pattern::Uniform)
            .run_monitored(
                0.4,
                &SimConfig {
                    fault_schedule: Some(schedule.clone()),
                    ..cfg(threads)
                },
                &mut mon,
            );
        (r, mon.report())
    };
    let (base_result, base_report) = run(None);
    assert!(
        base_result.faulted_in_flight > 0 || base_result.rerouted > 0,
        "burst had no observable effect: {base_result:?}"
    );
    for threads in [1usize, 2, 4] {
        let (result, report) = run(Some(threads));
        assert_eq!(base_result, result, "SimResult at threads={threads}");
        assert_eq!(base_report, report, "MetricsReport at threads={threads}");
    }
}

/// A watchdog-terminated run is deterministic too: every shard reaches
/// the stall verdict from the same snapshot, so the firing cycle, the
/// diagnostic snapshot, and the truncated result all match the
/// sequential engine exactly.
#[test]
fn watchdog_fire_identical_across_thread_counts() {
    let spec = er5_spec();
    // Cut every link into router 7 with a stale control plane: traffic
    // aimed at 7 wedges in place and deliveries stop network-wide.
    let n = spec.graph.n() as u32;
    let cut = FaultSet::from_links(
        (0..n)
            .filter(|&u| u != 7 && spec.graph.has_edge(u, 7))
            .map(|u| (u, 7)),
    );
    let schedule = FaultSchedule::new().fail_at(250, cut);
    let table = RouteTable::for_spec(&spec);
    let run = |threads: Option<usize>| {
        let mut mon = MetricsMonitor::new(64);
        let r = Simulation::new(&spec, &table, RoutingKind::MinSingle, &Pattern::Uniform)
            .run_monitored(
                0.4,
                &SimConfig {
                    fault_schedule: Some(schedule.clone()),
                    fault_response: FaultResponse::Stale,
                    watchdog_cycles: Some(200),
                    ..cfg(threads)
                },
                &mut mon,
            );
        (r, mon.report())
    };
    let (base_result, base_report) = run(None);
    assert!(base_result.watchdog_fired, "{base_result:?}");
    assert!(base_report.watchdog.is_some());
    for threads in [1usize, 2, 4] {
        let (result, report) = run(Some(threads));
        assert_eq!(base_result, result, "SimResult at threads={threads}");
        assert_eq!(base_report, report, "MetricsReport at threads={threads}");
    }
}
