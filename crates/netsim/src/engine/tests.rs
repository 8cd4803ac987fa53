//! Engine unit tests: config validation, the sequential and sharded
//! drivers, static fault masks, and live fault epochs.

use super::epoch::partition_starts;
use super::run::SpinBarrier;
use super::*;
use crate::monitor::MetricsMonitor;
use polarstar_graph::Graph;
use polarstar_topo::fault::{FaultSchedule, FaultSet};
use std::sync::atomic::{AtomicU64, Ordering};

fn small_cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 500,
        measure_cycles: 1_000,
        drain_cycles: 10_000,
        seed,
        ..SimConfig::default()
    }
}

fn k8_spec() -> NetworkSpec {
    NetworkSpec::uniform("k8", Graph::complete(8), 2)
}

#[test]
fn config_validation_catches_u16_queue_overflow() {
    // 2^23 flits / 1 vc / 1 flit-per-packet = 2^23 packets per VC —
    // far past what the u16 queue/credit arena fields can count.
    let cfg = SimConfig {
        packet_flits: 1,
        vcs: 1,
        buf_flits_per_port: 1 << 23,
        ..SimConfig::default()
    };
    assert_eq!(
        cfg.validate(),
        Err(SimConfigError::QueueCapacityOverflow {
            cap_pkts: 1 << 23,
            max: u16::MAX as u32,
        })
    );
    assert_eq!(
        SimConfig {
            packet_flits: 0,
            ..SimConfig::default()
        }
        .validate(),
        Err(SimConfigError::ZeroPacketFlits)
    );
    assert_eq!(
        SimConfig {
            vcs: 0,
            ..SimConfig::default()
        }
        .validate(),
        Err(SimConfigError::ZeroVcs)
    );
    assert_eq!(SimConfig::default().validate(), Ok(()));
    // The largest representable capacity passes.
    let edge = SimConfig {
        packet_flits: 1,
        vcs: 1,
        buf_flits_per_port: u16::MAX as u32,
        ..SimConfig::default()
    };
    assert_eq!(edge.validate(), Ok(()));
    assert_eq!(edge.queue_capacity_pkts(), u16::MAX as u32);
    // A VC count past u32 used to be cast to 0 and divided by.
    #[cfg(target_pointer_width = "64")]
    {
        let wide = SimConfig {
            vcs: 1 << 32,
            ..SimConfig::default()
        };
        assert_eq!(wide.validate(), Ok(()));
        assert_eq!(wide.queue_capacity_pkts(), 1);
    }
}

#[test]
#[should_panic(expected = "exceeds the u16 arena limit")]
fn engine_rejects_overflowing_queue_capacity() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let cfg = SimConfig {
        packet_flits: 1,
        vcs: 1,
        buf_flits_per_port: 1 << 23,
        ..small_cfg(1)
    };
    let _ = simulate(
        &spec,
        &table,
        RoutingKind::MinSingle,
        &Pattern::Uniform,
        0.1,
        &cfg,
    );
}

#[test]
fn config_validation_catches_wheel_overflow() {
    let cfg = SimConfig {
        link_latency: u32::MAX,
        ..SimConfig::default()
    };
    assert_eq!(
        cfg.validate(),
        Err(SimConfigError::WheelOverflow {
            packet_flits: 4,
            link_latency: u32::MAX,
        })
    );
    // The largest wheel that still fits u32 is representable (if
    // not allocatable).
    let edge = SimConfig {
        link_latency: u32::MAX - 6,
        ..SimConfig::default()
    };
    assert_eq!(edge.validate(), Ok(()));
}

#[test]
#[should_panic(expected = "slots overflows u32")]
fn engine_rejects_overflowing_wheel() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let cfg = SimConfig {
        link_latency: u32::MAX,
        ..small_cfg(1)
    };
    let _ = simulate(
        &spec,
        &table,
        RoutingKind::MinSingle,
        &Pattern::Uniform,
        0.1,
        &cfg,
    );
}

#[test]
fn check_rejects_a_fault_schedule_outside_the_network() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let sim = Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform);
    let mut cfg = small_cfg(4);
    let link = FaultSchedule::new().fail_link_at(100, 0, 8);
    for schedule in [link, FaultSchedule::new().recover_router_at(100, 99)] {
        let why = schedule.validate(8).unwrap_err().to_string();
        assert!(why.contains("outside a 8-router graph"), "{why}");
        cfg.fault_schedule = Some(schedule);
        let err = SimConfigError::InvalidFaultSchedule(why);
        assert_eq!(sim.check(&cfg), Err(err));
    }
    cfg.fault_schedule = Some(FaultSchedule::new().fail_link_at(100, 0, 7));
    assert_eq!(sim.check(&cfg), Ok(()));
}

#[test]
fn static_faults_outside_the_network_set_nothing() {
    // Ids the graph does not have compile to no port and no router:
    // the run is the pristine one.
    let stray = FaultSet::from_links([(0, 8), (40, 41)]).union(&FaultSet::from_routers([8, 77]));
    let run = |spec: NetworkSpec| {
        let (table, kind) = (RouteTable::for_spec(&spec), RoutingKind::MinMulti);
        simulate(&spec, &table, kind, &Pattern::Uniform, 0.3, &small_cfg(5))
    };
    let got = run(k8_spec().with_faults(stray));
    assert_eq!(got, run(k8_spec()));
    assert!(got.measured_ejected > 0 && got.unroutable == 0, "{got:?}");
}

#[test]
fn unbounded_drain_matches_a_large_finite_one() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let sim = Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform);
    let finite = sim.run(0.4, &small_cfg(2));
    assert!(finite.measured_ejected > 0 && finite.stable, "{finite:?}");
    for threads in [None, Some(2)] {
        let unbounded = SimConfig {
            drain_cycles: u64::MAX,
            threads,
            ..small_cfg(2)
        };
        assert_eq!(sim.run(0.4, &unbounded), finite, "threads={threads:?}");
    }
}

#[test]
fn check_rejects_a_route_table_built_on_another_graph() {
    // A table for another router count (K9) or another link count (K8
    // minus a cable) holds ports that index the wrong adjacency here: a
    // typed error from `check`, not a panic (or silence) in setup.
    let spec = k8_spec();
    let cfg = small_cfg(3);
    for other in [
        Graph::complete(9),
        Graph::complete(8).without_edges(&[(0, 1)]),
    ] {
        let foreign = RouteTable::builder(&other).build();
        let sim = Simulation::new(&spec, &foreign, RoutingKind::MinMulti, &Pattern::Uniform);
        assert_eq!(
            sim.check(&cfg),
            Err(SimConfigError::RouteTableMismatch {
                table: (other.n(), other.directed_edge_count()),
                network: (8, 56),
            })
        );
    }
    let own = RouteTable::for_spec(&spec);
    let sim = Simulation::new(&spec, &own, RoutingKind::MinMulti, &Pattern::Uniform);
    assert_eq!(sim.check(&cfg), Ok(()));
}

#[test]
#[should_panic(expected = "route table built for a different graph: 9 routers / 72 links")]
fn engine_rejects_a_foreign_route_table() {
    let spec = k8_spec();
    let foreign = RouteTable::builder(&Graph::complete(9)).build();
    let kind = RoutingKind::MinSingle;
    let _ = simulate(&spec, &foreign, kind, &Pattern::Uniform, 0.1, &small_cfg(1));
}

#[test]
fn epochs_back_on_the_callers_mask_borrow_its_table() {
    // Fail a cable, fail a second, recover both: epochs 0 and 3 compile
    // to the mask the caller's table was assembled under and share it;
    // only the two degraded epochs own a re-masked table. A stale
    // control plane owns none.
    let spec = k8_spec().with_faults(FaultSet::from_links([(2, 3)]));
    let table = RouteTable::for_spec(&spec);
    let sim = Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform);
    let schedule = FaultSchedule::new()
        .fail_link_at(100, 0, 1)
        .fail_link_at(200, 4, 5)
        .recover_at(300, FaultSet::from_links([(0, 1), (4, 5)]));
    for (response, owned) in [
        (FaultResponse::Reroute, [false, true, true, false]),
        (FaultResponse::Stale, [false; 4]),
    ] {
        let cfg = SimConfig {
            fault_schedule: Some(schedule.clone()),
            fault_response: response,
            ..small_cfg(6)
        };
        let resolved = resolve(sim.pattern, sim.spec, 0);
        let ctx = Ctx::new(&sim, resolved, 0.1, cfg);
        let got: Vec<bool> = ctx.epochs.iter().map(|e| e.owns_table()).collect();
        assert_eq!(got, owned, "{response:?}");
    }
}

#[test]
fn hop_count_survives_paths_longer_than_255_hops() {
    // A 600-ring's mean minimal distance is n/4; a u8 hop counter
    // wrapped (release) or overflowed (debug) on every far pair.
    let spec = NetworkSpec::uniform("ring", Graph::cycle(600), 1);
    let table = RouteTable::for_spec(&spec);
    let cfg = SimConfig {
        measure_cycles: 20_000,
        seed: 7,
        ..SimConfig::default()
    };
    let kind = RoutingKind::MinSingle;
    let r = simulate(&spec, &table, kind, &Pattern::Uniform, 0.002, &cfg);
    assert!(r.stable && r.measured_ejected > 1_000, "{r:?}");
    assert!((r.avg_hops - 150.0).abs() < 3.0, "{r:?}");
}

#[test]
fn low_load_latency_near_zero_load_baseline() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    // A longer window than small_cfg: at 5% load only ~2.5 packets
    // arrive per endpoint per 1000 cycles, so short windows make the
    // accepted-throughput criterion a coin flip.
    let cfg = SimConfig {
        measure_cycles: 4_000,
        ..small_cfg(1)
    };
    let r = simulate(
        &spec,
        &table,
        RoutingKind::MinSingle,
        &Pattern::Uniform,
        0.05,
        &cfg,
    );
    assert!(r.stable, "complete graph at 5% load must be stable: {r:?}");
    // Minimum latency: serialization (4) + link (1) + eject
    // serialization (4) ≈ 9-10 cycles for a 1-hop path.
    assert!(
        r.avg_latency >= 8.0 && r.avg_latency < 30.0,
        "latency {}",
        r.avg_latency
    );
    assert!(r.delivered_fraction > 0.999);
}

#[test]
fn complete_graph_sustains_high_uniform_load() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let r = simulate(
        &spec,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        0.7,
        &small_cfg(2),
    );
    assert!(
        r.stable,
        "K8 with 2 eps/router should sustain 70% uniform load"
    );
    assert!(r.accepted > 0.5, "accepted {}", r.accepted);
}

#[test]
fn ring_saturates_under_uniform_load() {
    // An 8-cycle with 2 endpoints per router has tiny bisection; high
    // uniform load must saturate (latency runaway / undelivered).
    let spec = NetworkSpec::uniform("c8", Graph::cycle(8), 2);
    let table = RouteTable::builder(&spec.graph).build();
    let hi = simulate(
        &spec,
        &table,
        RoutingKind::MinSingle,
        &Pattern::Uniform,
        0.9,
        &small_cfg(3),
    );
    assert!(
        !hi.stable || hi.avg_latency > 200.0,
        "ring at 90% must saturate"
    );
    let lo = simulate(
        &spec,
        &table,
        RoutingKind::MinSingle,
        &Pattern::Uniform,
        0.05,
        &small_cfg(3),
    );
    assert!(lo.stable);
    assert!(lo.avg_latency < hi.avg_latency.min(1e9));
}

#[test]
fn latency_monotone_in_load() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let mut last = 0.0;
    for load in [0.1, 0.4, 0.7] {
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            load,
            &small_cfg(4),
        );
        assert!(
            r.avg_latency >= last * 0.9,
            "latency not ~monotone at {load}"
        );
        last = r.avg_latency;
    }
}

#[test]
fn deterministic_for_seed() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let a = simulate(
        &spec,
        &table,
        RoutingKind::Ugal { candidates: 4 },
        &Pattern::Uniform,
        0.3,
        &small_cfg(5),
    );
    let b = simulate(
        &spec,
        &table,
        RoutingKind::Ugal { candidates: 4 },
        &Pattern::Uniform,
        0.3,
        &small_cfg(5),
    );
    assert_eq!(a, b);
}

#[test]
fn sharded_matches_sequential_on_k8() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let seq = simulate(
        &spec,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        0.4,
        &small_cfg(9),
    );
    for threads in [2, 3, 8] {
        let cfg = SimConfig {
            threads: Some(threads),
            ..small_cfg(9)
        };
        let par = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.4,
            &cfg,
        );
        assert_eq!(seq, par, "threads={threads}");
    }
}

#[test]
fn permutation_traffic_runs() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let r = simulate(
        &spec,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Permutation,
        0.4,
        &small_cfg(6),
    );
    assert!(r.measured_ejected > 0);
    assert!(r.stable);
}

#[test]
fn ugal_beats_min_on_adversarial_ring() {
    // On a cycle, a permutation pinning flows through one region
    // benefits from Valiant spreading. Use adversarial-group traffic
    // on a dragonfly instead — the canonical UGAL showcase.
    let spec = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
        a: 4,
        h: 2,
        p: 2,
    });
    let table = RouteTable::builder(&spec.graph).build();
    // Each group funnels 8 endpoints over a single global link under
    // MIN (throughput cap ≈ 1/8); UGAL spreads over all groups.
    let load = 0.3;
    let min = simulate(
        &spec,
        &table,
        RoutingKind::MinSingle,
        &Pattern::AdversarialGroup,
        load,
        &small_cfg(7),
    );
    let ugal = simulate(
        &spec,
        &table,
        RoutingKind::ugal4(),
        &Pattern::AdversarialGroup,
        load,
        &small_cfg(7),
    );
    assert!(!min.stable, "MIN at 0.3 exceeds the single-link cap");
    assert!(
        ugal.avg_latency < min.avg_latency * 0.7 || (ugal.stable && !min.stable),
        "UGAL {:?} vs MIN {:?}",
        (ugal.stable, ugal.avg_latency),
        (min.stable, min.avg_latency)
    );
}

#[test]
fn zero_load_produces_no_packets() {
    let spec = k8_spec();
    let table = RouteTable::builder(&spec.graph).build();
    let r = simulate(
        &spec,
        &table,
        RoutingKind::MinSingle,
        &Pattern::Uniform,
        0.0,
        &small_cfg(8),
    );
    assert_eq!(r.measured_ejected, 0);
    assert!(r.stable);
}

#[test]
fn partition_starts_cover_and_balance() {
    let weights = vec![1u64; 10];
    assert_eq!(partition_starts(&weights, 2), vec![0, 5, 10]);
    assert_eq!(partition_starts(&weights, 1), vec![0, 10]);
    // More shards than routers: clamped, every shard nonempty.
    let starts = partition_starts(&[3, 1, 1], 5);
    assert_eq!(starts.first(), Some(&0));
    assert_eq!(starts.last(), Some(&3));
    for w in starts.windows(2) {
        assert!(w[0] < w[1]);
    }
    // Skewed weights shift the boundary.
    let starts = partition_starts(&[10, 1, 1, 1, 1], 2);
    assert_eq!(starts, vec![0, 1, 5]);
}

/// Failure injection end-to-end: knock links out of a topology,
/// rebuild the routing tables, and verify traffic still delivers at
/// low load (the operational recovery story behind Figure 14).
#[test]
fn traffic_survives_link_failures_after_reroute() {
    let full = polarstar_graph::random::random_regular(32, 6, 9).unwrap();
    // Remove ~10% of links (every 10th edge, scattered so the
    // survivor stays connected).
    let edges: Vec<(u32, u32)> = full.edges().collect();
    let removed: Vec<(u32, u32)> = edges.iter().copied().step_by(10).collect();
    let faulty = full.without_edges(&removed);
    assert!(polarstar_graph::traversal::is_connected(&faulty));
    let spec = NetworkSpec::uniform("faulty", faulty, 2);
    let table = RouteTable::builder(&spec.graph).build();
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 800,
        drain_cycles: 6_000,
        seed: 3,
        ..SimConfig::default()
    };
    let r = simulate(
        &spec,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        0.2,
        &cfg,
    );
    assert!(r.stable, "faulty network at 20% load: {r:?}");
    assert!(r.delivered_fraction > 0.999);
}

/// Hop counts respect the (possibly fault-lengthened) diameter.
#[test]
fn hop_counts_bounded_by_diameter() {
    let g = Graph::cycle(10);
    let spec = NetworkSpec::uniform("c10", g, 1);
    let table = RouteTable::builder(&spec.graph).build();
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 600,
        drain_cycles: 4_000,
        seed: 4,
        ..SimConfig::default()
    };
    let r = simulate(
        &spec,
        &table,
        RoutingKind::MinSingle,
        &Pattern::Uniform,
        0.1,
        &cfg,
    );
    assert!(
        r.avg_hops >= 1.0 && r.avg_hops <= 5.0,
        "avg hops {}",
        r.avg_hops
    );
}

/// Pure Valiant doubles path length but still delivers.
#[test]
fn valiant_hops_exceed_minimal() {
    let spec = NetworkSpec::uniform("k8", Graph::complete(8), 2);
    let table = RouteTable::builder(&spec.graph).build();
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 800,
        drain_cycles: 6_000,
        seed: 5,
        ..SimConfig::default()
    };
    let min = simulate(
        &spec,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        0.2,
        &cfg,
    );
    let val = simulate(
        &spec,
        &table,
        RoutingKind::Valiant,
        &Pattern::Uniform,
        0.2,
        &cfg,
    );
    assert!(
        val.avg_hops > min.avg_hops,
        "valiant {} vs min {}",
        val.avg_hops,
        min.avg_hops
    );
    assert!(val.stable && min.stable);
}

/// A spec-level fault mask (rather than structural edge removal)
/// reroutes traffic the same way: the degraded network still
/// delivers everything when it stays connected, with zero
/// unroutable drops, under every routing kind.
#[test]
fn fault_mask_reroutes_when_connected() {
    use polarstar_topo::FaultSet;
    let full = polarstar_graph::random::random_regular(32, 6, 9).unwrap();
    let faults = FaultSet::random_links(&full, 0.1, 41);
    assert!(polarstar_graph::traversal::is_connected(
        &faults.degraded_graph(&full)
    ));
    let spec = NetworkSpec::uniform("masked", full, 2).with_faults(faults);
    let table = RouteTable::for_spec(&spec);
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 800,
        drain_cycles: 6_000,
        seed: 3,
        ..SimConfig::default()
    };
    for kind in [
        RoutingKind::MinMulti,
        RoutingKind::Valiant,
        RoutingKind::ugal4(),
    ] {
        let r = simulate(&spec, &table, kind, &Pattern::Uniform, 0.15, &cfg);
        assert!(r.stable, "{kind:?}: {r:?}");
        assert!(r.delivered_fraction > 0.999, "{kind:?}");
        assert_eq!(r.unroutable, 0, "{kind:?}");
    }
}

/// Failing a router disconnects its endpoints: the run terminates
/// cleanly (no hang, no panic) with a nonzero unroutable count and
/// full delivery of everything that had a path.
#[test]
fn failed_router_yields_unroutable_not_hang() {
    use polarstar_topo::FaultSet;
    let g = polarstar_graph::random::random_regular(24, 5, 2).unwrap();
    let spec = NetworkSpec::uniform("dead-router", g, 2).with_faults(FaultSet::from_routers([3]));
    let table = RouteTable::for_spec(&spec);
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 600,
        drain_cycles: 5_000,
        seed: 8,
        ..SimConfig::default()
    };
    for kind in [
        RoutingKind::MinSingle,
        RoutingKind::Valiant,
        RoutingKind::ugal4(),
    ] {
        let r = simulate(&spec, &table, kind, &Pattern::Uniform, 0.2, &cfg);
        // Router 3's endpoints inject toward, and are targeted by,
        // the rest of the network: both directions drop.
        assert!(r.unroutable > 0, "{kind:?}: {r:?}");
        // Everything with a surviving path drains.
        assert!(r.delivered_fraction > 0.999, "{kind:?}: {r:?}");
    }
}

/// Monitored runs count every unroutable drop (all windows, not just
/// measured) and agree with the SimResult on the measured subset.
#[test]
fn monitor_counts_unroutable_drops() {
    use crate::monitor::MetricsMonitor;
    use polarstar_topo::FaultSet;
    let g = Graph::complete(8);
    let spec = NetworkSpec::uniform("k8-dead", g, 1).with_faults(FaultSet::from_routers([0]));
    let table = RouteTable::for_spec(&spec);
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 600,
        drain_cycles: 4_000,
        seed: 6,
        ..SimConfig::default()
    };
    let mut mon = MetricsMonitor::new(64);
    let r = Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform)
        .run_monitored(0.3, &cfg, &mut mon);
    let rep = mon.report();
    assert!(r.unroutable > 0);
    assert!(
        rep.unroutable >= r.unroutable,
        "monitor {} < result {}",
        rep.unroutable,
        r.unroutable
    );
    assert!(rep.to_json().contains("\"unroutable\""));
}

/// A mid-run failure burst with online repair: packets en route over
/// the dying links are dropped or re-routed, everything else drains,
/// and the run still terminates cleanly after the links return.
#[test]
fn live_burst_reroutes_and_drains() {
    let g = polarstar_graph::random::random_regular(32, 6, 9).unwrap();
    // Link burst plus one dead router: the link cut forces queued
    // packets onto detours (rerouted), the router death cuts off a
    // destination outright (faulted_in_flight).
    let burst = FaultSet::random_links(&g, 0.15, 77).union(&FaultSet::from_routers([5]));
    let spec = NetworkSpec::uniform("live", g, 2);
    let table = RouteTable::for_spec(&spec);
    let schedule = FaultSchedule::new()
        .fail_at(450, burst.clone())
        .recover_at(900, burst);
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 800,
        drain_cycles: 6_000,
        seed: 11,
        fault_schedule: Some(schedule),
        ..SimConfig::default()
    };
    let r = simulate(
        &spec,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        0.55,
        &cfg,
    );
    assert!(r.faulted_in_flight > 0, "{r:?}");
    assert!(r.rerouted > 0, "{r:?}");
    assert!(!r.watchdog_fired, "{r:?}");
    // Dropped measured packets are excluded from the drain equality,
    // so the run still terminates with everything routable delivered.
    assert!(r.delivered_fraction > 0.9, "{r:?}");
}

/// A recovered schedule ends on the pristine epoch: after the links
/// return, routing is exactly the zero-fault table again and a
/// post-recovery run behaves like an unfaulted one (full delivery).
#[test]
fn recovery_restores_full_delivery() {
    let g = Graph::complete(8);
    let spec = NetworkSpec::uniform("k8", g, 2);
    let table = RouteTable::for_spec(&spec);
    let schedule = FaultSchedule::new()
        .fail_link_at(100, 0, 1)
        .recover_link_at(200, 0, 1);
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 1_000,
        drain_cycles: 10_000,
        seed: 12,
        fault_schedule: Some(schedule),
        ..SimConfig::default()
    };
    let r = simulate(
        &spec,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        0.3,
        &cfg,
    );
    // The burst ends before measurement starts at cycle 500, so the
    // measured window sees only the recovered (pristine) epoch.
    assert!(r.stable, "{r:?}");
    assert!(r.delivered_fraction > 0.999, "{r:?}");
    assert_eq!(r.unroutable, 0);
}

/// The acceptance-criterion wedge: fail every link into a hot
/// destination mid-run with a *stale* control plane (no re-route).
/// Head-of-line blocking freezes the whole network; the watchdog must
/// terminate the run in bounded cycles with a diagnostic snapshot —
/// not spin to `hard_end`.
#[test]
fn stale_wedge_fires_watchdog_with_diagnostics() {
    let g = Graph::complete(8);
    let spec = NetworkSpec::uniform("k8-wedge", g, 2);
    let table = RouteTable::for_spec(&spec);
    // All links incident to router 7. from_links (not from_routers):
    // router 7 itself stays alive, so arrivals are not dropped and
    // the stale-routed packets wedge in place.
    let cut = FaultSet::from_links((0..7u32).map(|u| (u, 7)));
    let schedule = FaultSchedule::new().fail_at(300, cut);
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 1_000,
        drain_cycles: 50_000,
        seed: 13,
        fault_schedule: Some(schedule),
        fault_response: FaultResponse::Stale,
        watchdog_cycles: Some(300),
        ..SimConfig::default()
    };
    let mut mon = MetricsMonitor::new(64);
    let r = Simulation::new(&spec, &table, RoutingKind::MinSingle, &Pattern::Uniform)
        .run_monitored(0.4, &cfg, &mut mon);
    assert!(r.watchdog_fired, "{r:?}");
    assert!(!r.stable, "{r:?}");
    let rep = mon.report();
    let diag = rep.watchdog.as_ref().expect("diagnostic snapshot");
    assert!(diag.buffered_packets > 0, "{diag:?}");
    assert_eq!(diag.stalled_cycles, 300);
    assert!(diag.oldest_packet_age > 0, "{diag:?}");
    assert!(!diag.stuck_routers.is_empty(), "{diag:?}");
    // The watchdog fired within warmup + stall bound + slack — far
    // short of the 50k-cycle drain horizon.
    assert!(diag.fired_at < 5_000, "{diag:?}");
    assert!(rep.to_json().contains("\"watchdog\":{"));
}

/// The same wedge under `Reroute` does NOT wedge: the epoch switch
/// re-routes or drops every packet aimed at the now-unreachable hot
/// router and the run terminates without the watchdog.
#[test]
fn reroute_unwedges_the_same_cut() {
    let g = Graph::complete(8);
    let spec = NetworkSpec::uniform("k8-repair", g, 2);
    let table = RouteTable::for_spec(&spec);
    let cut = FaultSet::from_links((0..7u32).map(|u| (u, 7)));
    let schedule = FaultSchedule::new().fail_at(300, cut);
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 1_000,
        drain_cycles: 50_000,
        seed: 13,
        fault_schedule: Some(schedule),
        fault_response: FaultResponse::Reroute,
        watchdog_cycles: Some(300),
        ..SimConfig::default()
    };
    let r = simulate(
        &spec,
        &table,
        RoutingKind::MinSingle,
        &Pattern::Uniform,
        0.4,
        &cfg,
    );
    assert!(!r.watchdog_fired, "{r:?}");
    // Router 7 is unreachable after the cut: packets for it drop —
    // at the epoch switch if buffered, at injection afterwards.
    assert!(r.unroutable > 0, "{r:?}");
}

/// The debug invariant pass (credit conservation, arena conservation,
/// queue bounds) holds through fault epochs on both the sequential
/// and the sharded engine.
#[test]
fn invariants_hold_through_fault_epochs() {
    let g = polarstar_graph::random::random_regular(24, 5, 2).unwrap();
    let burst = FaultSet::random_links(&g, 0.1, 5);
    let spec = NetworkSpec::uniform("inv", g, 2);
    let table = RouteTable::for_spec(&spec);
    let schedule = FaultSchedule::new()
        .fail_at(250, burst.clone())
        .recover_at(600, burst);
    for threads in [None, Some(2)] {
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 600,
            drain_cycles: 5_000,
            seed: 21,
            threads,
            fault_schedule: Some(schedule.clone()),
            invariant_check_every: Some(64),
            ..SimConfig::default()
        };
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.2,
            &cfg,
        );
        assert!(r.delivered_fraction > 0.9, "{threads:?}: {r:?}");
    }
}

/// The same pass after every cycle of a saturated point crossing the
/// burst and its recovery — full VCs, backed-up source buffers, queues
/// drained and re-pushed by the epoch switch (or wedged behind dead
/// links when the control plane is stale) — for both injection paths,
/// both fault responses and both drivers.
#[test]
fn invariants_hold_every_cycle_when_saturated() {
    let g = polarstar_graph::random::random_regular(24, 5, 2).unwrap();
    let burst = FaultSet::random_links(&g, 0.1, 5);
    let spec = NetworkSpec::uniform("inv", g, 2);
    let table = RouteTable::for_spec(&spec);
    let schedule = FaultSchedule::new()
        .fail_at(250, burst.clone())
        .recover_at(600, burst);
    for kind in [RoutingKind::MinMulti, RoutingKind::ugal4()] {
        for fault_response in [FaultResponse::Reroute, FaultResponse::Stale] {
            for threads in [None, Some(2)] {
                let cfg = SimConfig {
                    warmup_cycles: 200,
                    measure_cycles: 600,
                    drain_cycles: 2_000,
                    seed: 22,
                    threads,
                    fault_schedule: Some(schedule.clone()),
                    fault_response,
                    invariant_check_every: Some(1),
                    ..SimConfig::default()
                };
                let r = simulate(&spec, &table, kind, &Pattern::Uniform, 0.9, &cfg);
                let what = (kind, fault_response, threads);
                assert!(
                    r.measured_ejected > 0 && !r.watchdog_fired,
                    "{what:?}: {r:?}"
                );
            }
        }
    }
}

/// 60 000 packets per VC is inside the `u16` credit counters, so
/// `validate` accepts it, and the engine's state follows what is
/// buffered: the points run. With a `cap`-slot ring per queue the PS-IQ
/// one asked for 85 120 × 60 000 × 4 B = 20.4 GB and aborted the
/// process (`memory allocation of 20428800000 bytes failed`) — an
/// abort, not a panic, which is why no `should_panic` records it.
#[test]
fn deep_buffers_run() {
    let cfg = SimConfig {
        buf_flits_per_port: 960_000,
        warmup_cycles: 100,
        measure_cycles: 200,
        drain_cycles: 2_000,
        seed: 23,
        ..SimConfig::default()
    };
    assert_eq!(cfg.queue_capacity_pkts(), 60_000);
    assert_eq!(cfg.validate(), Ok(()));
    let g = polarstar_graph::random::random_regular(24, 5, 2).unwrap();
    let ps_iq = polarstar::design::best_config(15).unwrap();
    for spec in [
        NetworkSpec::uniform("deep", g, 2),
        polarstar::network::PolarStarNetwork::build(ps_iq, 5)
            .unwrap()
            .spec,
    ] {
        let table = RouteTable::for_spec(&spec);
        let kind = RoutingKind::MinMulti;
        let r = simulate(&spec, &table, kind, &Pattern::Uniform, 0.2, &cfg);
        assert!(r.stable && r.measured_ejected > 0, "{}: {r:?}", spec.name);
    }
}

#[test]
fn barrier_synchronizes_counter_phases() {
    let threads = 4;
    let rounds = 200;
    let barrier = SpinBarrier::new(threads);
    let counter = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for round in 0..rounds {
                    counter.fetch_add(1, Ordering::Relaxed);
                    barrier.wait();
                    // Between barriers every thread observes the
                    // full round's increments.
                    let seen = counter.load(Ordering::Relaxed);
                    assert!(
                        seen >= (round + 1) * threads as u64,
                        "round {round}: saw {seen}"
                    );
                    barrier.wait();
                }
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), rounds * threads as u64);
}
