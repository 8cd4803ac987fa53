//! End-to-end simulation tests spanning topology construction, routing
//! tables, traffic generation and the cycle engine — the Figure 9/10
//! methodology on reduced-size networks.

use polarstar::design::{best_config, PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_repro::netsim::engine::{simulate, SimConfig, SimResult, Simulation};
use polarstar_repro::netsim::routing::{RouteTable, RoutingKind};
use polarstar_repro::netsim::stats::{cross_validate, saturation_search};
use polarstar_repro::netsim::traffic::Pattern;
use polarstar_repro::topo::dragonfly::{dragonfly, DragonflyParams};
use polarstar_repro::topo::network::NetworkSpec;
use polarstar_repro::topo::FaultSchedule;

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 400,
        measure_cycles: 1_000,
        drain_cycles: 8_000,
        seed,
        ..SimConfig::default()
    }
}

fn small_polarstar(p: u32) -> NetworkSpec {
    let c = best_config(9).unwrap(); // ER_5 * IQ_3 = 248 routers
    let mut net = PolarStarNetwork::build(c, p).unwrap().spec;
    net.name = "PS".into();
    net
}

/// §9.5: PolarStar sustains high uniform load with minimal routing.
#[test]
fn polarstar_uniform_min_sustains_majority_load() {
    let net = small_polarstar(3);
    let table = RouteTable::for_spec(&net);
    let r = simulate(
        &net,
        &table,
        RoutingKind::MinMulti,
        &Pattern::Uniform,
        0.6,
        &cfg(1),
    );
    assert!(r.stable, "PolarStar at 60% uniform load: {r:?}");
    assert!(r.avg_latency < 100.0, "latency {}", r.avg_latency);
}

/// §9.6 / Figure 10: under adversarial group traffic, PolarStar (many
/// links per supernode pair) saturates later than Dragonfly (one link
/// per group pair) at matched endpoints-per-router.
#[test]
fn adversarial_polarstar_beats_dragonfly() {
    let ps = small_polarstar(3);
    let df = {
        let mut net = dragonfly(DragonflyParams { a: 6, h: 3, p: 3 });
        net.name = "DF".into();
        net
    };
    let pst = RouteTable::for_spec(&ps);
    // BookSim's Dragonfly MIN is hierarchical: local, one global, local
    // (the policy the Dragonfly spec carries).
    let dft = RouteTable::for_spec(&df);
    let adversarial = |net, table| {
        let sim = Simulation::new(
            net,
            table,
            RoutingKind::MinMulti,
            &Pattern::AdversarialGroup,
        );
        saturation_search(&sim, &cfg(2), 0.05)
    };
    let sat_ps = adversarial(&ps, &pst);
    let sat_df = adversarial(&df, &dft);
    assert!(
        sat_ps > sat_df,
        "PolarStar adversarial saturation {sat_ps} must exceed Dragonfly {sat_df}"
    );
}

/// UGAL never collapses below MIN's saturation on permutation traffic.
#[test]
fn ugal_reasonable_on_permutation() {
    let net = small_polarstar(3);
    let table = RouteTable::for_spec(&net);
    let sim = Simulation::new(&net, &table, RoutingKind::ugal4(), &Pattern::Permutation);
    let highest_stable = [0.1, 0.3, 0.5]
        .into_iter()
        .filter(|&load| sim.run(load, &cfg(3)).stable)
        .fold(0.0, f64::max);
    assert!(
        highest_stable >= 0.3,
        "UGAL permutation saturation {highest_stable}"
    );
}

/// Bit patterns run end-to-end on a hierarchical network and deliver.
#[test]
fn bit_patterns_deliver() {
    let net = small_polarstar(2);
    let table = RouteTable::for_spec(&net);
    for pattern in [Pattern::BitShuffle, Pattern::BitReverse] {
        let r = simulate(&net, &table, RoutingKind::MinMulti, &pattern, 0.1, &cfg(4));
        assert!(r.measured_ejected > 0, "{pattern:?} delivered nothing");
        assert!(r.stable, "{pattern:?} unstable at 10% load");
    }
}

/// Simulation determinism across an entire sweep (same seed, same
/// numbers), which the recorded EXPERIMENTS.md relies on.
#[test]
fn sweeps_are_reproducible() {
    let net = small_polarstar(2);
    let table = RouteTable::for_spec(&net);
    let sim = Simulation::new(&net, &table, RoutingKind::MinMulti, &Pattern::Uniform);
    for load in [0.2, 0.4] {
        let (x, y) = (sim.run(load, &cfg(5)), sim.run(load, &cfg(5)));
        assert_eq!(x.avg_latency, y.avg_latency);
        assert_eq!(x.measured_ejected, y.measured_ejected);
    }
}

/// The flow model and the cycle engine describe one network: on
/// PS-q3-IQ3 under permutation traffic — both sides routing the same
/// resolved pairs — their θ = 0.97 throughput-saturation loads agree
/// within 10 % and their delivered fractions at the 1.5× overload probe
/// within 0.02 (`flow_sweep` records the same point at longer windows).
#[test]
fn flow_model_matches_cycle_engine_on_permutation() {
    let ps = PolarStarConfig {
        q: 3,
        supernode: SupernodeKind::InductiveQuad { degree: 3 },
    };
    let net = PolarStarNetwork::build(ps, 4).unwrap().spec;
    let table = RouteTable::for_spec(&net);
    let xval_cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 1_500,
        drain_cycles: 6_000,
        seed: 0xF10,
        ..SimConfig::default()
    };
    let x = cross_validate(&net, &table, &Pattern::Permutation, &xval_cfg, 0.02);
    assert_eq!(x.flows, 412, "{x:?}");
    x.check().unwrap_or_else(|e| panic!("{e}: {x:?}"));
}

/// Two cells of `crates/netsim/tests/engine_pin.rs` (same networks,
/// seeds and literal goldens, recorded before the engine's routing
/// surface was collapsed), mirrored so the tier-1 suite pins the engine
/// against recorded numbers and not only against itself: one MIN point
/// on a flat table, one live-fault point on a hierarchical table that
/// re-routes, drops in flight and drops at injection. Never regenerate
/// for a refactor.
#[test]
fn engine_matches_recorded_goldens() {
    let pin_cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 400,
        drain_cycles: 2_500,
        seed: 0xE9,
        ..SimConfig::default()
    };
    let ps = PolarStarNetwork::build(
        PolarStarConfig {
            q: 3,
            supernode: SupernodeKind::InductiveQuad { degree: 3 },
        },
        2,
    )
    .unwrap()
    .spec;
    let table = RouteTable::for_spec(&ps);
    assert_eq!(
        simulate(
            &ps,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.3,
            &pin_cfg
        ),
        SimResult {
            offered: 0.3,
            accepted: 0.2932692307692308,
            avg_latency: 18.66655743077175,
            p99_latency: 32.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6103,
            avg_hops: 2.4943470424381453,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
        "ps/min_multi/pristine"
    );

    let df = dragonfly(DragonflyParams { a: 4, h: 2, p: 2 });
    let table = RouteTable::for_spec(&df);
    let burst_cfg = SimConfig {
        fault_schedule: Some(FaultSchedule::random_burst(
            &df.graph,
            0.05,
            0xFA17,
            300,
            Some(450),
        )),
        ..pin_cfg
    };
    assert_eq!(
        simulate(
            &df,
            &table,
            RoutingKind::Valiant,
            &Pattern::Uniform,
            0.3,
            &burst_cfg
        ),
        SimResult {
            offered: 0.3,
            accepted: 0.26944444444444443,
            avg_latency: 49.081862745098036,
            p99_latency: 228.0,
            delivered_fraction: 0.9951219512195122,
            stable: false,
            measured_ejected: 2040,
            avg_hops: 4.708823529411765,
            unroutable: 66,
            faulted_in_flight: 10,
            rerouted: 7,
            watchdog_fired: false,
        },
        "df/valiant/burst_reroute"
    );
}
