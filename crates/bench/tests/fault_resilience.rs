//! Degraded-network properties over the full Table 3 registry: light
//! fault sets must leave every pair routable, heavy ones must surface as
//! typed errors / counted drops — and in both regimes every simulator
//! must terminate cleanly instead of hanging or panicking.

use bench::{table3_network, TABLE3_KEYS};
use polarstar::design::{PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_motifs::netmodel::{MotifConfig, MotifError, NetModel, RoutingMode};
use polarstar_netsim::routing::{RouteTable, RoutingKind};
use polarstar_netsim::traffic::Pattern;
use polarstar_netsim::{simulate, SimConfig};
use polarstar_topo::network::{NetworkSpec, RoutingPolicy};
use polarstar_topo::FaultSet;
use proptest::prelude::*;

fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 150,
        measure_cycles: 300,
        drain_cycles: 3_000,
        seed: 5,
        ..SimConfig::default()
    }
}

/// A deterministic spread of router pairs (src ≠ dst) across the network.
fn sample_pairs(n: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for i in 0..16u32 {
        let src = (i as usize * n / 16) as u32;
        let dst = ((i as usize * n / 16 + n / 2 + i as usize) % n) as u32;
        if src != dst {
            pairs.push((src, dst));
        }
    }
    pairs
}

/// Below the connectivity threshold (2% failed links on these
/// degree-≥13 graphs) every motif-level send still finds a path, and
/// flat-policy route tables keep every pair reachable.
#[test]
fn light_faults_keep_sends_routable() {
    for key in TABLE3_KEYS {
        let pristine = table3_network(key).expect(key);
        let faults = FaultSet::random_links(&pristine.graph, 0.02, 7);
        assert!(!faults.is_empty(), "{key}: no faults drawn");
        let spec = pristine.with_faults(faults);

        let model = NetModel::new(spec.clone(), MotifConfig::default());
        for (src, dst) in sample_pairs(spec.graph.n()) {
            assert!(
                model.min_path(src, dst).is_some(),
                "{key}: {src}->{dst} lost below threshold"
            );
        }

        if spec.routing_policy() == RoutingPolicy::FlatMinimal {
            let table = RouteTable::for_spec(&spec);
            let n = spec.graph.n() as u32;
            for src in 0..n {
                for dst in 0..n {
                    assert!(
                        table.is_reachable(src, dst),
                        "{key}: table {src}->{dst} unreachable below threshold"
                    );
                }
            }
        }
    }
}

/// Killing an endpoint-bearing router severs its traffic: motif sends
/// report [`MotifError::Disconnected`], the cycle engine counts
/// `unroutable` drops — and both still terminate.
#[test]
fn heavy_faults_error_and_terminate_cleanly() {
    for key in TABLE3_KEYS {
        let pristine = table3_network(key).expect(key);
        let victim = pristine.endpoint_routers()[0];
        let spec = pristine.with_faults(FaultSet::from_routers([victim]));

        let mut model = NetModel::new(spec.clone(), MotifConfig::default());
        let other = spec
            .endpoint_routers()
            .into_iter()
            .find(|&r| r != victim)
            .unwrap();
        assert_eq!(
            model.send_routers(other, victim, 4096, 0, RoutingMode::Min),
            Err(MotifError::Disconnected {
                src: other,
                dst: victim,
                motif: None
            }),
            "{key}: send into failed router must error"
        );

        let table = RouteTable::for_spec(&spec);
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.2,
            &cfg(),
        );
        assert!(r.unroutable > 0, "{key}: no unroutable drops: {r:?}");
        assert!(r.stable, "{key}: degraded run did not drain: {r:?}");
        assert!(
            r.delivered_fraction > 0.99,
            "{key}: routable traffic lost: {r:?}"
        );
    }
}

/// Oversized fault fractions on a small network: everything may sever,
/// but construction, routing and simulation must still complete.
#[test]
fn extreme_faults_never_panic() {
    let g = polarstar_graph::Graph::cycle(12);
    for frac in [0.5, 1.0] {
        let faults = FaultSet::random_links(&g, frac, 3);
        let spec = NetworkSpec::uniform("c12", g.clone(), 1).with_faults(faults);
        let table = RouteTable::for_spec(&spec);
        let r = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.3,
            &cfg(),
        );
        // `stable` may legitimately be false (offered load can't be
        // accepted when most destinations are unroutable); clean
        // termination means every routable packet drained.
        assert!(
            (r.delivered_fraction - 1.0).abs() < 1e-9,
            "frac {frac}: {r:?}"
        );
        let mut model = NetModel::new(spec, MotifConfig::default());
        for src in 0..12u32 {
            // Ok or Err are both fine; panicking is not.
            let _ = model.send_routers(src, (src + 5) % 12, 1024, 0, RoutingMode::Min);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cross-model parity under mixed masks: the motif model routes a
    /// network with one-directional faults exactly as a freshly masked
    /// flat table does — distances drop a half-dead cable, ports need
    /// only their own direction alive. Every `ecmp_path` hop is a
    /// `min_ports` port, `min_path` takes the first one, and hop counts
    /// are the table's distances.
    #[test]
    fn motif_paths_follow_the_masked_table(seed in 0u64..1_000_000, frac_pct in 2u32..20) {
        let cfg = PolarStarConfig {
            q: 3,
            supernode: SupernodeKind::InductiveQuad { degree: 3 },
        };
        let pristine = PolarStarNetwork::build(cfg, 2).unwrap().spec;
        // A random set of cables; about half of them lose one direction
        // only (the `u > v` one, picked by a seed-keyed parity).
        let cables = FaultSet::random_links(&pristine.graph, f64::from(frac_pct) / 100.0, seed);
        let directed = cables
            .failed_links()
            .iter()
            .copied()
            .filter(|&(u, v)| u < v || (u ^ v ^ seed as u32) & 1 == 0);
        let spec = pristine.with_faults(FaultSet::from_directed_links(directed));
        let g = &spec.graph;
        let table = RouteTable::for_spec(&spec);
        let mut model = NetModel::new(spec.clone(), MotifConfig::default());
        let n = g.n() as u32;
        for src in 0..n {
            for dst in (src % 3..n).step_by(3) {
                let paths = [(model.min_path(src, dst), true), (model.ecmp_path(src, dst), false)];
                for (path, first_port) in paths {
                    let Some(path) = path else {
                        prop_assert!(!table.is_reachable(src, dst), "{src}->{dst} lost");
                        continue;
                    };
                    prop_assert_eq!(path.len(), table.distance(src, dst) as usize, "{}->{}", src, dst);
                    let mut cur = src;
                    for e in path {
                        prop_assert_eq!(g.edge_source(e), cur);
                        let port = (e - g.edge_range(cur).start) as u8;
                        let ports: Vec<u8> = table.min_ports(cur, dst).collect();
                        if first_port {
                            prop_assert_eq!(port, ports[0], "{}->{} at {}", src, dst, cur);
                        } else {
                            prop_assert!(ports.contains(&port), "{src}->{dst} at {cur}: port {port}");
                        }
                        cur = g.edge_target(e);
                    }
                    prop_assert_eq!(cur, dst);
                }
            }
        }
    }
}
