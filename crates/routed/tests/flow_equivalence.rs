//! Byte-identity pins for the class-batched flow build: `FlowPlan`
//! (one oracle query per unique router pair, bulk distance columns,
//! rayon-sharded by destination group) must materialize a `FlowNetwork`
//! **equal in every field** to the naive per-flow reference build, on
//! both serving backends (table-free analytic and CSR route table),
//! pristine and fault-masked (cut cables, dead routers, one-way link
//! faults), across every traffic pattern and routing mode. CI runs this file at `RAYON_NUM_THREADS=1` and `=4`: the
//! batched build must not depend on the pool size.
//!
//! Also pins the fault-epoch sweep: walking `FlowPlan::advance_epoch`
//! through nested fault epochs (reusing cached pair DAGs for untouched
//! pairs, single paths included), a router failure and a recovery must
//! land on the same network as a fresh batched build against the
//! re-masked oracle. And the one path rule across backends: a
//! single-path network is the same whichever global oracle routed it.

use polarstar::design::{best_config, best_config_with, PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::{FlowDemand, FlowNetwork, FlowPlan, FlowRouting, Pattern, TrafficComponent};
use polarstar_routed::{AnalyticOracle, Oracle};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::PathOracle;
use std::sync::Arc;

/// q=3 Inductive-Quad PolarStar: 104 routers — big enough to exercise
/// real ECMP DAGs (diameter 3), small enough for a full pattern matrix.
fn small_config() -> PolarStarConfig {
    PolarStarConfig {
        q: 3,
        supernode: SupernodeKind::InductiveQuad { degree: 3 },
    }
}

const PATTERNS: [Pattern; 5] = [
    Pattern::Uniform,
    Pattern::Permutation,
    Pattern::BitShuffle,
    Pattern::BitReverse,
    Pattern::AdversarialGroup,
];

/// Batched and reference builds must agree field-for-field, and their
/// solves bit-for-bit, for every pattern × routing combination.
fn check_matrix<O: PathOracle + Sync>(spec: &NetworkSpec, oracle: &O, label: &str) {
    for pattern in &PATTERNS {
        for routing in [FlowRouting::EcmpSplit, FlowRouting::SinglePath] {
            let comps = [TrafficComponent::new(pattern.clone(), 42)];
            let plan = FlowPlan::build(spec, oracle, &comps, routing);
            assert!(
                plan.num_pairs() <= plan.flows().len().max(1),
                "{label}: more unique pairs than flows"
            );
            let batched = plan.network();
            let reference = FlowNetwork::build_reference(spec, oracle, &comps, routing);
            assert!(
                batched == reference,
                "{label} {} {}: batched build diverged from per-flow reference",
                pattern.label(),
                routing.label()
            );
            for offered in [0.3, 0.9] {
                assert_eq!(
                    batched.solve(offered),
                    reference.solve(offered),
                    "{label} {} {} @{offered}",
                    pattern.label(),
                    routing.label()
                );
            }
        }
    }
}

#[test]
fn batched_build_matches_reference_on_analytic_oracle() {
    let net = PolarStarNetwork::build(small_config(), 2).unwrap();
    let spec = net.spec.clone();
    let analytic = AnalyticOracle::new(net);
    check_matrix(&spec, &analytic, "analytic pristine");
    // Fault-masked: distance columns switch to the repaired envelope
    // read under the compiled mask; the reference build asks per
    // query and never sees a column. Cut cables, then dead routers,
    // then one direction of each cable (where a port may stay usable
    // on an edge the distance relation dropped).
    let cables = FaultSet::random_links(&spec.graph, 0.08, 5);
    check_matrix(&spec, &analytic.remask(&cables), "analytic faulted");
    let routers = FaultSet::random_routers(&spec.graph, 0.04, 5);
    assert!(!routers.is_empty());
    check_matrix(&spec, &analytic.remask(&routers), "analytic dead routers");
    let one_way = cables.failed_links().iter().copied();
    let one_way = FaultSet::from_directed_links(one_way.filter(|&(u, v)| (u < v) == (u % 2 == 0)));
    assert!(!one_way.is_empty());
    check_matrix(&spec, &analytic.remask(&one_way), "analytic one-way");
}

#[test]
fn batched_build_matches_reference_on_table_oracle() {
    let net = PolarStarNetwork::build(small_config(), 2).unwrap();
    let spec = net.spec.clone();
    let table = Oracle::new(Arc::new(spec.clone()));
    check_matrix(&spec, &table, "table pristine");
    // The table backend reports no bulk column support, so this pins
    // the per-pair fallback path of the batched build.
    let faults = FaultSet::random_links(&spec.graph, 0.08, 5);
    let masked = table.remask(&faults, 1);
    check_matrix(&spec, &masked, "table masked");
}

#[test]
fn batched_build_matches_reference_on_paley_polarstar() {
    // Spot check on the other supernode family, with a stacked
    // weighted foreground + scaled background overlay.
    let cfg = PolarStarConfig {
        q: 5,
        supernode: SupernodeKind::Paley { degree: 2 },
    };
    let net = PolarStarNetwork::build(cfg, 2).unwrap();
    let spec = net.spec.clone();
    let analytic = AnalyticOracle::new(net);
    let mut weights = vec![1.0; spec.total_endpoints()];
    for (e, w) in weights.iter_mut().enumerate() {
        if e % 3 == 0 {
            *w = 2.5;
        }
    }
    let comps = [
        TrafficComponent::with_demand(Pattern::BitShuffle, 9, FlowDemand::PerSource(weights)),
        TrafficComponent::with_demand(Pattern::Uniform, 10, FlowDemand::Scaled(0.25)),
    ];
    for routing in [FlowRouting::EcmpSplit, FlowRouting::SinglePath] {
        let batched = FlowPlan::build(&spec, &analytic, &comps, routing).network();
        let reference = FlowNetwork::build_reference(&spec, &analytic, &comps, routing);
        assert!(
            batched == reference,
            "paley weighted {}: batched build diverged",
            routing.label()
        );
        assert_eq!(batched.solve(0.7), reference.solve(0.7));
        assert!(batched.demands().is_some(), "weighted build keeps demands");
    }
}

#[test]
fn epoch_advance_matches_fresh_batched_build() {
    let net = PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap();
    let spec = net.spec.clone();
    let pristine = AnalyticOracle::new(net);
    let comps = [TrafficComponent::new(Pattern::Permutation, 7)];
    // Shuffled-prefix sampling nests: f2 ⊇ f1, so f1 → f2 exercises the
    // cached-DAG reuse path, f2 → f3 the same with a router dying (its
    // links dirty the DAGs, none is named in the mask), and f3 → f1 the
    // recovery (full re-route).
    let f1 = FaultSet::random_links(&spec.graph, 0.03, 11);
    let f2 = FaultSet::random_links(&spec.graph, 0.08, 11);
    let f3 = f2.union(&FaultSet::from_routers([spec.routers() as u32 / 2]));
    for routing in [FlowRouting::EcmpSplit, FlowRouting::SinglePath] {
        let mut plan = FlowPlan::build(&spec, &pristine, &comps, routing);
        let mut prev = FaultSet::empty();
        for fs in [f1.clone(), f2.clone(), f3.clone(), f1.clone()] {
            let oracle = pristine.remask(&fs);
            plan.advance_epoch(&spec, &oracle, &prev, &fs);
            let fresh = FlowPlan::build(&spec, &oracle, &comps, routing);
            assert!(
                plan.network() == fresh.network(),
                "{} diverged after epoch with {} failed links, {} failed routers",
                routing.label(),
                fs.failed_links().len(),
                fs.failed_routers().len()
            );
            prev = fs;
        }
    }
}

/// The radix-12 Paley PolarStar at 5 endpoints per router.
fn ps_pal12() -> PolarStarNetwork {
    PolarStarNetwork::build(best_config_with(12, false).unwrap(), 5).unwrap()
}

#[test]
fn single_path_network_is_the_same_on_both_backends() {
    // Every global oracle answers `path` with the lexicographically
    // first minimal path, so a single-path flow build cannot depend on
    // which backend routed it — pristine or faulted.
    let net = ps_pal12();
    let spec = net.spec.clone();
    let analytic = AnalyticOracle::new(net);
    let table = Oracle::new(Arc::new(spec.clone()));
    let comps = [TrafficComponent::new(Pattern::AdversarialGroup, 7)];
    let links = FaultSet::random_links(&spec.graph, 0.02, 7);
    for (label, faults) in [("pristine", FaultSet::empty()), ("2 % links", links)] {
        let a = FlowPlan::build(
            &spec,
            &analytic.remask(&faults),
            &comps,
            FlowRouting::SinglePath,
        );
        let t = FlowPlan::build(
            &spec,
            &table.remask(&faults, 1),
            &comps,
            FlowRouting::SinglePath,
        );
        let (a, t) = (a.network(), t.network());
        assert!(
            a == t,
            "{label}: single-path networks differ across backends"
        );
        assert_eq!(a.solve(1.0), t.solve(1.0), "{label}");
    }
}

#[test]
fn single_path_epoch_walk_reroutes_dirty_pairs_only() {
    // Five epochs of monotone growth — links, then a dead router, then
    // more links — on three PolarStars × three patterns, through both
    // backends: every step equals a fresh build, and some step reuses
    // cached single paths (re-routes fewer pairs than the plan holds).
    let nets = [
        PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap(),
        ps_pal12(),
        PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap(),
    ];
    let patterns = [
        Pattern::Uniform,
        Pattern::AdversarialGroup,
        Pattern::Permutation,
    ];
    for net in nets {
        let spec = net.spec.clone();
        let g = &spec.graph;
        let dead = FaultSet::from_routers([spec.routers() as u32 / 3]);
        let schedule = [
            FaultSet::random_links(g, 0.01, 3),
            FaultSet::random_links(g, 0.02, 3),
            FaultSet::random_links(g, 0.02, 3).union(&dead),
            FaultSet::random_links(g, 0.04, 3).union(&dead),
            FaultSet::random_links(g, 0.06, 3).union(&dead),
        ];
        let analytic = AnalyticOracle::new(net);
        let table = Oracle::new(Arc::new(spec.clone()));
        let epochs: Vec<_> = schedule
            .iter()
            .map(|fs| (analytic.remask(fs), table.remask(fs, 1)))
            .collect();
        for pattern in &patterns {
            let comps = [TrafficComponent::new(pattern.clone(), 7)];
            let label =
                |backend, step| format!("{} {} {backend} epoch {step}", spec.name, pattern.label());
            let mut walks = (
                FlowPlan::build(&spec, &analytic, &comps, FlowRouting::SinglePath),
                FlowPlan::build(&spec, &table, &comps, FlowRouting::SinglePath),
            );
            let mut prev = FaultSet::empty();
            let mut reused = false;
            for (step, (fs, (a, t))) in schedule.iter().zip(&epochs).enumerate() {
                let rerouted = walks.0.advance_epoch(&spec, a, &prev, fs);
                assert_eq!(rerouted, walks.1.advance_epoch(&spec, t, &prev, fs));
                reused |= rerouted < walks.0.num_pairs();
                let fresh = FlowPlan::build(&spec, a, &comps, FlowRouting::SinglePath).network();
                assert!(walks.0.network() == fresh, "{}", label("analytic", step));
                let fresh = FlowPlan::build(&spec, t, &comps, FlowRouting::SinglePath).network();
                assert!(walks.1.network() == fresh, "{}", label("table", step));
                prev = fs.clone();
            }
            assert!(
                reused,
                "{} {}: every epoch re-routed every pair",
                spec.name,
                pattern.label()
            );
        }
    }
}
