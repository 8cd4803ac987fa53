//! Negotiated-routing determinism: the PathFinder loop is a pure
//! function of `(seed, iteration)`, so the full [`NegotiatedRoutes`]
//! table — chosen paths, link loads, historic costs, convergence curve —
//! must be identical (exact `PartialEq`) across rayon pool widths and
//! rebuilds. `bins_smoke.rs` additionally pins the `negotiate_sweep`
//! CSV byte-for-byte across widths.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::flow::{FlowPlan, FlowRouting, TrafficComponent};
use polarstar_netsim::negotiate::NegotiatedRoutes;
use polarstar_netsim::routing::RouteTable;
use polarstar_netsim::traffic::{engine_resolve_seed, Pattern};
use polarstar_topo::network::NetworkSpec;

fn setup(pattern: Pattern, seed: u64) -> (NetworkSpec, RouteTable, FlowPlan) {
    // The radix-9 PolarStar used by the engine determinism suite.
    let spec = PolarStarNetwork::build(best_config(9).unwrap(), 2)
        .unwrap()
        .spec;
    let table = RouteTable::for_spec(&spec);
    let comps = [TrafficComponent::new(pattern, engine_resolve_seed(seed))];
    let plan = FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
    (spec, table, plan)
}

/// The negotiated table is identical whether candidate enumeration runs
/// on a 1-thread or a 4-thread rayon pool, and across rebuilds on the
/// same pool — the fan-out width never shows in the result.
#[test]
fn negotiated_routes_identical_across_rayon_widths() {
    let (spec, table, plan) = setup(Pattern::AdversarialGroup, 99);
    let build = || NegotiatedRoutes::negotiate(&spec, &table, &plan, 99);
    let baseline = build();
    assert!(baseline.converged(), "adversarial negotiation must settle");
    assert_eq!(baseline, build(), "rebuild on the ambient pool diverges");
    // The rayon shim reads RAYON_NUM_THREADS per fan-out, so widths can
    // be pinned in-process. Determinism is exactly the property that
    // makes this env flip harmless to concurrently running tests.
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    for width in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", width);
        let alt = build();
        assert_eq!(baseline, alt, "diverges at RAYON_NUM_THREADS={width}");
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}

/// Convergence is a real claim: whenever the negotiation reports
/// `converged`, no link is loaded past the capacity it settled on —
/// across seeds and patterns.
#[test]
fn converged_negotiation_has_zero_overused_links() {
    for pattern in [Pattern::AdversarialGroup, Pattern::Permutation] {
        for seed in [0u64, 7, 99] {
            let (spec, table, plan) = setup(pattern.clone(), seed);
            let neg = NegotiatedRoutes::negotiate(&spec, &table, &plan, seed);
            if neg.converged() {
                assert_eq!(
                    neg.overused_links(),
                    0,
                    "{} seed {seed}: converged with overuse",
                    pattern.label()
                );
            }
            // The MIN single path is always candidate 0, so negotiation
            // never does worse than the single-path baseline.
            let mll_min = FlowPlan::build(
                &spec,
                &table,
                &[TrafficComponent::new(
                    pattern.clone(),
                    engine_resolve_seed(seed),
                )],
                FlowRouting::SinglePath,
            )
            .network()
            .max_net_unit_load();
            assert!(
                neg.max_link_load() <= mll_min + 1e-9,
                "{} seed {seed}: negotiated {} above MIN {}",
                pattern.label(),
                neg.max_link_load(),
                mll_min
            );
        }
    }
}
