//! Gates on the typed rows of the quick `edst_sweep` and of the PS-IQ
//! adversarial negotiation — the assertions CI used to make in inline
//! python over a third serialization of the same rows. Bounds other
//! suites already hold are not repeated here: the lose-one-tree bound
//! is `edst_properties::star_products_survive_any_single_tree_loss`,
//! "converged ⇒ no overused link" and "never above MIN" are
//! `negotiate_determinism::converged_negotiation_has_zero_overused_links`.

use bench::edst_sweep::{run_sweep, Sweep, KEYS};
use bench::negotiate_sweep::negotiation;
use bench::table3_network;
use polarstar_netsim::flow::{FlowPlan, FlowRouting, TrafficComponent};
use polarstar_netsim::routing::RouteTable;
use polarstar_netsim::traffic::{engine_resolve_seed, Pattern};

/// The quick sweep at a pinned rayon width. The shim reads
/// `RAYON_NUM_THREADS` per fan-out, and the sweeps are deterministic at
/// any width, so flipping it under concurrently running tests is
/// harmless (cf. `negotiate_determinism.rs`).
fn quick_sweep_at(width: &str) -> Vec<Sweep> {
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", width);
    let sweeps = run_sweep(&KEYS, true);
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    sweeps.into_iter().map(|s| s.expect("sweep")).collect()
}

#[test]
fn quick_edst_sweep_stripes_beat_one_tree_at_any_rayon_width() {
    let sweeps = quick_sweep_at("1");
    // The two Table 3 star products; PS-d9 at the quick 1 MB payload
    // earns bytes on one tree only and is there for the ring baseline.
    for (key, s) in KEYS.iter().zip(&sweeps).take(2) {
        // The sweep packs with the factor-aware composition, not the
        // blind greedy peel (4–5 trees).
        assert!(s.trees >= 6, "{key}: {} trees", s.trees);
        // The lose-k ideal is computed over byte-earning trees.
        assert!(
            (2..=s.trees).contains(&s.effective_trees),
            "{key}: {} effective of {}",
            s.effective_trees,
            s.trees
        );
        let us = |motif| s.completion_us(motif, 0).expect(motif);
        assert!(
            us("striped_bcast") < us("single_tree_bcast"),
            "{key}: striping must beat one tree"
        );
        let repair = s.rows.iter().find(|r| r.motif == "striped_bcast_repair");
        let repair = repair.expect("repair row").completion_us;
        assert!(repair.is_finite() && repair > 0.0, "{key}: repair {repair}");
    }
    // Only the small config affords the ring baseline.
    let ring = |s: &Sweep| s.completion_us("ring_allreduce", 0);
    assert!(ring(&sweeps[2]).is_some_and(|us| us > 0.0));
    assert_eq!(ring(&sweeps[0]), None);

    let wide = quick_sweep_at("4");
    for ((key, a), b) in KEYS.iter().zip(&sweeps).zip(&wide) {
        assert_eq!(
            (a.trees, a.effective_trees, &a.rows),
            (b.trees, b.effective_trees, &b.rows),
            "{key}: rows differ at width 4"
        );
    }
}

/// On adversarial PS-IQ traffic the negotiation settles and cuts the
/// flow-level max link load by ≥ 20 % against the MIN single-path
/// baseline (recorded: 10 → 5, `metrics/negotiate_PS-IQ_adversarial.json`).
#[test]
fn psiq_adversarial_negotiation_converges_well_below_min() {
    let spec = table3_network("PS-IQ").unwrap();
    let table = RouteTable::for_spec(&spec);
    let (n, _) = negotiation(&spec, &table, &Pattern::AdversarialGroup, 99);
    assert!(n.converged, "{n:?}");
    assert!(n.reduction_vs_min >= 0.20, "{n:?}");
}

/// The oracle the flow layer reads is the assignment the negotiation
/// scored: a single-path network built over the negotiated routes
/// carries exactly the max link load the negotiation reports.
#[test]
fn flow_network_over_negotiated_routes_carries_the_negotiated_load() {
    for (key, pattern) in [
        ("PS-IQ", Pattern::AdversarialGroup),
        ("SF", Pattern::Permutation),
    ] {
        let spec = table3_network(key).unwrap();
        let table = RouteTable::for_spec(&spec);
        let (_, neg) = negotiation(&spec, &table, &pattern, 99);
        let comps = [TrafficComponent::new(pattern, engine_resolve_seed(99))];
        let net = FlowPlan::build(&spec, &neg, &comps, FlowRouting::SinglePath).network();
        assert_eq!(net.unroutable(), 0, "{key}");
        assert_eq!(net.max_net_unit_load(), neg.max_link_load(), "{key}");
    }
}
