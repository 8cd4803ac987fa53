//! Equivalence pins for the table-free backend: [`AnalyticOracle`] must
//! answer exactly like the CSR `RouteTable` backend — equal distances
//! (or equally unreachable), the same full ascending minimal next-hop
//! sets, the same first next hop and the same lexicographic `k_paths` —
//! and exactly like the trait-provided generic walks over its own
//! `distance` / `min_next_hops`, on the degenerate ER(5) PolarStar, the
//! Table 3 PS-IQ config, and proptest-drawn link, directed-link and
//! router fault masks on an Inductive-Quad and a Paley PolarStar. The
//! batched query paths stay byte-identical between the sequential and
//! rayon-sharded routes with the analytic backend, at any
//! `RAYON_NUM_THREADS` (CI runs this file at 1 and 4).

use polarstar::design::{best_config, PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_routed::{AnalyticOracle, Oracle, QueryBatch, Regime};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::{PathOracle, RouteError};
use proptest::prelude::*;
use std::sync::Arc;

/// q=3 Inductive-Quad PolarStar: 104 routers, cheap enough for
/// exhaustive all-pairs comparison under proptest fault masks.
fn small_config() -> PolarStarConfig {
    PolarStarConfig {
        q: 3,
        supernode: SupernodeKind::InductiveQuad { degree: 3 },
    }
}

/// Paths per pair compared by [`check_pairs`].
const K: usize = 4;

/// The analytic oracle seen through [`PathOracle`]'s two required
/// methods only, so `next_hop` and `k_paths` come from the trait's
/// generic walks instead of the backend's single-pass resolver.
struct GenericWalk<'a>(&'a AnalyticOracle);

impl PathOracle for GenericWalk<'_> {
    fn num_routers(&self) -> usize {
        self.0.num_routers()
    }
    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        self.0.distance(src, dst)
    }
    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        self.0.min_next_hops(src, dst, out)
    }
}

/// How many checked pairs each [`Regime`] answered.
#[derive(Debug, Default)]
struct RegimeCounts {
    pristine: usize,
    intact: usize,
    escalated: usize,
    unreachable: usize,
}

impl RegimeCounts {
    fn reachable(&self) -> usize {
        self.pristine + self.intact + self.escalated
    }
}

/// Assert analytic and table answers match on the given pairs: equal
/// distances (or both unreachable), identical ascending next-hop sets,
/// first next hops and `K` lexicographic paths — against the table and
/// against the generic walk. Returns the regime census, so callers can
/// assert the comparison wasn't vacuous.
fn check_pairs(
    analytic: &AnalyticOracle,
    table: &Oracle,
    pairs: impl Iterator<Item = (u32, u32)>,
) -> RegimeCounts {
    let mut counts = RegimeCounts::default();
    let generic = GenericWalk(analytic);
    let (mut ah, mut th) = (Vec::new(), Vec::new());
    for (src, dst) in pairs {
        let want = PathOracle::distance(table, src, dst);
        let got = analytic.distance(src, dst);
        let regime = analytic.regime(src, dst);
        match (&got, &want) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "distance {src}->{dst}"),
            (Err(RouteError::Unreachable { .. }), Err(RouteError::Unreachable { .. })) => {
                assert_eq!(got, want, "error {src}->{dst}");
                assert_eq!(regime, Regime::Unreachable, "regime {src}->{dst}");
                assert_eq!(analytic.next_hop(src, dst), want, "next hop {src}->{dst}");
                assert_eq!(analytic.k_paths(src, dst, K), Err(want.unwrap_err()));
                counts.unreachable += 1;
                continue;
            }
            _ => panic!("distance {src}->{dst}: analytic {got:?} vs table {want:?}"),
        }
        match regime {
            Regime::Pristine => counts.pristine += 1,
            Regime::MinimalDagIntact => counts.intact += 1,
            Regime::Escalated => counts.escalated += 1,
            Regime::Unreachable => panic!("regime of the reachable pair {src}->{dst}"),
        }
        // An escalated pair is exactly one the mask pushed off its
        // pristine distance.
        if src != dst {
            let pristine = analytic.router().distance(src, dst);
            assert_eq!(regime == Regime::Escalated, got.unwrap() > pristine);
        }
        ah.clear();
        th.clear();
        analytic.min_next_hops(src, dst, &mut ah).unwrap();
        table.min_next_hops(src, dst, &mut th).unwrap();
        assert_eq!(ah, th, "next hops {src}->{dst}");
        assert!(ah.windows(2).all(|w| w[0] < w[1]), "ascending {src}->{dst}");
        let hop = analytic.next_hop(src, dst);
        assert_eq!(hop, table.next_hop(src, dst), "next hop {src}->{dst}");
        assert_eq!(hop, generic.next_hop(src, dst), "generic next hop");
        let paths = analytic.k_paths(src, dst, K);
        assert_eq!(paths, table.k_paths(src, dst, K), "k paths {src}->{dst}");
        assert_eq!(paths, generic.k_paths(src, dst, K), "generic k paths");
        // The analytic path must be minimal and walk real edges; its
        // tie-break may differ from the table's, so no byte compare.
        let p = analytic.path(src, dst).unwrap();
        assert_eq!(p.len() as u32, got.unwrap() + 1, "path length {src}->{dst}");
        assert_eq!((p[0], *p.last().unwrap()), (src, dst));
        let g = &analytic.network().spec.graph;
        for w in p.windows(2) {
            assert!(
                g.has_edge(w[0], w[1]),
                "edge {}-{} {src}->{dst}",
                w[0],
                w[1]
            );
        }
    }
    counts
}

/// Deterministic pseudo-random pair sample (Weyl sequence over n²).
fn sampled_pairs(n: u32, count: u64) -> impl Iterator<Item = (u32, u32)> {
    (0..count).map(move |i| {
        let x = i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        ((x % u64::from(n)) as u32, ((x >> 32) % u64::from(n)) as u32)
    })
}

#[test]
fn er5_degenerate_polarstar_matches_table_exhaustively() {
    // Paley degree 0 is the single-vertex supernode: the product
    // collapses to the ER(5) polarity graph itself, so this pins the
    // analytic router's structure-graph (Brown-graph) templates alone.
    let cfg = PolarStarConfig {
        q: 5,
        supernode: SupernodeKind::Paley { degree: 0 },
    };
    let net = PolarStarNetwork::build(cfg, 1).unwrap();
    let table = Oracle::new(Arc::new(net.spec.clone()));
    let analytic = AnalyticOracle::new(net);
    let n = analytic.num_routers() as u32;
    assert_eq!(n, 31);
    let all = (0..n).flat_map(|s| (0..n).map(move |d| (s, d)));
    assert_eq!(
        check_pairs(&analytic, &table, all).pristine,
        (n * n) as usize
    );
    assert_eq!(analytic.router().fallbacks(), 0, "pristine backstop");
}

#[test]
fn ps_iq_matches_table_on_sampled_pairs() {
    let net = PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap();
    let table = Oracle::new(Arc::new(net.spec.clone()));
    let analytic = AnalyticOracle::new(net);
    let n = analytic.num_routers() as u32;
    assert_eq!(n, 1064);
    let checked = check_pairs(&analytic, &table, sampled_pairs(n, 1500));
    assert_eq!(
        checked.pristine, 1500,
        "pristine PS-IQ has no unreachable pairs"
    );
    assert_eq!(analytic.router().fallbacks(), 0, "pristine backstop");
}

/// q=5 Paley PolarStar (f is not an involution): 279 routers.
fn paley_config() -> PolarStarConfig {
    PolarStarConfig {
        q: 5,
        supernode: SupernodeKind::Paley { degree: 4 },
    }
}

/// One seeded fault mask of the given kind over `net`: 0 = cut cables
/// (both directions), 1 = one direction of each drawn cable, 2 = whole
/// routers (a quarter of the fraction, at least one).
fn fault_mask(net: &PolarStarNetwork, kind: u32, fraction: f64, seed: u64) -> FaultSet {
    let g = &net.spec.graph;
    match kind {
        0 => FaultSet::random_links(g, fraction, seed),
        1 => {
            let cables = FaultSet::random_links(g, fraction, seed);
            let one_way = cables.failed_links().iter().copied();
            FaultSet::from_directed_links(
                one_way.filter(|&(u, v)| (u < v) == ((u ^ v ^ seed as u32) & 1 == 0)),
            )
        }
        _ => FaultSet::random_routers(g, (fraction / 4.0).max(1.0 / g.n() as f64), seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn faulted_polarstar_matches_masked_table(
        seed in 0u64..1_000_000,
        frac_pct in 2u32..25,
    ) {
        for config in [small_config(), paley_config()] {
            let net = PolarStarNetwork::build(config, 1).unwrap();
            let n = net.spec.routers() as u32;
            let base_table = Oracle::new(Arc::new(net.spec.clone()));
            let base_analytic = AnalyticOracle::new(net.clone());
            for kind in 0..3 {
                let faults = fault_mask(&net, kind, f64::from(frac_pct) / 100.0, seed);
                prop_assert!(!faults.is_empty());
                let table = base_table.remask(&faults, 1);
                let analytic = base_analytic.remask(&faults);
                // Every pair under cut cables on the 104-router config
                // (the original gate); a seeded sample elsewhere.
                let stride = match (n > 200, kind) {
                    (false, 0) => 1,
                    (false, _) => 4,
                    (true, _) => 48,
                };
                let all = (0..n).flat_map(|s| (0..n).map(move |d| (s, d)));
                let pairs = all.skip((seed % stride) as usize).step_by(stride as usize);
                let counts = check_pairs(&analytic, &table, pairs);
                let case = format!("{} kind {kind}: {counts:?}", config.label());
                prop_assert!(counts.reachable() > 0, "{}", case);
                prop_assert!(counts.pristine == 0, "{}", case);
                prop_assert!(counts.intact > 0, "{}", case);
                prop_assert!(counts.escalated > 0, "{}", case);
            }
        }
    }
}

#[test]
fn analytic_sharded_batch_is_byte_identical_to_sequential() {
    let net = PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap();
    let o = Oracle::new_analytic(net);
    let n = o.spec().routers() as u32;
    for seed in [0u64, 1, 0xDEAD] {
        let batch = QueryBatch::random(512, n, 4, seed);
        let seq = o.answer_batch(&batch);
        let par = o.answer_batch_sharded(&batch);
        assert_eq!(seq, par, "seed {seed}");
        assert_eq!(par, o.answer_batch_sharded(&batch), "seed {seed} rerun");
    }
}

#[test]
fn analytic_masked_batches_stay_deterministic() {
    let net = PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap();
    let base = Oracle::new_analytic(net);
    let n = base.spec().routers() as u32;
    let faults = FaultSet::random_links(&base.spec().graph, 0.1, 7);
    let masked = base.remask(&faults, 1);
    let batch = QueryBatch::random(256, n, 3, 99);
    assert_eq!(
        masked.answer_batch(&batch),
        masked.answer_batch_sharded(&batch)
    );
    let again = base.remask(&faults, 1);
    assert_eq!(
        masked.answer_batch_sharded(&batch),
        again.answer_batch_sharded(&batch)
    );
}
