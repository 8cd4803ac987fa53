//! Cross-layer smoke for the route service: the table-free §9.2 backend
//! and the CSR table backend must hand out the same answers under one
//! fault mask, whichever batch path serves them. The exhaustive pins
//! live in `crates/routed/tests`; this one keeps the tier-1 suite
//! honest about the serving stack (topology → route backend → fault
//! mask → batched answers), and about the faulted distance columns the
//! flow build reads off the same mask.

use polarstar::design::{PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_repro::graph::traversal::bfs_distances;
use polarstar_repro::routed::{AnalyticOracle, Oracle, QueryBatch, Regime};
use polarstar_repro::topo::fault::FaultSet;
use polarstar_repro::topo::oracle::PathOracle;
use std::sync::Arc;

#[test]
fn analytic_and_table_backends_answer_alike_under_faults() {
    // q=3 Inductive-Quad PolarStar: 104 routers.
    let cfg = PolarStarConfig {
        q: 3,
        supernode: SupernodeKind::InductiveQuad { degree: 3 },
    };
    let net = PolarStarNetwork::build(cfg, 1).unwrap();
    let n = net.spec.routers() as u32;
    let faults =
        FaultSet::random_links(&net.spec.graph, 0.10, 0x5EED).union(&FaultSet::from_routers([17]));

    let table = Oracle::new(Arc::new(net.spec.clone())).remask(&faults, 1);
    let analytic = Oracle::new_analytic(net).remask(&faults, 1);
    let batch = QueryBatch::random(512, n, 4, 0xBA7C4);

    let want = table.answer_batch(&batch);
    let got = analytic.answer_batch(&batch);
    assert_eq!(got, analytic.answer_batch_sharded(&batch), "sharded");
    assert_eq!(want, table.answer_batch_sharded(&batch), "sharded table");
    // Distances, next hops, paths, alternatives and typed errors alike.
    assert_eq!(got, want);

    // The batch must cross every answer path of the analytic backend.
    let backend = analytic.analytic().unwrap();
    let hit = |regime: Regime| {
        let qs = batch.queries.iter();
        qs.filter(|q| backend.regime(q.src, q.dst) == regime)
            .count()
    };
    assert!(hit(Regime::MinimalDagIntact) > 0);
    assert!(hit(Regime::Escalated) > 0);
    assert!(hit(Regime::Unreachable) > 0, "queries touching router 17");
}

#[test]
fn analytic_faulted_columns_equal_the_degraded_bfs() {
    // One case of `crates/routed/tests/column_repair.rs`: cut cables, a
    // one-way fault and a dead router on the 104-router PolarStar, every
    // destination — the dead router included.
    let cfg = PolarStarConfig {
        q: 3,
        supernode: SupernodeKind::InductiveQuad { degree: 3 },
    };
    let net = PolarStarNetwork::build(cfg, 1).unwrap();
    let g = net.spec.graph.clone();
    let one_way = (0, g.neighbors(0)[0]);
    let faults = FaultSet::random_links(&g, 0.15, 0x5EED)
        .union(&FaultSet::from_directed_links([one_way]))
        .union(&FaultSet::from_routers([17]));
    let oracle = AnalyticOracle::new(net).remask(&faults);
    let truth = faults.degraded_graph(&g);
    let mut col = Vec::new();
    let mut moved = 0;
    for dst in 0..g.n() as u32 {
        assert!(oracle.distance_column(dst, &mut col).is_some());
        assert_eq!(col, bfs_distances(&truth, dst), "column {dst}");
        moved += col.iter().filter(|&&d| d > 3 && d != u32::MAX).count();
    }
    assert!(moved > 0, "the mask re-settled no router past the diameter");
}
