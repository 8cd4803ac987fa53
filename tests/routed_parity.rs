//! Cross-layer smoke for the route service: the table-free §9.2 backend
//! and the CSR table backend must hand out the same answers under one
//! fault mask, whichever batch path serves them. The exhaustive pins
//! live in `crates/routed/tests`; this one keeps the tier-1 suite
//! honest about the serving stack (topology → route backend → fault
//! mask → batched answers).

use polarstar::design::{PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_repro::routed::{Oracle, QueryBatch, Regime};
use polarstar_repro::topo::fault::FaultSet;
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
    assert_eq!(backend.router().routes_computed(), 0);
}
