//! Golden pin for the flow layer's numbers: literal FNV-1a 64 digests of
//! what a solved `FlowNetwork` reports, not build-vs-build comparisons.
//!
//! Each digest covers, at offered loads 1.0, 0.5 and 0.1, the bits of
//! every `rates` entry, every `link_utilization` entry and every field of
//! the `FlowResult`, plus the flow, link and unroutable counts. The first
//! four literals were recorded at commit 58c8c0a, on the solver that
//! popped every candidate link from one `BinaryHeap` and the plan that
//! held one `Vec` per router pair — immediately before the DAG arena and
//! the sorted-array fill; the two at 40 endpoints a router at 5c0a38d,
//! before the pair index was bucketed by source router and the route
//! pass walked from destination-side parent masks. A flow network is a pure function of (spec, oracle,
//! traffic, routing), so the digests must hold at any rayon width (CI
//! runs this suite at `RAYON_NUM_THREADS` 1 and 4).
//!
//! Regenerate with
//! `FLOW_PIN_PRINT=1 cargo test -p polarstar-routed --test flow_pin -- --nocapture`
//! only when the flow *model* intentionally changes — never for a
//! refactor of how a plan is stored or a fill is ordered.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::{
    FlowDemand, FlowNetwork, FlowPlan, FlowResult, FlowRouting, Pattern, TrafficComponent,
};
use polarstar_routed::AnalyticOracle;
use polarstar_topo::fault::FaultSet;
use polarstar_topo::network::NetworkSpec;

/// FNV-1a 64 over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn result(&mut self, r: &FlowResult) {
        let FlowResult {
            offered,
            accepted,
            min_rate,
            delivered_fraction,
            stable,
            bottleneck_links,
            max_link_utilization,
            rounds,
            flows,
            unroutable,
        } = *r;
        for x in [
            offered,
            accepted,
            min_rate,
            delivered_fraction,
            max_link_utilization,
        ] {
            self.float(x);
        }
        for w in [
            u64::from(stable),
            bottleneck_links as u64,
            rounds,
            flows as u64,
            unroutable,
        ] {
            self.word(w);
        }
    }
}

/// The digest of one network's solves at offered 1.0, 0.5 and 0.1.
fn digest(fnet: &FlowNetwork) -> u64 {
    let mut h = Fnv::new();
    h.word(fnet.num_flows() as u64);
    h.word(fnet.num_links() as u64);
    h.word(fnet.unroutable());
    for offered in [1.0, 0.5, 0.1] {
        fnet.rates(offered).into_iter().for_each(|x| h.float(x));
        fnet.link_utilization(offered)
            .into_iter()
            .for_each(|x| h.float(x));
        h.result(&fnet.solve(offered));
    }
    h.0
}

fn assert_pinned(what: &str, fnet: &FlowNetwork, want: u64) {
    let got = digest(fnet);
    if std::env::var_os("FLOW_PIN_PRINT").is_some() {
        println!("{what}: {got:#018x}");
        return;
    }
    assert_eq!(got, want, "{what}: digest is {got:#018x}");
}

/// Table 3's PS-IQ: radix 15, 1 064 routers, `per_router` endpoints on
/// each (5 in Table 3: 5 320 endpoints), served by the table-free
/// analytic backend.
fn psiq(per_router: u32) -> (NetworkSpec, AnalyticOracle) {
    let net = PolarStarNetwork::build(best_config(15).unwrap(), per_router).unwrap();
    let spec = net.spec.clone();
    (spec, AnalyticOracle::new(net))
}

#[test]
fn psiq_uniform_ecmp() {
    let (spec, oracle) = psiq(5);
    let comps = [TrafficComponent::new(Pattern::Uniform, 3)];
    let fnet = FlowPlan::build(&spec, &oracle, &comps, FlowRouting::EcmpSplit).network();
    assert_pinned("PS-IQ uniform ECMP", &fnet, 0xd2a4_f70e_5ab6_c0fb);
}

#[test]
fn psiq_weighted_overlay() {
    // Every 4th source at 4× demand over a permutation, plus a 0.25×
    // uniform background: the weighted fill, with demands that differ
    // per flow and per component.
    let (spec, oracle) = psiq(5);
    let mut weights = vec![1.0f64; spec.total_endpoints()];
    for w in weights.iter_mut().step_by(4) {
        *w = 4.0;
    }
    let comps = [
        TrafficComponent::with_demand(Pattern::Permutation, 5, FlowDemand::PerSource(weights)),
        TrafficComponent::with_demand(Pattern::Uniform, 6, FlowDemand::Scaled(0.25)),
    ];
    let fnet = FlowPlan::build(&spec, &oracle, &comps, FlowRouting::EcmpSplit).network();
    assert_pinned("PS-IQ weighted overlay", &fnet, 0x431d_da25_48e7_75bf);
}

#[test]
fn psiq_single_path() {
    let (spec, oracle) = psiq(5);
    let comps = [TrafficComponent::new(Pattern::AdversarialGroup, 7)];
    let fnet = FlowPlan::build(&spec, &oracle, &comps, FlowRouting::SinglePath).network();
    assert_pinned("PS-IQ single path", &fnet, 0x6117_c2fc_0898_cbac);
}

#[test]
fn psiq_two_epoch_walk() {
    // Nested random cable faults (same seed, so the second set contains
    // the first): both steps take the cached-DAG reuse path.
    let (spec, oracle) = psiq(5);
    let comps = [TrafficComponent::new(Pattern::Uniform, 3)];
    let mut plan = FlowPlan::build(&spec, &oracle, &comps, FlowRouting::EcmpSplit);
    let mut prev = FaultSet::empty();
    for fraction in [0.01, 0.02] {
        let next = FaultSet::random_links(&spec.graph, fraction, 9);
        assert!(plan.advance_epoch(&spec, &oracle.remask(&next), &prev, &next) > 0);
        prev = next;
    }
    assert_pinned(
        "PS-IQ two-epoch walk",
        &plan.network(),
        0x3a89_ffe9_c5c5_e1ad,
    );
}

// PS-IQ at 40 endpoints a router: uniform traffic gives ≈ 40 pairs per
// destination router, at least its degree (15), so the routing pass
// walks distance-2 routers off the destination-side parent masks; at 5
// endpoints a router (≤ 5 pairs a destination) it never does. Both
// literals were recorded at commit 5c0a38d, before those masks existed.

#[test]
fn psiq_dense_uniform_ecmp() {
    let (spec, oracle) = psiq(40);
    let comps = [TrafficComponent::new(Pattern::Uniform, 3)];
    let fnet = FlowPlan::build(&spec, &oracle, &comps, FlowRouting::EcmpSplit).network();
    assert_pinned("PS-IQ x40 uniform ECMP", &fnet, 0xbe39_19d5_a092_2ce8);
}

#[test]
fn psiq_dense_uniform_ecmp_faulted() {
    let (spec, oracle) = psiq(40);
    let faults = FaultSet::random_links(&spec.graph, 0.05, 9);
    let comps = [TrafficComponent::new(Pattern::Uniform, 3)];
    let masked = oracle.remask(&faults);
    let fnet = FlowPlan::build(&spec, &masked, &comps, FlowRouting::EcmpSplit).network();
    assert_pinned(
        "PS-IQ x40 uniform ECMP, 5 % links",
        &fnet,
        0xf459_1886_2e90_512f,
    );
}
