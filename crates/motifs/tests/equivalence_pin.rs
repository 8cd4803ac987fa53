//! Equivalence pin for the flattened `NetModel` hot path.
//!
//! Golden completion times and link-load summaries for a fixed-seed
//! motif sweep, recorded on the pre-flatten (HashMap-based) model right
//! after the sender-gating fixes landed. The CSR/edge-id rewrite must
//! reproduce every number: completion times bit-exactly, utilization
//! summaries to float tolerance (the HashMap model summed busy times in
//! nondeterministic iteration order, so the last bits of the mean are
//! not pinned).
//!
//! The `psiq_*` and `er5_mixed_*` pins and the path digests below were
//! recorded later, on the per-destination parent-forest model at
//! `3e04c39`, the commit before the forest was replaced by distance
//! rows: Table 3's PS-IQ in the Fig. 11 shape, a network with a
//! one-directional link fault plus a failed router, and every minimal
//! path the model can hand out on the small cases.
//!
//! Regenerate with
//! `MOTIF_PIN_PRINT=1 cargo test -p polarstar-motifs --test equivalence_pin -- --nocapture`
//! only when the *model* intentionally changes, never for a pure
//! performance refactor.

use polarstar::design::{best_config, PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_graph::Graph;
use polarstar_motifs::collectives::{allreduce, alltoall, sweep3d, AllreduceAlgo};
use polarstar_motifs::netmodel::{ns, MotifConfig, NetModel, RoutingMode};
use polarstar_topo::er::ErGraph;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::{column_next_hops, masked_distance_column};
use polarstar_topo::FaultSet;
use proptest::prelude::*;

/// ER_5 polarity graph (31 routers), two endpoints per router: 62 ranks.
fn er5() -> NetworkSpec {
    let er = ErGraph::new(5).unwrap();
    NetworkSpec::uniform("er5", er.graph, 2)
}

/// A 12-cycle with one severed link: minimal paths must route the long
/// way round, exercising the fault-masked distance rows.
fn faulted_cycle() -> NetworkSpec {
    NetworkSpec::uniform("c12-faulted", Graph::cycle(12), 1)
        .with_faults(FaultSet::from_links([(0, 1)]))
}

/// Table 3's PS-IQ: radix 15, 1 064 routers, 5 320 ranks.
fn psiq() -> NetworkSpec {
    PolarStarNetwork::build(best_config(15).unwrap(), 5)
        .unwrap()
        .spec
}

/// ER_5 with the direction 0 → (its first neighbor) failed and router 7
/// dead: distances drop the half-dead cable, ports only its one
/// direction — the case the forest once routed by the undirected rule.
fn er5_mixed() -> NetworkSpec {
    let spec = er5();
    let nb = spec.graph.neighbors(0)[0];
    let faults = FaultSet::from_directed_links([(0, nb)]).union(&FaultSet::from_routers([7]));
    spec.with_faults(faults)
}

/// A random `frac` of the cables, about half of them (picked by a
/// seed-keyed parity) failed in their `u < v` direction only.
fn half_one_way(g: &Graph, frac: f64, seed: u64) -> FaultSet {
    let cables = FaultSet::random_links(g, frac, seed);
    let one_way = |&(u, v): &(u32, u32)| u < v || (u ^ v ^ seed as u32) & 1 == 0;
    FaultSet::from_directed_links(cables.failed_links().iter().copied().filter(one_way))
}

/// The 104-router PolarStar (ER_3 ∗ IQ_3) — unlike ER_5 and the cut
/// cycle it has several minimal paths for most pairs, so the ECMP draw
/// sequence matters — with 6 % of its cables failed, about half of them
/// in one direction only.
fn ps_q3_faulted() -> NetworkSpec {
    let cfg = PolarStarConfig {
        q: 3,
        supernode: SupernodeKind::InductiveQuad { degree: 3 },
    };
    let spec = PolarStarNetwork::build(cfg, 1).unwrap().spec;
    let faults = half_one_way(&spec.graph, 0.06, 11);
    spec.with_faults(faults)
}

/// One 8 KB message per ordered pair of live routers, all injected at
/// time zero; the last delivery (ns).
fn all_pairs(m: &mut NetModel, mode: RoutingMode) -> f64 {
    let n = m.spec().routers() as u32;
    let live = |r: u32| !m.faults().router_failed(r);
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .filter(|&(s, d)| s != d && live(s) && live(d))
        .collect();
    let sends = pairs
        .into_iter()
        .map(|(s, d)| m.send_routers(s, d, 8 * 1024, 0, mode).unwrap());
    sends.max().unwrap() as f64 / 1000.0
}

const MIN: RoutingMode = RoutingMode::Min;
const UGAL: RoutingMode = RoutingMode::Adaptive { candidates: 4 };

/// One pinned observation: completion time (ns) plus the
/// [`polarstar_motifs::netmodel::LinkLoadReport`] fields at the
/// completion-time horizon.
struct Pin {
    name: &'static str,
    time_ns: f64,
    links_used: usize,
    messages: u64,
    mean_utilization: f64,
    max_utilization: f64,
}

type Scenario = (&'static str, NetworkSpec, fn(&mut NetModel) -> f64);

fn scenarios() -> Vec<Scenario> {
    vec![
        ("er5_rd_min", er5(), |m| {
            allreduce(m, AllreduceAlgo::RecursiveDoubling, 64 * 1024, 1, MIN).unwrap()
        }),
        ("er5_ring_min", er5(), |m| {
            allreduce(m, AllreduceAlgo::Ring, 64 * 1024, 1, MIN).unwrap()
        }),
        ("er5_rd_ugal", er5(), |m| {
            allreduce(m, AllreduceAlgo::RecursiveDoubling, 64 * 1024, 1, UGAL).unwrap()
        }),
        ("er5_sweep3d_min", er5(), |m| {
            sweep3d(m, 7, 8, 4 * 1024, 200.0, 2, MIN).unwrap()
        }),
        ("er5_alltoall_min", er5(), |m| {
            alltoall(m, 4 * 1024, 1, MIN).unwrap()
        }),
        ("c12_rd_min", faulted_cycle(), |m| {
            allreduce(m, AllreduceAlgo::RecursiveDoubling, 16 * 1024, 1, MIN).unwrap()
        }),
        ("c12_ring_min", faulted_cycle(), |m| {
            allreduce(m, AllreduceAlgo::Ring, 16 * 1024, 1, MIN).unwrap()
        }),
        ("c12_alltoall_ugal", faulted_cycle(), |m| {
            alltoall(m, 16 * 1024, 1, UGAL).unwrap()
        }),
        ("psiq_rd_min", psiq(), |m| {
            allreduce(m, AllreduceAlgo::RecursiveDoubling, 64 * 1024, 1, MIN).unwrap()
        }),
        ("psiq_rd_ugal", psiq(), |m| {
            allreduce(m, AllreduceAlgo::RecursiveDoubling, 64 * 1024, 1, UGAL).unwrap()
        }),
        ("psiq_sweep3d_min", psiq(), |m| {
            sweep3d(m, 64, 64, 4 * 1024, 200.0, 1, MIN).unwrap()
        }),
        ("psiq_sweep3d_ugal", psiq(), |m| {
            sweep3d(m, 64, 64, 4 * 1024, 200.0, 1, UGAL).unwrap()
        }),
        ("er5_mixed_pairs_min", er5_mixed(), |m| all_pairs(m, MIN)),
        ("er5_mixed_pairs_ugal", er5_mixed(), |m| all_pairs(m, UGAL)),
    ]
}

/// Golden values recorded pre-flatten (see module docs).
const GOLDENS: &[Pin] = &[
    Pin {
        name: "er5_rd_min",
        time_ns: 230456.0,
        links_used: 110,
        messages: 352,
        mean_utilization: 0.2275002603533859,
        max_utilization: 0.5687506508834658,
    },
    Pin {
        name: "er5_ring_min",
        time_ns: 64697.0,
        links_used: 55,
        messages: 7198,
        mean_utilization: 0.5345397496300943,
        max_utilization: 0.9965995332086496,
    },
    Pin {
        name: "er5_rd_ugal",
        time_ns: 148756.0,
        links_used: 170,
        messages: 515,
        mean_utilization: 0.33365970013270835,
        max_utilization: 0.7709806663260642,
    },
    Pin {
        name: "er5_sweep3d_min",
        time_ns: 71264.0,
        links_used: 94,
        messages: 264,
        mean_utilization: 0.040355788246758756,
        max_utilization: 0.0862146385271666,
    },
    Pin {
        name: "er5_alltoall_min",
        time_ns: 158940.0,
        links_used: 180,
        messages: 6720,
        mean_utilization: 0.2405268235392814,
        max_utilization: 0.257707310934944,
    },
    Pin {
        name: "c12_rd_min",
        time_ns: 58264.0,
        links_used: 22,
        messages: 156,
        mean_utilization: 0.49849587457715977,
        max_utilization: 0.7733077028696965,
    },
    Pin {
        name: "c12_ring_min",
        time_ns: 11387.5,
        links_used: 22,
        messages: 484,
        mean_utilization: 0.6592755214050497,
        max_utilization: 0.6592755214050494,
    },
    Pin {
        name: "c12_alltoall_ugal",
        time_ns: 195612.0,
        links_used: 22,
        messages: 572,
        mean_utilization: 0.5444246774226529,
        max_utilization: 0.7538187841236734,
    },
    Pin {
        name: "psiq_rd_min",
        time_ns: 1951976.0,
        links_used: 13156,
        messages: 116104,
        mean_utilization: 0.07407450928478655,
        max_utilization: 0.6295159366713525,
    },
    Pin {
        name: "psiq_rd_ugal",
        time_ns: 543312.0,
        links_used: 15960,
        messages: 208329,
        mean_utilization: 0.39362936008632066,
        max_utilization: 0.8745177724769562,
    },
    Pin {
        name: "psiq_sweep3d_min",
        time_ns: 2050164.0,
        links_used: 3437,
        messages: 13601,
        mean_utilization: 0.0019765265929886132,
        max_utilization: 0.020478361731061514,
    },
    Pin {
        name: "psiq_sweep3d_ugal",
        time_ns: 395052.0,
        links_used: 11245,
        messages: 20733,
        mean_utilization: 0.004779124889152403,
        max_utilization: 0.025920638295718033,
    },
    Pin {
        name: "er5_mixed_pairs_min",
        time_ns: 80372.0,
        links_used: 166,
        messages: 1616,
        mean_utilization: 0.24806097430082621,
        max_utilization: 0.3567411536355945,
    },
    Pin {
        name: "er5_mixed_pairs_ugal",
        time_ns: 72220.0,
        links_used: 166,
        messages: 2248,
        mean_utilization: 0.38402605158935366,
        max_utilization: 0.567155912489615,
    },
];

#[test]
fn flattened_model_reproduces_pre_refactor_results() {
    let print = std::env::var("MOTIF_PIN_PRINT").is_ok();
    for (name, spec, run) in scenarios() {
        let mut model = NetModel::new(spec, MotifConfig::default());
        let t = run(&mut model);
        let report = model.link_report(ns(t));
        if print {
            println!(
                "Pin {{\n    name: {name:?},\n    time_ns: {:?},\n    links_used: {},\n    \
                 messages: {},\n    mean_utilization: {:?},\n    max_utilization: {:?},\n}},",
                t,
                report.links_used,
                report.messages,
                report.mean_utilization,
                report.max_utilization
            );
            continue;
        }
        let pin = GOLDENS
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no golden for {name}"));
        assert_eq!(t, pin.time_ns, "{name}: completion time drifted");
        assert_eq!(report.links_used, pin.links_used, "{name}: links_used");
        assert_eq!(report.messages, pin.messages, "{name}: messages");
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        assert!(
            close(report.mean_utilization, pin.mean_utilization),
            "{name}: mean_utilization {} vs {}",
            report.mean_utilization,
            pin.mean_utilization
        );
        assert!(
            close(report.max_utilization, pin.max_utilization),
            "{name}: max_utilization {} vs {}",
            report.max_utilization,
            pin.max_utilization
        );
    }
}

/// FNV-1a 64 over, per ordered router pair in row-major order, the
/// path's hop count then its directed edge ids (LE u32 each);
/// `u32::MAX` stands for "no path".
fn path_digest(n: u32, mut path: impl FnMut(u32, u32) -> Option<Vec<u32>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u32| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for src in 0..n {
        for dst in 0..n {
            match path(src, dst) {
                None => eat(u32::MAX),
                Some(p) => {
                    eat(p.len() as u32);
                    p.into_iter().for_each(&mut eat);
                }
            }
        }
    }
    h
}

/// Every `min_path`, and the `ecmp_path` sequence a fresh default-seed
/// model draws over all ordered pairs, as recorded on the parent-forest
/// model: (name, spec, min digest, ecmp digest).
#[test]
fn minimal_paths_match_the_parent_forest() {
    let cases: [(&str, NetworkSpec, u64, u64); 4] = [
        ("er5", er5(), 0x9b26ffdda18cde21, 0x9b26ffdda18cde21),
        (
            "c12_faulted",
            faulted_cycle(),
            0xafff34c1904dda25,
            0xafff34c1904dda25,
        ),
        (
            "er5_mixed",
            er5_mixed(),
            0x66af1a6431ce0295,
            0x6dd1b9cbfd8fbb7f,
        ),
        (
            "ps_q3_faulted",
            ps_q3_faulted(),
            0xaf075a666c14187c,
            0xf8727e03583c66ec,
        ),
    ];
    let print = std::env::var("MOTIF_PIN_PRINT").is_ok();
    for (name, spec, want_min, want_ecmp) in cases {
        let n = spec.routers() as u32;
        let mut model = NetModel::new(spec, MotifConfig::default());
        let min = path_digest(n, |s, d| model.min_path(s, d));
        let ecmp = path_digest(n, |s, d| model.ecmp_path(s, d));
        if print {
            println!("(\"{name}\", .., {min:#018x}, {ecmp:#018x}),");
            continue;
        }
        assert_eq!(min, want_min, "{name}: min_path digest {min:#018x}");
        assert_eq!(ecmp, want_ecmp, "{name}: ecmp_path digest {ecmp:#018x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under any mix of cut cables, one-directional faults and a dead
    /// router, every hop of an `ecmp_path` is a slot the shared port
    /// rule yields over the masked BFS column, the path is as long as
    /// the column says, and it is `None` exactly where the column is
    /// unreachable.
    #[test]
    fn ecmp_hops_are_column_next_hops_slots(seed in 0u64..1_000_000, frac_pct in 0u32..30, dead in 0u32..31) {
        let pristine = er5();
        let mut faults = half_one_way(&pristine.graph, f64::from(frac_pct) / 100.0, seed);
        if seed & 1 == 0 {
            faults = faults.union(&FaultSet::from_routers([dead]));
        }
        let spec = pristine.with_faults(faults);
        let g = spec.graph.clone();
        let mask = spec.faults().compile(&g);
        let mut model = NetModel::new(spec, MotifConfig::default());
        let mut col = Vec::new();
        for dst in 0..g.n() as u32 {
            masked_distance_column(&g, &mask, dst, &mut col);
            for src in 0..g.n() as u32 {
                let Some(path) = model.ecmp_path(src, dst) else {
                    prop_assert_eq!(col[src as usize], u32::MAX, "{}->{} lost", src, dst);
                    continue;
                };
                prop_assert_eq!(path.len() as u32, col[src as usize], "{}->{}", src, dst);
                let mut cur = src;
                for e in path {
                    let legal = column_next_hops(&g, &col, cur, &mask).any(|(slot, _)| slot == e);
                    prop_assert!(legal, "{src}->{dst} at {cur}: slot {e}");
                    cur = g.edge_target(e);
                }
                prop_assert_eq!(cur, dst);
            }
        }
    }
}
