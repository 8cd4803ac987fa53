//! The motif model's port masks at every width they take. On complete
//! graphs K_{d+1} whose degree d sits just below, on and just above a
//! byte boundary (and a 64-port word boundary), pristine and with a
//! one-way fault, every hop of `NetModel::min_path` is the first
//! minimal slot `column_next_hops` finds over `masked_distance_column`,
//! and `NetModel::ecmp_path` draws reach every minimal port.
//!
//! In a pristine K_{d+1} router 0's cable to router `d` is its last
//! port, so the pairs' first hops cover every port of every mask. The
//! one-way fault takes the cable 0 → d out of the distance relation,
//! which leaves the pair d − 1 minimal ports each way, across all of a
//! mask's bytes.
//!
//! The masks belong to the `NetworkSpec`, shared by its clones: the
//! last four tests pin that sharing changes no number, that a fault set
//! or a replaced graph never reads another spec's masks, and that two
//! threads filling one set see what a sequential model sees.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_graph::Graph;
use polarstar_motifs::{allreduce, AllreduceAlgo, MotifConfig, NetModel, RoutingMode};
use polarstar_topo::fault::{FaultMask, FaultSet};
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::{column_next_hops, masked_distance_column};
use std::collections::BTreeSet;
use std::sync::Barrier;

const DEGREES: [usize; 9] = [7, 8, 9, 15, 16, 17, 63, 64, 65];

/// K_{d+1} pristine, then with the cable 0 → d failed one way.
fn networks(d: usize) -> [NetworkSpec; 2] {
    let complete = || NetworkSpec::uniform(format!("K{}", d + 1), Graph::complete(d + 1), 1);
    let one_way = FaultSet::from_directed_links([(0, d as u32)]);
    [complete(), complete().with_faults(one_way)]
}

/// The CSR slots of `v`'s minimal next hops toward the destination of
/// `col`, in CSR order.
fn minimal_slots(graph: &Graph, col: &[u32], v: u32, mask: &FaultMask) -> Vec<u32> {
    column_next_hops(graph, col, v, mask)
        .map(|(e, _)| e)
        .collect()
}

#[test]
fn min_path_takes_the_first_minimal_slot_at_every_width() {
    for (d, k) in DEGREES.map(|d| (d, d + 1)) {
        for spec in networks(d) {
            let (graph, mask) = (&spec.graph, spec.faults().compile(&spec.graph));
            let model = NetModel::new(spec.clone(), MotifConfig::default());
            let mut col = Vec::new();
            for dst in 0..graph.n() as u32 {
                masked_distance_column(graph, &mask, dst, &mut col);
                for src in 0..graph.n() as u32 {
                    let path = model.min_path(src, dst).unwrap();
                    assert_eq!(path.len() as u32, col[src as usize], "K{k} {src} → {dst}");
                    let mut cur = src;
                    for &e in &path {
                        let first = minimal_slots(graph, &col, cur, &mask)[0];
                        assert_eq!(e, first, "K{k} {src} → {dst} at {cur}");
                        cur = graph.edge_target(e);
                    }
                }
            }
        }
    }
}

#[test]
fn ecmp_path_draws_reach_every_minimal_port_at_every_width() {
    for (d, k) in DEGREES.map(|d| (d, d + 1)) {
        for spec in networks(d) {
            let (graph, mask) = (&spec.graph, spec.faults().compile(&spec.graph));
            let mut model = NetModel::new(spec.clone(), MotifConfig::default());
            let mut col = Vec::new();
            let mut spread = 0;
            for dst in 0..graph.n() as u32 {
                masked_distance_column(graph, &mask, dst, &mut col);
                for src in (0..graph.n() as u32).filter(|&s| s != dst) {
                    let ports = minimal_slots(graph, &col, src, &mask);
                    spread = spread.max(ports.len());
                    let mut drawn = BTreeSet::new();
                    for _ in 0..32 * ports.len() {
                        let path = model.ecmp_path(src, dst).unwrap();
                        let mut cur = src;
                        for &e in &path {
                            let minimal = minimal_slots(graph, &col, cur, &mask);
                            assert!(minimal.contains(&e), "K{k} {src} → {dst}: {e}");
                            cur = graph.edge_target(e);
                        }
                        assert_eq!(cur, dst);
                        drawn.insert(path[0]);
                    }
                    let want: BTreeSet<u32> = ports.into_iter().collect();
                    assert_eq!(drawn, want, "K{k} {src} → {dst}");
                }
            }
            let faulted = spec.has_faults();
            assert_eq!(spread, if faulted { d - 1 } else { 1 }, "K{k}");
        }
    }
}

/// Every `min_path` of `model` takes, hop by hop, the first minimal slot
/// over `graph`'s columns under `faults` compiled on it, and is `None`
/// exactly where no surviving path connects the pair.
fn assert_routes_by_columns(model: &NetModel, graph: &Graph, faults: &FaultSet, what: &str) {
    let mask = faults.compile(graph);
    let mut col = Vec::new();
    for dst in 0..graph.n() as u32 {
        masked_distance_column(graph, &mask, dst, &mut col);
        for src in 0..graph.n() as u32 {
            let Some(path) = model.min_path(src, dst) else {
                assert_eq!(col[src as usize], u32::MAX, "{what} {src} → {dst}");
                continue;
            };
            assert_eq!(path.len() as u32, col[src as usize], "{what} {src} → {dst}");
            let mut cur = src;
            for &e in &path {
                let first = minimal_slots(graph, &col, cur, &mask)[0];
                assert_eq!(e, first, "{what} {src} → {dst} at {cur}");
                cur = graph.edge_target(e);
            }
        }
    }
}

/// A PolarStar of 248 routers (four blocks of destinations), 2 ranks a
/// router: small enough for a debug build, big enough to span blocks.
fn polarstar() -> NetworkSpec {
    PolarStarNetwork::build(best_config(9).unwrap(), 2)
        .unwrap()
        .spec
}

/// Bytes of every block of `spec`'s masks.
fn full_masks(spec: &NetworkSpec) -> usize {
    let n = spec.routers();
    spec.graph.max_degree().div_ceil(8) * 64 * n * n.div_ceil(64)
}

#[test]
fn clones_share_one_set_and_it_changes_no_number() {
    let cfg = MotifConfig::default();
    let algo = AllreduceAlgo::RecursiveDoubling;
    for mode in [RoutingMode::Min, RoutingMode::Adaptive { candidates: 4 }] {
        let spec = polarstar();
        assert!(spec.routers() > 3 * 64, "{} routers", spec.routers());
        let mut a = NetModel::new(spec.clone(), cfg.clone());
        let first = allreduce(&mut a, algo, 64 << 10, 2, mode).unwrap();
        // Every router is some rank's partner, so A swept every block —
        // and B, on another clone, holds them before its first send.
        let mut b = NetModel::new(spec.clone(), cfg.clone());
        assert_eq!(b.port_mask_bytes(), full_masks(&spec), "{mode:?}");
        let shared = allreduce(&mut b, algo, 64 << 10, 2, mode).unwrap();
        let mut lone = NetModel::new(polarstar(), cfg.clone());
        assert_eq!(lone.port_mask_bytes(), 0, "a fresh spec shares nothing");
        let alone = allreduce(&mut lone, algo, 64 << 10, 2, mode).unwrap();
        assert_eq!(shared.to_bits(), alone.to_bits(), "{mode:?}");
        assert_eq!(first.to_bits(), alone.to_bits(), "{mode:?}");
        let horizon = alone.ceil() as u64 * 1000;
        assert_eq!(
            b.link_report(horizon),
            lone.link_report(horizon),
            "{mode:?}"
        );
        assert_eq!(
            a.link_report(horizon),
            lone.link_report(horizon),
            "{mode:?}"
        );
    }
}

#[test]
fn a_faulted_clone_never_reads_the_pristine_masks() {
    for d in [7, 9, 64, 65] {
        let [pristine, _] = networks(d);
        let one_way = FaultSet::from_directed_links([(0, d as u32)]);
        let graph = pristine.graph.clone();
        // A pristine clone's model sweeps every block first.
        let model = NetModel::new(pristine.clone(), MotifConfig::default());
        assert_routes_by_columns(&model, &graph, &FaultSet::empty(), "pristine");
        assert_eq!(model.port_mask_bytes(), full_masks(&pristine));
        let faulted = NetModel::new(
            pristine.clone().with_faults(one_way.clone()),
            MotifConfig::default(),
        );
        assert_eq!(faulted.port_mask_bytes(), 0, "K{} faulted", d + 1);
        assert_routes_by_columns(&faulted, &graph, &one_way, "faulted");
        // The pristine set is untouched by the faulted clone's fill.
        assert_routes_by_columns(&model, &graph, &FaultSet::empty(), "pristine again");
    }
}

#[test]
fn a_replaced_graph_gets_masks_of_its_own() {
    // Same order, size and degree: C8 against two disjoint C4s.
    let ring = Graph::cycle(8);
    let squares = Graph::from_edges(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
        ],
    );
    assert_eq!(
        (ring.n(), ring.m(), ring.max_degree()),
        (squares.n(), squares.m(), squares.max_degree())
    );
    let none = FaultSet::empty();
    // Masks swept on the ring first, then on the squares first.
    for (first, then) in [(&ring, &squares), (&squares, &ring)] {
        let spec = NetworkSpec::uniform("c8", first.clone(), 1);
        let mut other = spec.clone();
        other.graph = then.clone();
        let model = NetModel::new(spec.clone(), MotifConfig::default());
        assert_routes_by_columns(&model, first, &none, "the spec's graph");
        let swapped = NetModel::new(other, MotifConfig::default());
        assert_routes_by_columns(&swapped, then, &none, "the replaced graph");
        assert_routes_by_columns(&model, first, &none, "the spec's graph again");
    }
}

#[test]
fn two_threads_fill_one_specs_blocks_concurrently() {
    // Every pair's first minimal path, then a seeded ECMP draw for it.
    let walk = |mut model: NetModel| -> Vec<Option<Vec<u32>>> {
        let n = model.spec().routers() as u32;
        let pairs = (0..n).flat_map(|dst| (0..n).map(move |src| (src, dst)));
        pairs
            .flat_map(|(src, dst)| [model.min_path(src, dst), model.ecmp_path(src, dst)])
            .collect()
    };
    let want = walk(NetModel::new(polarstar(), MotifConfig::default()));
    let spec = polarstar();
    // Both models exist before either walks, so the two threads meet
    // the same unfilled blocks.
    let start = Barrier::new(2);
    let [left, right] = std::thread::scope(|s| {
        [spec.clone(), spec.clone()]
            .map(|clone| {
                let model = NetModel::new(clone, MotifConfig::default());
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    walk(model)
                })
            })
            .map(|thread| thread.join().unwrap())
    });
    assert!(left == want, "first thread");
    assert!(right == want, "second thread");
    assert_eq!(
        NetModel::new(spec.clone(), MotifConfig::default()).port_mask_bytes(),
        full_masks(&spec)
    );
}
