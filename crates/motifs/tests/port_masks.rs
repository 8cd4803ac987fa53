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

use polarstar_graph::Graph;
use polarstar_motifs::{MotifConfig, NetModel};
use polarstar_topo::fault::{FaultMask, FaultSet};
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::{column_next_hops, masked_distance_column};
use std::collections::BTreeSet;

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
