//! Edge-disjoint spanning trees (EDST) — the substrate for striped
//! in-network collectives and their fault tolerance.
//!
//! A graph carrying k edge-disjoint spanning trees can run k independent
//! broadcast/reduction pipelines concurrently, and can lose any k−1 of
//! them and still deliver: the packing size is simultaneously a
//! bandwidth and a resilience measure (Nash-Williams/Tutte). This
//! module provides the generic greedy extractor (tree peeling over
//! dense directed-edge-id marks), the residual variant that peels
//! around an externally-used edge set (so structure-aware constructions
//! like `polarstar_topo::star::StarProduct::edst` can top up their
//! composed trees), an exact validator, the standard upper bound, and
//! the cut-crossing replacement-edge search used for online tree
//! repair.

use crate::csr::{Graph, VertexId};

/// Greedily extract edge-disjoint spanning trees; returns each tree as
/// an edge list. Stops when the unused edges no longer connect the
/// graph. Deterministic: no randomness, ties broken on vertex id.
pub fn greedy_edst(g: &Graph) -> Vec<Vec<(VertexId, VertexId)>> {
    let mut used = vec![false; g.directed_edge_count()];
    greedy_edst_excluding(g, &mut used)
}

/// Peel spanning trees from the edges of `g` not marked in `used`
/// (indexed by directed edge id; both directions of an undirected edge
/// are expected to carry the same mark). Marks edges of every returned
/// tree in place, so callers can interleave their own edge
/// reservations with repeated peels.
///
/// The peel is depth-first and prefers the neighbor with the most
/// unused edges remaining: DFS trees are path-heavy (low tree-degree),
/// which spreads the edge budget across vertices instead of exhausting
/// one hub the way BFS stars do.
pub fn greedy_edst_excluding(g: &Graph, used: &mut [bool]) -> Vec<Vec<(VertexId, VertexId)>> {
    assert_eq!(
        used.len(),
        g.directed_edge_count(),
        "used marks must cover every directed edge"
    );
    let n = g.n();
    if n <= 1 {
        return Vec::new();
    }
    // Unused degree per vertex, maintained incrementally as trees
    // commit their edges.
    let mut free_deg: Vec<u32> = (0..n as VertexId)
        .map(|v| g.edge_range(v).filter(|&e| !used[e as usize]).count() as u32)
        .collect();
    let mut trees = Vec::new();
    let mut root = 0 as VertexId;
    loop {
        let mut visited = vec![false; n];
        let mut tree: Vec<(VertexId, VertexId)> = Vec::with_capacity(n - 1);
        let mut stack = vec![root];
        visited[root as usize] = true;
        while let Some(&u) = stack.last() {
            // Prefer the unvisited neighbor with the most unused edges
            // remaining; first such neighbor (ascending id) on ties.
            let mut next: Option<(VertexId, u32)> = None;
            for (e, &v) in g.edge_range(u).zip(g.neighbors(u)) {
                if !visited[v as usize] && !used[e as usize] {
                    let fd = free_deg[v as usize];
                    if next.is_none_or(|(_, best)| fd > best) {
                        next = Some((v, fd));
                    }
                }
            }
            match next {
                Some((v, _)) => {
                    visited[v as usize] = true;
                    tree.push((u, v));
                    stack.push(v);
                }
                None => {
                    stack.pop();
                }
            }
        }
        if tree.len() != n - 1 {
            break; // no further spanning tree in the leftover edges
        }
        for &(u, v) in &tree {
            mark_used(g, used, u, v);
            free_deg[u as usize] -= 1;
            free_deg[v as usize] -= 1;
        }
        trees.push(tree);
        root = (root + 1) % n as VertexId;
    }
    trees
}

/// Mark both directions of the undirected edge `{u, v}` in a
/// directed-edge-id mark array. Panics if `{u, v}` is not an edge.
pub fn mark_used(g: &Graph, used: &mut [bool], u: VertexId, v: VertexId) {
    let fwd = g.edge_id(u, v).expect("edge to mark");
    let rev = g.edge_id(v, u).expect("reverse edge to mark");
    used[fwd as usize] = true;
    used[rev as usize] = true;
}

/// Upper bound on any EDST packing: each tree takes n−1 of the m edges
/// (`⌊m/(n−1)⌋`) and at least one edge at the minimum-degree vertex
/// (`δ`). Any validated packing of this size is provably maximal.
pub fn packing_upper_bound(g: &Graph) -> usize {
    let n = g.n();
    if n <= 1 {
        return 0;
    }
    (g.m() / (n - 1)).min(g.min_degree())
}

/// Verify a claimed spanning-tree packing exactly: every tree has n−1
/// edges of `g`, is connected (hence spanning and acyclic), and no
/// undirected edge appears in two trees.
pub fn validate_edst(g: &Graph, trees: &[Vec<(VertexId, VertexId)>]) -> Result<(), String> {
    let n = g.n();
    let mut seen = vec![false; g.directed_edge_count()];
    for (i, tree) in trees.iter().enumerate() {
        if tree.len() != n - 1 {
            return Err(format!("tree {i} has {} edges, want {}", tree.len(), n - 1));
        }
        for &(u, v) in tree {
            let Some(e) = g.edge_id(u, v) else {
                return Err(format!("tree {i} uses non-edge ({u},{v})"));
            };
            if seen[e as usize] {
                return Err(format!("edge ({u},{v}) reused across trees"));
            }
            seen[e as usize] = true;
            seen[g.edge_id(v, u).expect("csr symmetry") as usize] = true;
        }
        let sub = Graph::from_edges(n, tree);
        if !crate::traversal::is_connected(&sub) {
            return Err(format!("tree {i} is not spanning"));
        }
    }
    Ok(())
}

/// Find a replacement for the failed edge `dead` of `tree`: removing
/// `dead` splits the tree into two components; the first edge of `g`
/// (in ascending `(u, v)` order, so the choice is deterministic) that
/// crosses the cut and satisfies `usable` reconnects it. `usable`
/// filters out edges belonging to other trees of a packing or
/// currently failed. Returns `None` when no surviving edge crosses the
/// cut.
pub fn find_replacement(
    g: &Graph,
    tree: &[(VertexId, VertexId)],
    dead: (VertexId, VertexId),
    mut usable: impl FnMut(VertexId, VertexId) -> bool,
) -> Option<(VertexId, VertexId)> {
    let n = g.n();
    let norm = |a: VertexId, b: VertexId| if a < b { (a, b) } else { (b, a) };
    let dead_key = norm(dead.0, dead.1);
    let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for &(u, v) in tree {
        if norm(u, v) == dead_key {
            continue;
        }
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    // Mark the component containing dead.0.
    let mut side = vec![false; n];
    let mut stack = vec![dead.0];
    side[dead.0 as usize] = true;
    while let Some(u) = stack.pop() {
        for &v in &adj[u as usize] {
            if !side[v as usize] {
                side[v as usize] = true;
                stack.push(v);
            }
        }
    }
    g.edges().find(|&(u, v)| {
        side[u as usize] != side[v as usize] && norm(u, v) != dead_key && usable(u, v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_packs_near_half_degree() {
        // K_{2k} contains exactly k edge-disjoint spanning trees
        // (Nash-Williams); greedy finds at least k − 1.
        let g = Graph::complete(8);
        let trees = greedy_edst(&g);
        validate_edst(&g, &trees).unwrap();
        assert_eq!(packing_upper_bound(&g), 4);
        assert!(trees.len() >= 3, "greedy found only {}", trees.len());
    }

    #[test]
    fn path_and_cycle_pack_exactly_one() {
        for g in [Graph::path(6), Graph::cycle(7)] {
            let trees = greedy_edst(&g);
            assert_eq!(trees.len(), 1);
            validate_edst(&g, &trees).unwrap();
        }
    }

    #[test]
    fn disconnected_packs_none() {
        let g = Graph::complete(3).disjoint_union(&Graph::complete(3));
        assert!(greedy_edst(&g).is_empty());
        assert!(greedy_edst(&Graph::empty(1)).is_empty());
    }

    #[test]
    fn upper_bound_is_respected() {
        for g in [
            Graph::complete(6),
            Graph::cycle(9),
            Graph::path(5),
            crate::random::random_regular(20, 6, 7).unwrap(),
        ] {
            let trees = greedy_edst(&g);
            validate_edst(&g, &trees).unwrap();
            assert!(
                trees.len() <= packing_upper_bound(&g),
                "{} trees over bound {}",
                trees.len(),
                packing_upper_bound(&g)
            );
        }
    }

    #[test]
    fn excluding_respects_and_updates_marks() {
        let g = Graph::complete(6);
        let mut used = vec![false; g.directed_edge_count()];
        // Reserve a star at vertex 0 — the peel must route around it.
        for v in 1..6 {
            mark_used(&g, &mut used, 0, v);
        }
        let trees = greedy_edst_excluding(&g, &mut used);
        validate_edst(&g, &trees).unwrap();
        for tree in &trees {
            for &(u, v) in tree {
                assert!(u != 0 && v != 0, "({u},{v}) crosses the reserved star");
            }
        }
        // Vertex 0 is isolated in the residual graph: nothing spans.
        assert!(trees.is_empty());

        // Reserving one K6 tree leaves room for at least one more.
        let mut used = vec![false; g.directed_edge_count()];
        let first = greedy_edst(&g).remove(0);
        for &(u, v) in &first {
            mark_used(&g, &mut used, u, v);
        }
        let rest = greedy_edst_excluding(&g, &mut used);
        assert!(!rest.is_empty());
        let mut all = vec![first];
        all.extend(rest);
        validate_edst(&g, &all).unwrap();
    }

    #[test]
    fn validator_catches_reuse_and_nonspanning() {
        let g = Graph::complete(4);
        let t: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 3)];
        assert!(validate_edst(&g, &[t.clone(), t.clone()]).is_err());
        let cyc: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (0, 2)];
        assert!(validate_edst(&g, &[cyc]).unwrap_err().contains("spanning"));
        let short: Vec<(u32, u32)> = vec![(0, 1)];
        assert!(validate_edst(&g, &[short]).unwrap_err().contains("edges"));
        let bogus: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (1, 3)];
        assert!(validate_edst(&Graph::path(4), &[bogus])
            .unwrap_err()
            .contains("non-edge"));
        assert!(validate_edst(&g, &[t_of(&g)]).is_ok());
    }

    fn t_of(g: &Graph) -> Vec<(u32, u32)> {
        greedy_edst(g).remove(0)
    }

    #[test]
    fn replacement_reconnects_the_cut() {
        // C6 plus a chord (0,3): killing tree edge (1,2) must pick the
        // chord or the unused cycle edge.
        let mut edges: Vec<(u32, u32)> = (0..6).map(|u| (u, (u + 1) % 6)).collect();
        edges.push((0, 3));
        let g = Graph::from_edges(6, &edges);
        let tree: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        let r = find_replacement(&g, &tree, (1, 2), |_, _| true).unwrap();
        // Sides are {0, 1} and {2, 3, 4, 5}: candidates are (0, 3),
        // (0, 5) and the dead edge itself (excluded). Ascending order
        // picks (0, 3).
        assert_eq!(r, (0, 3));
        // With the chord vetoed, the other cycle edge closes the ring.
        let r = find_replacement(&g, &tree, (1, 2), |u, v| (u, v) != (0, 3)).unwrap();
        assert_eq!(r, (0, 5));
        // Veto everything: no repair.
        assert!(find_replacement(&g, &tree, (1, 2), |_, _| false).is_none());
    }

    #[test]
    fn replacement_never_returns_the_dead_edge() {
        // A tree edge whose only cut-crossing edge is itself.
        let g = Graph::path(4);
        let tree: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 3)];
        assert!(find_replacement(&g, &tree, (1, 2), |_, _| true).is_none());
    }
}
