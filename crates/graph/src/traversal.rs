//! BFS-based structural metrics: distances, diameter, average path length,
//! connectivity, components — and [`sweep_block`], the workspace's one
//! multi-source BFS. Diameter, average path length and the distance
//! histogram read one histogram of ordered-pair distances built from
//! rayon-parallel block sweeps; the scalar single-source helpers are the
//! reference tests hold the sweep to.

use crate::csr::{Graph, VertexId};
use rayon::prelude::*;

/// Distance marker for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Panics, naming the id and the vertex count, unless `v` is a vertex
/// of `g`: a bare index panic names neither.
fn check_vertex(g: &Graph, v: VertexId, what: &str) {
    let n = g.n();
    assert!((v as usize) < n, "{what} {v} not in a {n}-vertex graph");
}

/// Single-source BFS distances; unreachable vertices get [`UNREACHABLE`].
///
/// # Panics
/// If `src` is not a vertex of `g`.
pub fn bfs_distances(g: &Graph, src: VertexId) -> Vec<u32> {
    check_vertex(g, src, "source");
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Shortest-path distance between a pair, or `None` if disconnected.
///
/// # Panics
/// If `u` or `v` is not a vertex of `g`.
pub fn pair_distance(g: &Graph, u: VertexId, v: VertexId) -> Option<u32> {
    check_vertex(g, v, "target");
    let d = bfs_distances(g, u)[v as usize];
    (d != UNREACHABLE).then_some(d)
}

/// Eccentricity of `v` (max finite distance), or `None` if some vertex is
/// unreachable from `v`.
///
/// # Panics
/// If `v` is not a vertex of `g`.
pub fn eccentricity(g: &Graph, v: VertexId) -> Option<u32> {
    let dist = bfs_distances(g, v);
    let mut ecc = 0;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() == 0 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// The block sweep: BFS from up to 64 sources at once over the slots
/// `live(u, slot, v)` admits (the bit-parallel multi-source BFS of Then
/// et al., VLDB 2014). Bit `i` of a vertex's word says "reached from
/// source `i`"; a level ORs every frontier word across the vertex's live
/// slots, so the graph is walked once per level for the whole block
/// instead of once per source.
///
/// `sources[i]` holds bit `i` at level 0. A late seed `(level, v, bits)`
/// (level ≥ 1, seeds in nondecreasing level order) joins `bits` to what
/// the sweep reaches `v` with at `level`: a source that enters part way,
/// as a path's far side does once it crosses a link the predicate
/// leaves out. `visit(level, v, fresh, prev)` runs for every vertex `v`
/// first reached at `level ≥ 1` by the source bits `fresh`, in vertex
/// order within a level; `prev[u]` holds the bits that first reached `u`
/// at `level − 1` (the sources' own bits at level 0). Returns `false`,
/// and stops, when a vertex would be reached past level `last`; `true`
/// once every reachable vertex is visited.
///
/// # Panics
/// With more than 64 sources, a source or seed that is not a vertex of
/// `g`, or seeds at level 0 or out of level order.
pub fn sweep_block(
    g: &Graph,
    sources: &[VertexId],
    seeds: &[(u32, VertexId, u64)],
    last: u32,
    live: impl Fn(VertexId, u32, VertexId) -> bool,
    mut visit: impl FnMut(u32, VertexId, u64, &[u64]),
) -> bool {
    let (n, k) = (g.n(), sources.len());
    assert!(k <= 64, "{k} sources in one block");
    for &v in sources.iter().chain(seeds.iter().map(|(_, v, _)| v)) {
        check_vertex(g, v, "source");
    }
    let levels = seeds.iter().try_fold(1, |l, s| (s.0 >= l).then_some(s.0));
    assert!(levels.is_some(), "seeds out of level order");
    let (mut seen, mut next, mut prev) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    // (vertex, newly reached bits) of the level being expanded, and of
    // the level it finds.
    let mut frontier: Vec<(u32, u64)> = Vec::with_capacity(n);
    let mut found: Vec<(u32, u64)> = Vec::with_capacity(n);
    for (i, &s) in sources.iter().enumerate() {
        if seen[s as usize] == 0 {
            frontier.push((s, 0));
        }
        seen[s as usize] |= 1 << i;
    }
    for (s, bits) in &mut frontier {
        *bits = seen[*s as usize];
    }
    let mut seeds = seeds.iter().peekable();
    let mut level = 0;
    while !frontier.is_empty() || seeds.peek().is_some() {
        level += 1;
        for &(u, bits) in &frontier {
            prev[u as usize] = bits;
            for (e, &v) in g.edge_range(u).zip(g.neighbors(u)) {
                if live(u, e, v) {
                    next[v as usize] |= bits;
                }
            }
        }
        while let Some((_, v, bits)) = seeds.next_if(|s| s.0 == level) {
            next[*v as usize] |= bits;
        }
        for (v, (reached, seen)) in next.iter_mut().zip(&mut seen).enumerate() {
            let fresh = std::mem::take(reached) & !*seen;
            if fresh != 0 {
                if level > last {
                    return false;
                }
                *seen |= fresh;
                found.push((v as u32, fresh));
                visit(level, v as u32, fresh, &prev);
            }
        }
        for &(u, _) in &frontier {
            prev[u as usize] = 0;
        }
        std::mem::swap(&mut frontier, &mut found);
        found.clear();
    }
    true
}

/// Ordered-pair distance histogram: `hist[d]` = number of ordered pairs
/// `(u, v)`, `u ≠ v`, at distance `d` (`hist[0] = 0`), up to the longest
/// finite distance; empty when no pair is connected. Integer counts from
/// 64-source block sweeps, blocks in parallel — the same at any width.
fn pair_histogram(g: &Graph) -> Vec<u64> {
    let n = g.n() as VertexId;
    let firsts: Vec<VertexId> = (0..n).step_by(64).collect();
    let add = |mut a: Vec<u64>, mut b: Vec<u64>| {
        if a.len() < b.len() {
            std::mem::swap(&mut a, &mut b);
        }
        a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        a
    };
    firsts
        .into_par_iter()
        .map(|first| {
            let sources: Vec<VertexId> = (first..n.min(first + 64)).collect();
            let (mut hist, all) = (Vec::new(), |_, _, _| true);
            sweep_block(g, &sources, &[], u32::MAX, all, |level, _, fresh, _| {
                let d = level as usize;
                if hist.len() <= d {
                    hist.resize(d + 1, 0);
                }
                hist[d] += u64::from(fresh.count_ones());
            });
            hist
        })
        .reduce(Vec::new, add)
}

/// Diameter (max eccentricity), or `None` if disconnected or empty.
pub fn diameter(g: &Graph) -> Option<u32> {
    let n = g.n() as u64;
    if n == 0 {
        return None;
    }
    let hist = pair_histogram(g);
    let connected = hist.iter().sum::<u64>() == n * (n - 1);
    connected.then(|| hist.len().saturating_sub(1) as u32)
}

/// Average shortest-path length over all ordered reachable pairs with
/// `u != v`; `None` if no such pair exists. For a connected graph this is
/// the paper's "average path length"; on faulty (possibly disconnected)
/// graphs we follow the paper's Figure 14 and average over the pairs that
/// remain connected.
pub fn avg_path_length(g: &Graph) -> Option<f64> {
    if g.n() < 2 {
        return None;
    }
    let hist = pair_histogram(g);
    let sum: u64 = hist.iter().enumerate().map(|(d, &c)| d as u64 * c).sum();
    let count: u64 = hist.iter().sum();
    (count > 0).then(|| sum as f64 / count as f64)
}

/// Diameter restricted to reachable pairs (well-defined on disconnected
/// graphs); `None` only if there is no edge at all.
pub fn reachable_diameter(g: &Graph) -> Option<u32> {
    let d = pair_histogram(g).len().saturating_sub(1) as u32;
    (d > 0).then_some(d)
}

/// Histogram of shortest-path lengths over unordered reachable pairs:
/// `hist[d]` = number of pairs at distance d (d ≥ 1).
pub fn distance_histogram(g: &Graph) -> Vec<u64> {
    pair_histogram(g).into_iter().map(|c| c / 2).collect()
}

/// Connected components as a label array (labels are component-minimum
/// vertex ids) plus the component count.
pub fn components(g: &Graph) -> (Vec<VertexId>, usize) {
    let mut label = vec![VertexId::MAX; g.n()];
    let mut count = 0;
    for s in 0..g.n() as VertexId {
        if label[s as usize] != VertexId::MAX {
            continue;
        }
        count += 1;
        let mut queue = std::collections::VecDeque::new();
        label[s as usize] = s;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if label[v as usize] == VertexId::MAX {
                    label[v as usize] = s;
                    queue.push_back(v);
                }
            }
        }
    }
    (label, count)
}

/// Size of the largest connected component.
pub fn largest_component_size(g: &Graph) -> usize {
    let (labels, _) = components(g);
    let mut counts = std::collections::HashMap::new();
    for l in labels {
        *counts.entry(l).or_insert(0usize) += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Graph;

    #[test]
    fn bfs_on_path() {
        let g = Graph::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn diameters_of_known_graphs() {
        assert_eq!(diameter(&Graph::complete(10)), Some(1));
        assert_eq!(diameter(&Graph::cycle(6)), Some(3));
        assert_eq!(diameter(&Graph::cycle(7)), Some(3));
        assert_eq!(diameter(&Graph::path(9)), Some(8));
        // Petersen graph: diameter 2 (Moore graph for d=3, D=2).
        let petersen = petersen();
        assert_eq!(diameter(&petersen), Some(2));
    }

    fn petersen() -> Graph {
        let mut edges = Vec::new();
        for i in 0..5u32 {
            edges.push((i, (i + 1) % 5)); // outer cycle
            edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
            edges.push((i, 5 + i)); // spokes
        }
        Graph::from_edges(10, &edges)
    }

    #[test]
    fn disconnected_handling() {
        let g = Graph::complete(3).disjoint_union(&Graph::complete(3));
        assert!(!is_connected(&g));
        assert_eq!(diameter(&g), None);
        assert_eq!(reachable_diameter(&g), Some(1));
        let (labels, count) = components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(largest_component_size(&g), 3);
        // APL over reachable pairs only.
        assert_eq!(avg_path_length(&g), Some(1.0));
    }

    #[test]
    fn apl_of_cycle() {
        // C_4: each vertex sees distances 1,1,2 → APL = 4/3.
        let g = Graph::cycle(4);
        let apl = avg_path_length(&g).unwrap();
        assert!((apl - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_sums_to_pairs() {
        let g = Graph::cycle(8);
        let h = distance_histogram(&g);
        let pairs: u64 = h.iter().sum();
        assert_eq!(pairs, (8 * 7 / 2) as u64);
        assert_eq!(h[1], 8); // the 8 edges
        assert_eq!(h.len() - 1, 4); // diameter 4
    }

    #[test]
    fn eccentricity_and_pair_distance() {
        let g = Graph::path(4);
        assert_eq!(eccentricity(&g, 0), Some(3));
        assert_eq!(eccentricity(&g, 1), Some(2));
        assert_eq!(pair_distance(&g, 0, 3), Some(3));
        let h = Graph::empty(2);
        assert_eq!(pair_distance(&h, 0, 1), None);
        assert_eq!(eccentricity(&h, 0), None);
    }

    /// Per-source distance rows of one block sweep.
    fn block_rows(g: &Graph, sources: &[u32], seeds: &[(u32, u32, u64)]) -> Vec<Vec<u32>> {
        let mut rows = vec![vec![UNREACHABLE; g.n()]; sources.len()];
        for (row, &s) in rows.iter_mut().zip(sources) {
            row[s as usize] = 0;
        }
        let fits = sweep_block(
            g,
            sources,
            seeds,
            u32::MAX,
            |_, _, _| true,
            |level, v, fresh, _| {
                for (i, row) in rows.iter_mut().enumerate() {
                    if fresh >> i & 1 != 0 {
                        row[v as usize] = level;
                    }
                }
            },
        );
        assert!(fits);
        rows
    }

    #[test]
    fn a_block_sweep_is_one_bfs_per_source() {
        let g = petersen().disjoint_union(&Graph::path(5));
        let sources: Vec<u32> = (0..15).rev().collect();
        let rows = block_rows(&g, &sources, &[]);
        for (row, &s) in rows.iter().zip(&sources) {
            assert_eq!(*row, bfs_distances(&g, s), "source {s}");
        }
    }

    #[test]
    fn a_late_seed_joins_the_sweep_at_its_level() {
        // Path 0-…-9 from source 0, with source 0's bit seeded at vertex
        // 9 on level 2: every vertex reads min(v, 2 + 9 − v).
        let g = Graph::path(10);
        let rows = block_rows(&g, &[0], &[(2, 9, 1)]);
        let want: Vec<u32> = (0..10).map(|v| v.min(11 - v)).collect();
        assert_eq!(rows[0], want);
        // A seed past the vertex's BFS level changes nothing, and one on
        // an isolated vertex reaches it alone.
        assert_eq!(block_rows(&g, &[0], &[(9, 1, 1)])[0], bfs_distances(&g, 0));
        let h = Graph::path(3).disjoint_union(&Graph::empty(1));
        assert_eq!(block_rows(&h, &[0], &[(5, 3, 1)])[0], [0, 1, 2, 5]);
    }

    #[test]
    fn a_block_sweep_stops_past_its_last_level() {
        let g = Graph::path(6);
        let mut deepest = 0;
        assert!(!sweep_block(
            &g,
            &[0],
            &[],
            3,
            |_, _, _| true,
            |l, _, _, _| deepest = l
        ));
        assert_eq!(deepest, 3);
        assert!(sweep_block(
            &g,
            &[0],
            &[],
            5,
            |_, _, _| true,
            |_, _, _, _| {}
        ));
        // The predicate cuts the path after vertex 2.
        let cut = |u: u32, _, v: u32| u.max(v) != 3;
        assert!(sweep_block(&g, &[0], &[], 2, cut, |_, _, _, _| {}));
    }

    #[test]
    #[should_panic(expected = "source 7 not in a 5-vertex graph")]
    fn bfs_distances_names_an_id_past_the_graph() {
        bfs_distances(&Graph::path(5), 7);
    }

    #[test]
    #[should_panic(expected = "source 5 not in a 5-vertex graph")]
    fn eccentricity_names_an_id_past_the_graph() {
        eccentricity(&Graph::path(5), 5);
    }

    #[test]
    #[should_panic(expected = "target 9 not in a 5-vertex graph")]
    fn pair_distance_names_an_id_past_the_graph() {
        pair_distance(&Graph::path(5), 0, 9);
    }

    #[test]
    #[should_panic(expected = "source 6 not in a 5-vertex graph")]
    fn a_block_seed_past_the_graph_is_named() {
        sweep_block(
            &Graph::path(5),
            &[0],
            &[(1, 6, 1)],
            9,
            |_, _, _| true,
            |_, _, _, _| {},
        );
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::empty(0);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), None);
        assert_eq!(avg_path_length(&g), None);
    }
}
