//! Channel-load analysis: the expected per-link load under uniform
//! traffic with minimal multipath routing.
//!
//! This is exactly shortest-path edge betweenness (Brandes' algorithm,
//! edge variant): for uniform all-to-all traffic where each pair splits
//! its flow evenly over all minimal paths, the relative load of link `e`
//! is `betweenness(e) / pairs`. The maximum channel load lower-bounds the
//! saturation throughput of minimal routing (Dally & Towles), so this
//! quantifies the §9.5/§9.6 observations (e.g. Dragonfly's single
//! inter-group links are maximum-load channels).

use polarstar_graph::csr::{Graph, VertexId};
use rayon::prelude::*;
use std::collections::HashMap;

/// Per-link channel load statistics under uniform minimal routing.
#[derive(Clone, Debug)]
pub struct ChannelLoad {
    /// Load per directed link (u, v), normalized so the AVERAGE over
    /// directed links equals (avg path length) × pairs / links.
    pub per_link: HashMap<(VertexId, VertexId), f64>,
    /// Maximum directed-link load.
    pub max: f64,
    /// Mean directed-link load.
    pub mean: f64,
}

impl ChannelLoad {
    /// Max/mean ratio — 1.0 means perfectly balanced channels.
    pub fn imbalance(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.max / self.mean
        }
    }
}

/// Compute shortest-path edge betweenness with uniform pair weights and
/// even splitting over minimal paths (Brandes, edge variant), in
/// parallel over sources.
///
/// The per-source passes and the reduction run on dense `Vec<f64>`
/// arrays indexed by the graph's directed edge ids ([`Graph::edge_id`]);
/// the public per-link map is materialized once at the end.
pub fn channel_load(g: &Graph) -> ChannelLoad {
    let n = g.n();
    let edges = g.directed_edge_count();
    let passes: Vec<Vec<f64>> = (0..n as VertexId)
        .into_par_iter()
        .map(|s| single_source_edge_dependency(g, s))
        .collect();
    let mut dense = vec![0.0f64; edges];
    for pass in passes {
        for (e, w) in pass.into_iter().enumerate() {
            dense[e] += w;
        }
    }
    let mut per_link: HashMap<(VertexId, VertexId), f64> = HashMap::with_capacity(edges);
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    for u in 0..n as VertexId {
        for (e, &v) in g.edge_range(u).zip(g.neighbors(u)) {
            let w = dense[e as usize];
            if w > 0.0 {
                per_link.insert((u, v), w);
            }
            max = max.max(w);
            sum += w;
        }
    }
    let mean = if edges == 0 {
        0.0
    } else {
        sum / (2.0 * g.m() as f64)
    };
    ChannelLoad {
        per_link,
        max,
        mean,
    }
}

/// Brandes single-source pass, attributing each pair's unit of flow
/// evenly across its minimal paths' directed edges. Returns the flow per
/// directed edge id.
fn single_source_edge_dependency(g: &Graph, s: VertexId) -> Vec<f64> {
    let n = g.n();
    let mut dist = vec![u32::MAX; n];
    let mut sigma = vec![0.0f64; n]; // # shortest paths from s
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    dist[s as usize] = 0;
    sigma[s as usize] = 1.0;
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
            if dist[v as usize] == dist[u as usize] + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    // delta[v] = accumulated dependency of s-pairs on v (each target
    // contributes 1 unit of flow, split by sigma ratios).
    let mut delta = vec![0.0f64; n];
    let mut out = vec![0.0f64; g.directed_edge_count()];
    for &w in order.iter().rev() {
        // Walk w's incident slots so the predecessor edge v → w is the
        // reverse of a known slot id — one O(log deg) lookup per
        // predecessor, no hashing.
        for (e_wv, &v) in g.edge_range(w).zip(g.neighbors(w)) {
            // v is a predecessor of w iff dist[v] + 1 == dist[w].
            if dist[v as usize] + 1 == dist[w as usize] {
                let share = sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                delta[v as usize] += share;
                let e_vw = g.edge_id(v, w).expect("reverse of slot edge");
                debug_assert_eq!(g.edge_target(e_wv), v);
                out[e_vw as usize] += share;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;

    #[test]
    fn cycle_loads_are_uniform() {
        let g = Graph::cycle(6);
        let cl = channel_load(&g);
        // Vertex-and-edge-transitive: perfectly balanced.
        assert!(
            (cl.imbalance() - 1.0).abs() < 1e-9,
            "imbalance {}",
            cl.imbalance()
        );
        // Total flow = sum over pairs of path length = APL·pairs.
        let total: f64 = cl.per_link.values().sum();
        let apl = polarstar_graph::traversal::avg_path_length(&g).unwrap();
        let pairs = 6.0 * 5.0;
        assert!(
            (total - apl * pairs).abs() < 1e-6,
            "{total} vs {}",
            apl * pairs
        );
    }

    #[test]
    fn star_uplinks_carry_all_flows() {
        // Star K_{1,5}: every leaf's 5 outbound flows (4 leaves + the
        // center) cross its uplink, so each directed edge carries 5 —
        // the star is edge-transitive, hence balanced but hot.
        let edges: Vec<(u32, u32)> = (1..6).map(|v| (0u32, v)).collect();
        let g = Graph::from_edges(6, &edges);
        let cl = channel_load(&g);
        let load = cl.per_link[&(1u32, 0u32)];
        assert!((load - 5.0).abs() < 1e-9, "leaf uplink load {load}");
        assert!((cl.max - 5.0).abs() < 1e-9);
        // Much hotter than a complete graph's unit loads.
        assert!(cl.max > channel_load(&Graph::complete(6)).max);
    }

    #[test]
    fn complete_graph_unit_loads() {
        let g = Graph::complete(5);
        let cl = channel_load(&g);
        for (&e, &w) in &cl.per_link {
            assert!((w - 1.0).abs() < 1e-9, "edge {e:?} load {w}");
        }
    }

    #[test]
    fn even_split_across_parallel_minimal_paths() {
        // C4: every directed edge carries its adjacent pair (1) plus a
        // half share of each of the two diagonal pairs that can use it
        // (0.5 + 0.5) = 2, matching APL·pairs/links = (4/3·12)/8.
        let g = Graph::cycle(4);
        let cl = channel_load(&g);
        for (&_e, &w) in &cl.per_link {
            assert!((w - 2.0).abs() < 1e-9, "load {w}");
        }
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;
    use polarstar_topo::dragonfly::{dragonfly, DragonflyParams};

    /// §9.6's structural argument, quantified: Dragonfly's single
    /// inter-group links are its hottest channels by a wide margin.
    #[test]
    fn dragonfly_global_links_are_hottest() {
        let df = dragonfly(DragonflyParams { a: 4, h: 2, p: 1 });
        let cl = channel_load(&df.graph);
        // Find the max-load link and check it is inter-group.
        let (&(u, v), _) = cl
            .per_link
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_ne!(
            df.group[u as usize], df.group[v as usize],
            "hottest channel must be a global link"
        );
        assert!(cl.imbalance() > 1.2, "imbalance {}", cl.imbalance());
    }
}
