//! Minimal-path diversity statistics.
//!
//! §9.3 turns on path diversity: SF and BF "store all minpaths for every
//! destination in a large routing table", HyperX enumerates them by
//! coordinate alignment, Megafly uses "the path diversity between
//! routers within the same group". The number of minimal paths per pair
//! is therefore both a routing-table-size driver and a load-balance
//! resource. This module counts them exactly (BFS path-counting σ).

use polarstar_graph::csr::{Graph, VertexId};
use rayon::prelude::*;

/// Path-diversity summary over all ordered reachable pairs.
#[derive(Clone, Debug)]
pub struct PathDiversity {
    /// Geometric mean of minimal-path counts.
    pub geomean: f64,
    /// Fraction of pairs with exactly one minimal path.
    pub single_path_fraction: f64,
    /// Maximum minimal-path count over pairs.
    pub max: u64,
    /// Mean minimal-path count per distance (index = distance ≥ 1).
    pub by_distance: Vec<f64>,
    /// Total routing-table entries needed to store every (router,
    /// destination) minimal FIRST HOP — the §9.3 storage cost.
    pub table_entries: u64,
}

/// Count minimal paths per pair and summarize.
pub fn path_diversity(g: &Graph) -> PathDiversity {
    let n = g.n();
    #[derive(Default, Clone)]
    struct Acc {
        log_sum: f64,
        pairs: u64,
        single: u64,
        max: u64,
        dist_sum: Vec<f64>,
        dist_cnt: Vec<u64>,
        first_hops: u64,
    }
    let acc = (0..n as VertexId)
        .into_par_iter()
        .map(|s| {
            let (dist, sigma) = bfs_sigma(g, s);
            let mut a = Acc::default();
            for t in 0..n as VertexId {
                if t == s || dist[t as usize] == u32::MAX {
                    continue;
                }
                let d = dist[t as usize] as usize;
                let c = sigma[t as usize];
                a.pairs += 1;
                a.log_sum += (c as f64).ln();
                if c == 1 {
                    a.single += 1;
                }
                a.max = a.max.max(c);
                if a.dist_sum.len() <= d {
                    a.dist_sum.resize(d + 1, 0.0);
                    a.dist_cnt.resize(d + 1, 0);
                }
                a.dist_sum[d] += c as f64;
                a.dist_cnt[d] += 1;
                // First hops on minimal paths from s toward t: neighbors
                // u of s with dist(u→t)... counted from the t side below
                // would need a second pass; use the s-rooted tree: the
                // number of minimal first hops equals the number of
                // neighbors u of t with dist[u] + 1 == dist[t] counted
                // from s — i.e. table entries at EVERY router toward t.
            }
            // Table entries: for each destination t, each router r stores
            // its minimal ports; summed over r, that is the number of
            // (r, u) pairs with dist_s... computed per-source instead:
            // entries toward destination s = Σ_r |{u ∈ N(r):
            // dist[u]+1 == dist[r]}| over this BFS from s (distances to
            // s by symmetry).
            for r in 0..n as VertexId {
                if dist[r as usize] == u32::MAX || r == s {
                    continue;
                }
                for &u in g.neighbors(r) {
                    if dist[u as usize] + 1 == dist[r as usize] {
                        a.first_hops += 1;
                    }
                }
            }
            a
        })
        .reduce(Acc::default, |mut x, y| {
            x.log_sum += y.log_sum;
            x.pairs += y.pairs;
            x.single += y.single;
            x.max = x.max.max(y.max);
            if x.dist_sum.len() < y.dist_sum.len() {
                x.dist_sum.resize(y.dist_sum.len(), 0.0);
                x.dist_cnt.resize(y.dist_cnt.len(), 0);
            }
            for (i, (s2, c2)) in y.dist_sum.iter().zip(&y.dist_cnt).enumerate() {
                x.dist_sum[i] += s2;
                x.dist_cnt[i] += c2;
            }
            x.first_hops += y.first_hops;
            x
        });

    let by_distance = acc
        .dist_sum
        .iter()
        .zip(&acc.dist_cnt)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect();
    PathDiversity {
        geomean: if acc.pairs == 0 {
            0.0
        } else {
            (acc.log_sum / acc.pairs as f64).exp()
        },
        single_path_fraction: if acc.pairs == 0 {
            0.0
        } else {
            acc.single as f64 / acc.pairs as f64
        },
        max: acc.max,
        by_distance,
        table_entries: acc.first_hops,
    }
}

/// BFS with shortest-path counting.
fn bfs_sigma(g: &Graph, s: VertexId) -> (Vec<u32>, Vec<u64>) {
    let n = g.n();
    let mut dist = vec![u32::MAX; n];
    let mut sigma = vec![0u64; n];
    let mut queue = std::collections::VecDeque::new();
    dist[s as usize] = 0;
    sigma[s as usize] = 1;
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
            if dist[v as usize] == dist[u as usize] + 1 {
                sigma[v as usize] = sigma[v as usize].saturating_add(sigma[u as usize]);
            }
        }
    }
    (dist, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;

    #[test]
    fn complete_graph_single_paths() {
        let pd = path_diversity(&Graph::complete(6));
        assert_eq!(pd.max, 1);
        assert!((pd.single_path_fraction - 1.0).abs() < 1e-12);
        assert!((pd.geomean - 1.0).abs() < 1e-12);
        // One table entry per (router, destination).
        assert_eq!(pd.table_entries, 6 * 5);
    }

    #[test]
    fn even_cycle_has_two_antipodal_paths() {
        let pd = path_diversity(&Graph::cycle(6));
        assert_eq!(pd.max, 2, "antipodal pairs have two minimal paths");
        // Distances 1, 2 single; distance 3 double.
        assert!((pd.by_distance[1] - 1.0).abs() < 1e-12);
        assert!((pd.by_distance[2] - 1.0).abs() < 1e-12);
        assert!((pd.by_distance[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hyperx_diversity_grows_with_dimension_mismatch() {
        // 2-D HyperX: pairs differing in both coordinates have 2 minimal
        // paths (route either dimension first).
        let hx = polarstar_topo::hyperx::hyperx(&[4, 4], 1);
        let pd = path_diversity(&hx.graph);
        assert_eq!(pd.max, 2);
        assert!(pd.by_distance[2] > 1.9, "distance-2 pairs see both orders");
    }

    #[test]
    fn table_entries_match_route_table_storage() {
        // The diversity-derived storage count equals the minimal ports
        // a RouteTable derives over every ordered pair.
        let g = polarstar_graph::random::random_regular(30, 4, 8).unwrap();
        let pd = path_diversity(&g);
        let spec = polarstar_topo::NetworkSpec::uniform("rr30", g, 1);
        let table = polarstar_netsim::routing::RouteTable::for_spec(&spec);
        let entries: usize = (0..30u32)
            .flat_map(|r| (0..30u32).map(move |dst| (r, dst)))
            .map(|(r, dst)| table.min_ports(r, dst).count())
            .sum();
        assert_eq!(pd.table_entries as usize, entries);
    }
}
