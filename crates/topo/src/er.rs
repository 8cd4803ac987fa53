//! The Erdős–Rényi (Brown) polarity graph `ER_q` — PolarStar's structure
//! graph (§6.1).
//!
//! Vertices are the q² + q + 1 points of the projective plane PG(2, q),
//! represented by left-normalized 3-vectors over 𝔽_q; two distinct points
//! are adjacent iff their dot product is 0. Exactly q + 1 points are
//! self-orthogonal ("quadric" points); their would-be self-loops are kept
//! as metadata because the star product turns them into extra supernode
//! edges (Fig. 5c) and Property R length-2 paths may traverse them.
//!
//! The §9.2 kernel ([`crate::star::DistanceKernel`]) reads ER_q as it
//! reads any structure graph, through its adjacency bit rows.

use polarstar_gf::Gf;
use polarstar_graph::{Graph, GraphBuilder};

/// The Erdős–Rényi polarity graph over 𝔽_q, with its projective-point
/// coordinates and quadric (self-orthogonal) vertex set.
///
/// ```
/// use polarstar_topo::er::ErGraph;
/// let er = ErGraph::new(7).unwrap();
/// assert_eq!(er.order(), 57);                     // q² + q + 1
/// assert_eq!(er.quadric_vertices().len(), 8);     // q + 1
/// assert_eq!(polarstar_graph::traversal::diameter(&er.graph), Some(2));
/// ```
#[derive(Clone, Debug)]
pub struct ErGraph {
    /// The simple graph (self-loops dropped).
    pub graph: Graph,
    /// Projective coordinates of each vertex (left-normalized).
    pub points: Vec<[u64; 3]>,
    /// `true` for the q+1 self-orthogonal vertices.
    pub quadric: Vec<bool>,
    /// The field order q.
    pub q: u64,
}

impl ErGraph {
    /// Construct `ER_q` for a prime power q.
    ///
    /// Non-quadric vertices have degree q + 1; quadric vertices have
    /// degree q (their self-loop is dropped from the simple graph).
    pub fn new(q: u64) -> Result<Self, crate::error::TopoError> {
        let f = Gf::new(q)?;
        let points = projective_points(&f);
        let n = points.len();
        debug_assert_eq!(n as u64, q * q + q + 1);

        let mut quadric = vec![false; n];
        let mut b = GraphBuilder::new(n);
        for (i, &u) in points.iter().enumerate() {
            if f.dot3(u, u) == 0 {
                quadric[i] = true;
            }
            for (j, &v) in points.iter().enumerate().skip(i + 1) {
                if f.dot3(u, v) == 0 {
                    b.add_edge(i as u32, j as u32);
                }
            }
        }
        Ok(ErGraph {
            graph: b.build(),
            points,
            quadric,
            q,
        })
    }

    /// Number of vertices q² + q + 1.
    pub fn order(&self) -> usize {
        self.graph.n()
    }

    /// Graph degree counting the dropped self-loop as part of the radix
    /// budget: q + 1 (quadric vertices use one port fewer).
    pub fn degree(&self) -> usize {
        (self.q + 1) as usize
    }

    /// Indices of the q + 1 quadric (self-orthogonal) vertices.
    pub fn quadric_vertices(&self) -> Vec<u32> {
        (0..self.graph.n() as u32)
            .filter(|&v| self.quadric[v as usize])
            .collect()
    }

    /// Witness for Property R: a path of length exactly 2 between `x` and
    /// `y` where self-loops may participate (Theorem 1). Returns the
    /// middle vertex `w`: the first common neighbor of `x` and `y` (for
    /// `x == y`, the first neighbor), or, for an adjacent pair with no
    /// common neighbor, its quadric endpoint, whose self-loop completes
    /// the walk (two quadric points are never adjacent). For distinct
    /// points that is their one 2-walk middle, the point x × y. `None`
    /// for an id that is not a vertex.
    pub fn r_path_middle(&self, x: u32, y: u32) -> Option<u32> {
        if x.max(y) as usize >= self.order() {
            return None;
        }
        // Both neighbor lists ascend: merge them to the first shared id.
        let g = &self.graph;
        let mut ny = g.neighbors(y).iter().peekable();
        let common = g.neighbors(x).iter().copied().find(|&w| {
            while ny.next_if(|&&v| v < w).is_some() {}
            ny.peek() == Some(&&w)
        });
        common.or_else(|| {
            let looped = [x, y].into_iter().find(|&e| self.quadric[e as usize]);
            looped.filter(|_| g.has_edge(x, y))
        })
    }

    /// Check Property R directly: every (ordered) vertex pair is joined by
    /// a length-2 walk in the graph-with-self-loops, the one
    /// [`ErGraph::r_path_middle`] names. Exposed for tests and the
    /// design-space validator. O(q⁵): q⁴/2 pairs, a merge of two
    /// (q + 1)-neighbor lists each.
    pub fn has_property_r(&self) -> bool {
        // A hop of the walk: an edge, or the self-loop of a quadric vertex.
        let hop = |a: u32, b: u32| {
            if a == b {
                self.quadric[a as usize]
            } else {
                self.graph.has_edge(a, b)
            }
        };
        let n = self.order() as u32;
        (0..n).all(|x| {
            (x..n).all(|y| {
                self.r_path_middle(x, y)
                    .is_some_and(|m| hop(x, m) && hop(m, y))
            })
        })
    }
}

/// Enumerate left-normalized projective points: (1,y,z), (0,1,z), (0,0,1).
fn projective_points(f: &Gf) -> Vec<[u64; 3]> {
    let q = f.order();
    let mut pts = Vec::with_capacity((q * q + q + 1) as usize);
    for y in 0..q {
        for z in 0..q {
            pts.push([1, y, z]);
        }
    }
    for z in 0..q {
        pts.push([0, 1, z]);
    }
    pts.push([0, 0, 1]);
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::traversal;

    #[test]
    fn order_and_degree() {
        for q in [2u64, 3, 4, 5, 7, 8, 9, 11, 13] {
            let er = ErGraph::new(q).unwrap();
            assert_eq!(er.order() as u64, q * q + q + 1, "order of ER_{q}");
            assert_eq!(
                er.quadric_vertices().len() as u64,
                q + 1,
                "quadric count of ER_{q}"
            );
            for v in 0..er.order() as u32 {
                let expect = if er.quadric[v as usize] { q } else { q + 1 };
                assert_eq!(er.graph.degree(v) as u64, expect, "degree of {v} in ER_{q}");
            }
        }
    }

    #[test]
    fn diameter_two() {
        for q in [2u64, 3, 4, 5, 7, 9] {
            let er = ErGraph::new(q).unwrap();
            assert_eq!(traversal::diameter(&er.graph), Some(2), "ER_{q} diameter");
        }
    }

    #[test]
    fn property_r_holds() {
        for q in polarstar_gf::primes::prime_powers_in(2, 32) {
            let er = ErGraph::new(q).unwrap();
            assert!(er.has_property_r(), "ER_{q} must satisfy Property R");
        }
    }

    #[test]
    fn r_path_middles_are_valid_even_for_adjacent_pairs() {
        // The brute-force cell of every ordered distinct pair — common
        // neighbors ascending, then, for an adjacent pair, the endpoints
        // whose self-loop completes x–w–y — holds exactly one middle
        // (Property R), and `r_path_middle` names it.
        for q in [2u64, 3, 4, 5, 7, 8, 9] {
            let er = ErGraph::new(q).unwrap();
            let f = Gf::new(q).unwrap();
            let (g, n) = (&er.graph, er.order() as u32);
            let hop_ok = |a: u32, b: u32| {
                if a == b {
                    er.quadric[a as usize]
                } else {
                    f.dot3(er.points[a as usize], er.points[b as usize]) == 0
                }
            };
            for x in 0..n {
                for y in 0..n {
                    let m = er.r_path_middle(x, y).expect("middle exists");
                    assert!(
                        hop_ok(x, m) && hop_ok(m, y),
                        "ER_{q}: bad R-path {x}-{m}-{y}"
                    );
                    if x == y {
                        continue;
                    }
                    let mut cell: Vec<u32> = (0..n)
                        .filter(|&w| g.has_edge(x, w) && g.has_edge(w, y))
                        .collect();
                    if g.has_edge(x, y) {
                        cell.extend([x, y].into_iter().filter(|&e| er.quadric[e as usize]));
                    }
                    assert_eq!(cell, [m], "ER_{q} cell ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn pairs_naming_no_point_are_refused() {
        let er = ErGraph::new(5).unwrap();
        let n = er.order() as u32;
        assert_eq!(er.r_path_middle(0, n), None);
        assert_eq!(er.r_path_middle(n, n), None);
        assert!(er.r_path_middle(n - 1, n - 1).is_some());
    }

    #[test]
    fn rejects_non_prime_power() {
        assert!(ErGraph::new(6).is_err());
        assert!(ErGraph::new(10).is_err());
    }

    #[test]
    fn er3_matches_paper_figure() {
        // Fig. 5a: ER_3 has 13 vertices; degree 4 except 4 quadric vertices
        // of degree 3.
        let er = ErGraph::new(3).unwrap();
        assert_eq!(er.order(), 13);
        assert_eq!(er.quadric_vertices().len(), 4);
        assert_eq!(er.graph.max_degree(), 4);
        assert_eq!(er.graph.min_degree(), 3);
    }
}
