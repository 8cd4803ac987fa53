//! The Inductive-Quad (IQ) supernode family (§6.2.1) — the paper's new
//! Property-R* graphs that attain the 2d' + 2 order bound of Proposition 2.
//!
//! Construction mirrors the paper exactly:
//!
//! * base graphs `IQ_0` (2 isolated vertices) and `IQ_3` (8 vertices,
//!   3-regular, Fig. 6a);
//! * an inductive step adding one `IQ_3` block to `IQ_{d'}` to obtain
//!   `IQ_{d'+4}` (Fig. 6b).
//!
//! Vertices are laid out so that `f(2i) = 2i + 1`: even vertices form the
//! `A` side of the paper's partition, odd vertices `f(A)`.
//!
//! The paper presents `IQ_3` pictorially; we recover a concrete instance by
//! exhaustive search over the (small) space of candidates that the
//! counting argument of Proposition 2 pins down: a valid `IQ_3` has no
//! intra-pair edges and exactly one edge from each of the 12 f-orbit
//! classes of cross-pair vertex pairs, chosen so the result is 3-regular.

use crate::error::TopoError;
use crate::supernode::Supernode;
use polarstar_graph::{Graph, GraphBuilder};

/// Degrees for which IQ exists: d' ≡ 0 or 3 (mod 4).
pub fn is_feasible_degree(d: usize) -> bool {
    d.is_multiple_of(4) || d % 4 == 3
}

/// Construct `IQ_{d'}`. Errs when `d'` is infeasible (d' ≢ 0, 3 mod 4).
pub fn inductive_quad(d: usize) -> Result<Supernode, TopoError> {
    if !is_feasible_degree(d) {
        return Err(TopoError::InfeasibleSupernode(format!(
            "IQ({d}): degree must be ≡ 0 or 3 (mod 4)"
        )));
    }
    let mut g = base(d % 4);
    let mut cur = d % 4;
    while cur < d {
        g = extend_by_iq3(&g);
        cur += 4;
    }
    let n = g.n();
    let f: Vec<u32> = (0..n as u32).map(|v| v ^ 1).collect();
    Supernode::new(format!("IQ({d})"), g, f)
}

fn base(d: usize) -> Graph {
    match d {
        0 => Graph::empty(2),
        3 => iq3(),
        _ => unreachable!("base degree is 0 or 3"),
    }
}

/// Find a concrete `IQ_3`: 8 vertices in pairs {2i, 2i+1}, one edge from
/// each of the 12 orbit classes, 3-regular. The search space is 2^12 and
/// the first (lexicographically smallest) solution is returned, so the
/// construction is deterministic.
fn iq3() -> Graph {
    // Orbit classes per unordered pair of pairs (i, j), i < j, with
    // a_i = 2i, b_i = 2i+1:
    //   class A: {(a_i, a_j), (b_i, b_j)}
    //   class B: {(a_i, b_j), (b_i, a_j)}
    let pairs: Vec<(u32, u32)> = (0..4u32)
        .flat_map(|i| ((i + 1)..4).map(move |j| (i, j)))
        .collect();
    debug_assert_eq!(pairs.len(), 6);

    // For each of the 6 pair-pairs there are two classes (A, B), and for
    // each class two candidate edges — 2^12 selections.
    for mask in 0u32..(1 << 12) {
        let mut deg = [0u8; 8];
        let mut edges = Vec::with_capacity(12);
        for (t, &(i, j)) in pairs.iter().enumerate() {
            let (ai, bi, aj, bj) = (2 * i, 2 * i + 1, 2 * j, 2 * j + 1);
            let pick_a = (mask >> (2 * t)) & 1;
            let pick_b = (mask >> (2 * t + 1)) & 1;
            let ea = if pick_a == 0 { (ai, aj) } else { (bi, bj) };
            let eb = if pick_b == 0 { (ai, bj) } else { (bi, aj) };
            for &(u, v) in &[ea, eb] {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                edges.push((u, v));
            }
        }
        if deg.iter().all(|&d| d == 3) {
            let g = Graph::from_edges(8, &edges);
            debug_assert_eq!(g.m(), 12);
            return g;
        }
    }
    unreachable!("an IQ_3 graph exists (paper Fig. 6a)");
}

/// The inductive step of Fig. 6b: given `IQ_{d'}` (with f(2i) = 2i+1),
/// append an `IQ_3` block and join {x', f(x'), z', f(z')} to all of A
/// (even vertices) and {y', f(y'), w', f(w')} to all of f(A) (odd
/// vertices).
fn extend_by_iq3(g: &Graph) -> Graph {
    let n = g.n();
    let block = iq3();
    let mut b = GraphBuilder::new(n + 8);
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    for (u, v) in block.edges() {
        b.add_edge(n as u32 + u, n as u32 + v);
    }
    // Block pairs: (x', f x') = (n, n+1), (y', f y') = (n+2, n+3),
    //              (z', f z') = (n+4, n+5), (w', f w') = (n+6, n+7).
    let to_a = [n, n + 1, n + 4, n + 5]; // x', f(x'), z', f(z')
    let to_fa = [n + 2, n + 3, n + 6, n + 7]; // y', f(y'), w', f(w')
    for old in 0..n {
        let targets = if old % 2 == 0 { &to_a } else { &to_fa };
        for &t in targets {
            b.add_edge(old as u32, t as u32);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_degrees() {
        let feas: Vec<usize> = (0..20).filter(|&d| is_feasible_degree(d)).collect();
        assert_eq!(feas, vec![0, 3, 4, 7, 8, 11, 12, 15, 16, 19]);
        for d in [1usize, 2, 5, 6] {
            let e = inductive_quad(d).unwrap_err();
            assert!(
                e.to_string().contains(&format!("IQ({d})")),
                "unhelpful error: {e}"
            );
        }
    }

    #[test]
    fn orders_attain_bound() {
        // Proposition 2 / Corollary 3: |IQ_{d'}| = 2d' + 2.
        for d in [0usize, 3, 4, 7, 8, 11, 12, 15] {
            let s = inductive_quad(d).unwrap();
            assert_eq!(s.order(), 2 * d + 2, "IQ({d}) order");
            if d > 0 {
                assert!(s.graph.is_regular(), "IQ({d}) regular");
                assert_eq!(s.degree(), d, "IQ({d}) degree");
            }
            assert!(s.attains_r_star_bound());
        }
    }

    #[test]
    fn iq3_is_paper_base_graph() {
        let s = inductive_quad(3).unwrap();
        assert_eq!(s.order(), 8);
        assert_eq!(s.graph.m(), 12);
        assert!(s.graph.is_regular());
        // No intra-pair edges: the counting argument forbids them.
        for i in 0..4u32 {
            assert!(!s.graph.has_edge(2 * i, 2 * i + 1));
        }
    }

    #[test]
    fn property_r_star_holds() {
        // Proposition 2: every IQ has Property R* with the pairing
        // involution.
        for d in [0usize, 3, 4, 7, 8, 11] {
            let s = inductive_quad(d).unwrap();
            assert!(s.f_is_involution());
            assert!(s.satisfies_r_star(), "IQ({d}) must satisfy R*");
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = inductive_quad(7).unwrap();
        let b = inductive_quad(7).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.f, b.f);
    }

    #[test]
    fn iq_is_connected_for_positive_degree() {
        for d in [3usize, 4, 8, 12] {
            let s = inductive_quad(d).unwrap();
            assert!(
                polarstar_graph::traversal::is_connected(&s.graph),
                "IQ({d})"
            );
        }
    }
}
