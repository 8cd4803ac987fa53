//! Bermond–Delorme–Farhi (BDF) supernodes — Property-R* graphs of order
//! 2d' from the original star-product paper, listed in Table 2 as the
//! pre-PolarStar state of the art (IQ beats them by two vertices at every
//! degree).
//!
//! The 1982 paper gives these graphs by ad-hoc constructions; what matters
//! for the reproduction is their defining parameters (degree d', order
//! 2d', Property R* with a pairing involution). We realize the family the
//! same way the paper builds IQ (§6.2.1): explicit base graphs for
//! d' ∈ {1, 2, 3, 4} (the d' = 3, 4 bases come from a tiny orbit-class
//! search) and an inductive +4 step that appends an `IQ_3` block *with*
//! its intra-pair matching — the matching spends the per-step slack that
//! distinguishes order 2d' from IQ's optimal 2d' + 2.

use crate::error::TopoError;
use crate::iq;
use crate::supernode::Supernode;
use polarstar_graph::{Graph, GraphBuilder};

/// Construct a BDF-style supernode of degree `d ≥ 1` and order `2d`.
///
/// Vertices are paired `{2i, 2i+1}` with `f(2i) = 2i+1`.
pub fn bdf_supernode(d: usize) -> Result<Supernode, TopoError> {
    if d == 0 {
        // Order would be 0.
        return Err(TopoError::InfeasibleSupernode(
            "BDF(0): degree must be ≥ 1".into(),
        ));
    }
    let mut g = base(((d - 1) % 4) + 1).ok_or_else(|| {
        TopoError::InfeasibleSupernode(format!(
            "BDF({d}): no degree-{} base graph",
            (d - 1) % 4 + 1
        ))
    })?;
    let mut cur = ((d - 1) % 4) + 1;
    while cur < d {
        g = extend_by_iq3_with_matching(&g);
        cur += 4;
    }
    let n = g.n();
    let f: Vec<u32> = (0..n as u32).map(|v| v ^ 1).collect();
    Supernode::new(format!("BDF({d})"), g, f)
}

fn base(d: usize) -> Option<Graph> {
    match d {
        // K_2: the matched pair.
        1 => Some(Graph::from_edges(2, &[(0, 1)])),
        // C_4 arranged so the pairing f = v⊕1 works: 0–2–1–3–0.
        2 => Some(Graph::from_edges(4, &[(0, 2), (2, 1), (1, 3), (3, 0)])),
        3 => search_base(3),
        4 => search_base(4),
        _ => unreachable!("base degree is 1..=4"),
    }
}

/// Search a degree-d order-2d R* base. For every pair-pair each f-orbit
/// class {e₁, e₂} contributes e₁, e₂ or both (3 × 3 = 9 options per
/// pair-pair); intra-pair matching edges then top up vertices sitting at
/// d − 1. Spaces are 9³ = 729 (d = 3) and 9⁶ ≈ 5·10⁵ (d = 4) — a parity
/// argument rules out the plain one-edge-per-class scheme at d ≡ 3 mod 4,
/// so the "both" option is essential.
fn search_base(d: usize) -> Option<Graph> {
    let pairs: Vec<(u32, u32)> = (0..d as u32)
        .flat_map(|i| ((i + 1)..d as u32).map(move |j| (i, j)))
        .collect();
    let npp = pairs.len();
    let total = 9usize.pow(npp as u32);
    'outer: for mut code in 0..total {
        let mut deg = vec![0u8; 2 * d];
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(d * d);
        for &(i, j) in &pairs {
            let opt = code % 9;
            code /= 9;
            let (ai, bi, aj, bj) = (2 * i, 2 * i + 1, 2 * j, 2 * j + 1);
            let class_a = [(ai, aj), (bi, bj)];
            let class_b = [(ai, bj), (bi, aj)];
            for (class, pick) in [(class_a, opt % 3), (class_b, opt / 3)] {
                let chosen: &[(u32, u32)] = match pick {
                    0 => &class[0..1],
                    1 => &class[1..2],
                    _ => &class[..],
                };
                for &(u, v) in chosen {
                    deg[u as usize] += 1;
                    deg[v as usize] += 1;
                    if deg[u as usize] as usize > d || deg[v as usize] as usize > d {
                        continue 'outer;
                    }
                    edges.push((u, v));
                }
            }
        }
        // Top up with matching edges; every vertex must land exactly at d.
        let mut ok = true;
        for i in 0..d {
            let (a, b) = (2 * i, 2 * i + 1);
            match (d - deg[a] as usize, d - deg[b] as usize) {
                (0, 0) => {}
                (1, 1) => edges.push((a as u32, b as u32)),
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return Some(Graph::from_edges(2 * d, &edges));
        }
    }
    None
}

/// The +4 inductive step: append an IQ_3 block *plus its matching* and
/// wire block pairs {0, 2} to all even (A-side) old vertices and pairs
/// {1, 3} to all odd (f(A)-side) old vertices — exactly the IQ step of
/// Fig. 6b with the extra matching edges.
fn extend_by_iq3_with_matching(g: &Graph) -> Graph {
    let n = g.n();
    let block = iq::inductive_quad(3).expect("IQ3 exists").graph;
    let mut b = GraphBuilder::new(n + 8);
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    for (u, v) in block.edges() {
        b.add_edge(n as u32 + u, n as u32 + v);
    }
    for t in 0..4 {
        b.add_edge((n + 2 * t) as u32, (n + 2 * t + 1) as u32);
    }
    let to_a = [n, n + 1, n + 4, n + 5];
    let to_fa = [n + 2, n + 3, n + 6, n + 7];
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
    fn orders_and_degrees() {
        for d in 1..=12usize {
            let s = bdf_supernode(d).unwrap_or_else(|e| panic!("BDF({d}) failed: {e}"));
            assert_eq!(s.order(), 2 * d, "BDF({d}) order");
            assert!(s.graph.is_regular(), "BDF({d}) regular");
            assert_eq!(s.degree(), d, "BDF({d}) degree");
        }
    }

    #[test]
    fn property_r_star_holds() {
        for d in 1..=12usize {
            let s = bdf_supernode(d).unwrap();
            assert!(s.f_is_involution());
            assert!(s.satisfies_r_star(), "BDF({d}) must satisfy R*");
        }
    }

    #[test]
    fn iq_beats_bdf_by_two() {
        // Table 2 / Corollary 3: IQ order 2d'+2 vs BDF order 2d'.
        for d in [3usize, 4, 7, 8, 11] {
            let bdf = bdf_supernode(d).unwrap();
            let iq = crate::iq::inductive_quad(d).unwrap();
            assert_eq!(iq.order(), bdf.order() + 2);
        }
    }

    #[test]
    fn rejects_degree_zero() {
        let e = bdf_supernode(0).unwrap_err();
        assert!(e.to_string().contains("BDF(0)"), "unhelpful error: {e}");
    }
}
