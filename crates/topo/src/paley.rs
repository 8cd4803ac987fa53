//! Paley graphs — the alternative PolarStar supernode (Property R1,
//! Table 2) and a classical diameter-2 family for Fig. 4.
//!
//! For a prime power q ≡ 1 (mod 4), vertices are the elements of 𝔽_q and
//! x ~ y iff x − y is a nonzero square. The q ≡ 1 (mod 4) condition makes
//! −1 a square so adjacency is symmetric.
//!
//! The R1 bijection is multiplication by a fixed non-square α: it maps
//! square differences to non-square differences, so E ∪ f(E) covers every
//! pair, and f² (multiplication by the square α²) is an automorphism.

use crate::error::TopoError;
use crate::supernode::Supernode;
use polarstar_gf::Gf;
use polarstar_graph::{Graph, GraphBuilder};

/// Whether `Paley(q)` exists: q a prime power with q ≡ 1 (mod 4).
pub fn is_feasible_order(q: u64) -> bool {
    polarstar_gf::prime_power(q).is_some() && q % 4 == 1
}

/// Feasible supernode degrees: d' = (q − 1)/2 with q ≡ 1 mod 4 prime
/// power, i.e. order 2d' + 1 (Table 2: "even d', 2d'+1 a prime power").
pub fn is_feasible_degree(d: usize) -> bool {
    d.is_multiple_of(2) && is_feasible_order(2 * d as u64 + 1)
}

/// The Paley graph on q vertices as a plain graph.
pub fn paley_graph(q: u64) -> Option<Graph> {
    if !is_feasible_order(q) {
        return None;
    }
    let f = Gf::new(q).ok()?;
    let mut b = GraphBuilder::new(q as usize);
    for x in 0..q {
        for y in (x + 1)..q {
            if f.is_square(f.sub(y, x)) {
                b.add_edge(x as u32, y as u32);
            }
        }
    }
    Some(b.build())
}

/// The Paley supernode: graph plus the R1 bijection f(v) = α·v for a
/// fixed non-square α (the field generator).
pub fn paley_supernode(q: u64) -> Result<Supernode, TopoError> {
    let g = paley_graph(q).ok_or_else(|| {
        TopoError::InfeasibleSupernode(format!(
            "Paley({q}): order must be a prime power ≡ 1 (mod 4)"
        ))
    })?;
    let field = Gf::new(q)?;
    // The generator of the multiplicative group is always a non-square
    // (odd discrete log).
    let alpha = field.generator();
    debug_assert!(!field.is_square(alpha));
    let f: Vec<u32> = (0..q).map(|v| field.mul(alpha, v) as u32).collect();
    Supernode::new(format!("Paley({q})"), g, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::traversal;

    #[test]
    fn feasibility() {
        assert!(is_feasible_order(5));
        assert!(is_feasible_order(9));
        assert!(is_feasible_order(13));
        assert!(is_feasible_order(25));
        assert!(!is_feasible_order(7), "7 ≡ 3 mod 4");
        assert!(!is_feasible_order(21), "not a prime power");
        assert!(is_feasible_degree(2)); // q = 5
        assert!(is_feasible_degree(4)); // q = 9
        assert!(is_feasible_degree(6)); // q = 13
        assert!(!is_feasible_degree(3));
        assert!(!is_feasible_degree(10), "q = 21 infeasible");
    }

    #[test]
    fn regular_of_degree_half() {
        for q in [5u64, 9, 13, 17, 25, 29] {
            let g = paley_graph(q).unwrap();
            assert_eq!(g.n() as u64, q);
            assert!(g.is_regular());
            assert_eq!(g.max_degree() as u64, (q - 1) / 2, "Paley({q}) degree");
        }
    }

    #[test]
    fn paley5_is_c5() {
        let g = paley_graph(5).unwrap();
        assert_eq!(g.m(), 5);
        assert_eq!(traversal::diameter(&g), Some(2));
    }

    #[test]
    fn self_complementary() {
        // Paley graphs are self-complementary: m = n(n−1)/4.
        for q in [5u64, 9, 13, 17] {
            let g = paley_graph(q).unwrap();
            assert_eq!(g.m() as u64, q * (q - 1) / 4);
        }
    }

    #[test]
    fn diameter_two() {
        for q in [9u64, 13, 17, 25] {
            let g = paley_graph(q).unwrap();
            assert_eq!(traversal::diameter(&g), Some(2), "Paley({q})");
        }
    }

    #[test]
    fn supernode_satisfies_r1_not_r_star() {
        // Table 2: Paley has R1 = Y, R* = N.
        for q in [5u64, 9, 13, 25] {
            let s = paley_supernode(q).unwrap();
            assert!(s.satisfies_r1(), "Paley({q}) must satisfy R1");
            assert!(s.f_squared_is_automorphism());
            assert!(
                !s.f_is_involution(),
                "multiplicative f is not an involution"
            );
            assert!(!s.satisfies_r_star());
            assert_eq!(s.order(), 2 * s.degree() + 1, "Paley attains the R1 bound");
        }
    }
}
