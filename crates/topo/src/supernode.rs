//! Supernode abstraction: a candidate G' factor graph together with the
//! bijection `f` that the star product applies across structure-graph arcs,
//! plus checkers for the paper's Properties R* (§5.1.2) and R1.

use crate::error::TopoError;
use polarstar_graph::Graph;

/// A supernode candidate: graph + the bijection `f` used on inter-supernode
/// arcs (Definition 1 condition 2b, specialized to a single `f`).
#[derive(Clone, Debug)]
pub struct Supernode {
    /// Display name, e.g. `"IQ(3)"` or `"Paley(5)"`.
    pub name: String,
    /// The supernode graph G'.
    pub graph: Graph,
    /// The bijection f as a permutation array: `f[x] = f(x)`.
    pub f: Vec<u32>,
    /// Its inverse, `finv[f(x)] = x`.
    finv: Vec<u32>,
}

impl Supernode {
    /// Construct after validating that `f` is a permutation of the vertex
    /// set, which also yields f⁻¹. Errs naming the supernode size when
    /// `f` has the wrong length, or the first entry that leaves the
    /// vertex set or repeats an earlier image.
    pub fn new(name: impl Into<String>, graph: Graph, f: Vec<u32>) -> Result<Self, TopoError> {
        let name = name.into();
        let n = graph.n();
        let bad = |why: String| Err(TopoError::InfeasibleSupernode(format!("{name}: {why}")));
        if f.len() != n {
            return bad(format!(
                "f has {} entries for a {n}-vertex supernode",
                f.len()
            ));
        }
        let mut finv = vec![u32::MAX; n];
        for (x, &y) in f.iter().enumerate() {
            match finv.get_mut(y as usize) {
                Some(slot) if *slot == u32::MAX => *slot = x as u32,
                Some(slot) => return bad(format!("f is no bijection: f({x}) = f({slot}) = {y}")),
                None => return bad(format!("f({x}) = {y} is past the {n}-vertex supernode")),
            }
        }
        Ok(Supernode {
            name,
            graph,
            f,
            finv,
        })
    }

    /// The inverse bijection f⁻¹ as a permutation array.
    #[inline]
    pub fn finv(&self) -> &[u32] {
        &self.finv
    }

    /// Number of vertices.
    #[inline]
    pub fn order(&self) -> usize {
        self.graph.n()
    }

    /// Maximum degree d'.
    pub fn degree(&self) -> usize {
        self.graph.max_degree()
    }

    /// Whether `f` is an involution (f² = id) — required by Property R*.
    pub fn f_is_involution(&self) -> bool {
        self.f
            .iter()
            .enumerate()
            .all(|(x, &y)| self.f[y as usize] == x as u32)
    }

    /// Whether `f²` is a graph automorphism — required by Property R1.
    pub fn f_squared_is_automorphism(&self) -> bool {
        let f2 = |x: u32| self.f[self.f[x as usize] as usize];
        self.graph
            .edges()
            .all(|(u, v)| self.graph.has_edge(f2(u), f2(v)))
    }

    /// Property R* (§5.1.2): `f` is an involution and every vertex pair
    /// (x, y) satisfies one of
    /// (a) y = x, (b) y = f(x), (c) (x,y) ∈ E, (d) (f(x), f(y)) ∈ E.
    pub fn satisfies_r_star(&self) -> bool {
        if !self.f_is_involution() {
            return false;
        }
        let n = self.order() as u32;
        for x in 0..n {
            for y in 0..n {
                let fx = self.f[x as usize];
                let fy = self.f[y as usize];
                let ok =
                    y == x || y == fx || self.graph.has_edge(x, y) || self.graph.has_edge(fx, fy);
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    /// Property R1 (Bermond et al., i = 1): f² is an automorphism and
    /// E(G') ∪ f(E(G')) is the complete edge set, where
    /// f(E) = {(f(x), f(y)) : (x, y) ∈ E}.
    pub fn satisfies_r1(&self) -> bool {
        if !self.f_squared_is_automorphism() {
            return false;
        }
        let n = self.order() as u32;
        // (x, y) ∈ f(E) iff (f⁻¹(x), f⁻¹(y)) ∈ E.
        let finv = &self.finv;
        for x in 0..n {
            for y in (x + 1)..n {
                let covered = self.graph.has_edge(x, y)
                    || self.graph.has_edge(finv[x as usize], finv[y as usize]);
                if !covered {
                    return false;
                }
            }
        }
        true
    }

    /// Upper bound check from Proposition 2: an R* graph of degree d' has
    /// at most 2d' + 2 vertices. True when this supernode attains it.
    pub fn attains_r_star_bound(&self) -> bool {
        self.order() == 2 * self.degree() + 2
    }
}

/// The complete graph K_n as a supernode (identity f). Satisfies both R*
/// and R1 trivially (Table 2, last row).
pub fn complete_supernode(n: usize) -> Supernode {
    let f = (0..n as u32).collect();
    Supernode::new(format!("K{n}"), Graph::complete(n), f).expect("the identity is a bijection")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_has_both_properties() {
        for n in [1usize, 2, 4, 7] {
            let s = complete_supernode(n);
            assert!(s.f_is_involution());
            assert!(s.satisfies_r_star(), "K{n} has R*");
            assert!(s.satisfies_r1(), "K{n} has R1");
            assert_eq!(s.order(), s.degree() + 1);
        }
    }

    #[test]
    fn c4_with_antipodal_f_has_r_star() {
        // C_4 with f(x) = x + 2 (mod 4): case (b) covers the two diagonal
        // pairs, edges cover the rest. A minimal nontrivial R* example.
        let g = Graph::cycle(4);
        let s = Supernode::new("C4", g, vec![2, 3, 0, 1]).unwrap();
        assert!(s.f_is_involution());
        assert!(s.satisfies_r_star());
    }

    #[test]
    fn edgeless_pair_has_r_star() {
        // IQ_0: two isolated vertices with f swapping them.
        let s = Supernode::new("IQ0", Graph::empty(2), vec![1, 0]).unwrap();
        assert!(s.satisfies_r_star());
        assert!(s.attains_r_star_bound());
        assert!(!s.satisfies_r1(), "two isolated vertices can't cover K2");
    }

    #[test]
    fn path_lacks_r_star() {
        // P_3 with identity f: endpoints are non-adjacent and f doesn't
        // help.
        let s = Supernode::new("P3", Graph::path(3), vec![0, 1, 2]).unwrap();
        assert!(!s.satisfies_r_star());
    }

    #[test]
    fn rejects_non_bijection() {
        let repeat = Supernode::new("bad", Graph::empty(2), vec![0, 0]).unwrap_err();
        assert!(repeat.to_string().contains("f(1) = f(0) = 0"), "{repeat}");
        let past = Supernode::new("bad", Graph::empty(2), vec![0, 2]).unwrap_err();
        assert!(past.to_string().contains("f(1) = 2 is past"), "{past}");
    }

    #[test]
    fn involution_detection() {
        let s = Supernode::new("rot", Graph::empty(3), vec![1, 2, 0]).unwrap();
        assert!(!s.f_is_involution());
        assert!(!s.satisfies_r_star(), "R* requires an involution");
    }
}
