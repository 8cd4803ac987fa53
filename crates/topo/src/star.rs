//! The star product of Bermond, Delorme and Farhi (Definition 1) — the
//! mathematical construct underlying PolarStar and Bundlefly — and the
//! one place that knows its rule.
//!
//! [`StarProduct`] is a borrowed description of `G * G'`: the structure
//! graph G, which of its vertices carry a self-loop, and the
//! [`Supernode`] G' with its bijection f. Router `(x, a)` is the vertex
//! `x · n' + a`, and the product's edges are
//!
//! * a copy of G' in place of every vertex of G (condition 2a);
//! * across each structure arc x → y, oriented from the smaller id, the
//!   edges `(x, a) ~ (y, f(a))` (condition 2b), so a hop from y back to
//!   x applies f⁻¹ ([`StarProduct::cross`]);
//! * at a looped structure vertex x (ER_q's quadric vertices), the
//!   copy-internal edges `(x, a) ~ (x, f(a))` of §6.1.2 (Fig. 5c),
//!   dropping a degenerate `f(a) = a` ([`StarProduct::loop_partners`]).
//!
//! Construction ([`StarProduct::graph`]), the §9.2 distance kernel
//! (`polarstar::routing`) and the factor-aware EDST packing
//! ([`StarProduct::edst`]) all read the rule from here. The Cartesian
//! product (Fig. 2a) is the view with f = id, and a one-vertex
//! supernode gives back the structure graph.

use crate::supernode::Supernode;
use polarstar_graph::{Graph, GraphBuilder};

/// The star product `G * G'` as a description of its factors; nothing
/// is materialized until [`StarProduct::graph`].
///
/// ```
/// use polarstar_topo::{er::ErGraph, iq::inductive_quad, star::StarProduct};
/// let er = ErGraph::new(3).unwrap();
/// let iq = inductive_quad(3).unwrap();
/// let g = StarProduct::new(&er.graph, &er.quadric, &iq).graph();
/// assert_eq!(g.n(), 13 * 8);
/// assert!(polarstar_graph::traversal::diameter(&g).unwrap() <= 3); // Theorem 4
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StarProduct<'a> {
    structure: &'a Graph,
    loops: &'a [bool],
    supernode: &'a Supernode,
}

impl<'a> StarProduct<'a> {
    /// The product of `structure` and `supernode`. `loops[x]` flags a
    /// self-loop at structure vertex `x`; a vertex past the slice's end
    /// has none, so `&[]` describes a loop-free structure graph.
    pub fn new(structure: &'a Graph, loops: &'a [bool], supernode: &'a Supernode) -> Self {
        StarProduct {
            structure,
            loops,
            supernode,
        }
    }

    /// The structure graph G.
    pub fn structure(&self) -> &'a Graph {
        self.structure
    }

    /// The supernode G' and its bijection.
    pub fn supernode(&self) -> &'a Supernode {
        self.supernode
    }

    /// Number of routers, |V(G)| · |V(G')|.
    pub fn order(&self) -> usize {
        self.structure.n() * self.supernode.order()
    }

    /// Router id of `(x, a)`: structure vertex `x`, supernode vertex `a`.
    #[inline]
    pub fn router(&self, x: u32, a: u32) -> u32 {
        x * self.supernode.order() as u32 + a
    }

    /// The `(structure, supernode)` coordinates of router `v`.
    #[inline]
    pub fn parts(&self, v: u32) -> (u32, u32) {
        let np = self.supernode.order() as u32;
        (v / np, v % np)
    }

    /// The structure coordinate (supernode copy) of every router — a
    /// [`crate::network::NetworkSpec`]'s group map.
    pub fn groups(&self) -> Vec<u32> {
        (0..self.order() as u32).map(|v| self.parts(v).0).collect()
    }

    /// The supernode coordinate reached from `(x, a)` across the
    /// structure edge `{x, y}`: f(a) along the arc (`x < y`), f⁻¹(a)
    /// against it.
    #[inline]
    pub fn cross(&self, x: u32, y: u32, a: u32) -> u32 {
        if x < y {
            self.supernode.f[a as usize]
        } else {
            self.supernode.finv()[a as usize]
        }
    }

    /// The product edge across the structure edge `{x, y}` (either
    /// order) whose smaller structure endpoint sits at coordinate `a`,
    /// listed from that endpoint.
    #[inline]
    pub fn arc_edge(&self, x: u32, y: u32, a: u32) -> (u32, u32) {
        let (x, y) = (x.min(y), x.max(y));
        (self.router(x, a), self.router(y, self.cross(x, y, a)))
    }

    /// The self-loop partners of `(x, a)` inside copy `x`: f(a), then
    /// f⁻¹(a), leaving out `a` itself and a repeat (f⁻¹(a) = f(a) when f
    /// is an involution); none when `x` carries no self-loop.
    #[inline]
    pub fn loop_partners(&self, x: u32, a: u32) -> impl Iterator<Item = u32> {
        let mut partners = [None; 2];
        if self.loops.get(x as usize) == Some(&true) {
            let (fa, fia) = (
                self.supernode.f[a as usize],
                self.supernode.finv()[a as usize],
            );
            partners = [
                (fa != a).then_some(fa),
                (fia != a && fia != fa).then_some(fia),
            ];
        }
        partners.into_iter().flatten()
    }

    /// The product graph: the supernode copies, every structure arc's
    /// matching through [`StarProduct::cross`], and every self-loop's
    /// partners through [`StarProduct::loop_partners`].
    pub fn graph(&self) -> Graph {
        let np = self.supernode.order() as u32;
        let mut b = GraphBuilder::new(self.order());
        for x in 0..self.structure.n() as u32 {
            for (a, c) in self.supernode.graph.edges() {
                b.add_edge(self.router(x, a), self.router(x, c));
            }
            for a in 0..np {
                for c in self.loop_partners(x, a) {
                    b.add_edge(self.router(x, a), self.router(x, c));
                }
            }
        }
        for (x, y) in self.structure.edges() {
            for a in 0..np {
                let (u, v) = self.arc_edge(x, y, a);
                b.add_edge(u, v);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::ErGraph;
    use crate::iq::inductive_quad;
    use crate::paley::paley_supernode;
    use crate::supernode::complete_supernode;
    use polarstar_graph::traversal;

    /// The view over `structure` with no self-loops.
    fn product(structure: &Graph, supernode: &Supernode) -> Graph {
        StarProduct::new(structure, &[], supernode).graph()
    }

    #[test]
    fn order_is_product_of_orders() {
        let g = Graph::cycle(5);
        let h = inductive_quad(3).unwrap();
        let p = product(&g, &h);
        assert_eq!(p.n(), 5 * 8);
    }

    #[test]
    fn cartesian_l3_c4_matches_figure_2a() {
        // Fig. 2a: L_3 × C_4 has 12 vertices, 4·2 + 3·... edges:
        // 3 copies of C4 (12 edges) + 2 matchings of 4 = 20 edges.
        let c4 = Supernode::new("C4", Graph::cycle(4), vec![0, 1, 2, 3]).unwrap();
        let p = product(&Graph::path(3), &c4);
        assert_eq!(p.n(), 12);
        assert_eq!(p.m(), 20);
        // Cartesian product of diameters 2 and 2 has diameter 4.
        assert_eq!(traversal::diameter(&p), Some(4));
    }

    #[test]
    fn star_l3_c4_matches_figure_2b() {
        // Fig. 2b: same factors, bijection f = (01)(2)(3) on every arc.
        let c4 = Supernode::new("C4", Graph::cycle(4), vec![1, 0, 2, 3]).unwrap();
        let p = product(&Graph::path(3), &c4);
        assert_eq!(p.n(), 12);
        assert_eq!(p.m(), 20);
    }

    #[test]
    fn short_bijection_is_an_error() {
        let e = Supernode::new("C4", Graph::cycle(4), vec![0, 1]).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("2 entries") && msg.contains("4-vertex"),
            "unhelpful error: {msg}"
        );
    }

    #[test]
    fn degree_bound_holds() {
        // deg(G*) ≤ deg(G) + deg(G') (§4.3 fact 2).
        let g = Graph::cycle(6);
        let h = inductive_quad(4).unwrap();
        let p = product(&g, &h);
        assert_eq!(p.max_degree(), 2 + 4);
        assert!(p.is_regular());
    }

    #[test]
    fn theorem4_er_iq_diameter_3() {
        // Theorem 4: ER_q (Property R) * IQ (Property R*) has diameter ≤ 3.
        for (q, d) in [
            (2u64, 0usize),
            (2, 3),
            (3, 3),
            (3, 4),
            (4, 3),
            (5, 4),
            (7, 3),
        ] {
            let er = ErGraph::new(q).unwrap();
            let iq = inductive_quad(d).unwrap();
            let p = StarProduct::new(&er.graph, &er.quadric, &iq).graph();
            assert_eq!(p.n(), er.order() * iq.order());
            let diam = traversal::diameter(&p).expect("connected");
            assert!(diam <= 3, "ER_{q} * IQ({d}) diameter {diam} > 3");
        }
    }

    #[test]
    fn theorem5_er_paley_diameter_3() {
        // Theorem 5: structure of diameter 2 * R1 supernode → diameter ≤ 3.
        for (q, qp) in [(2u64, 5u64), (3, 5), (4, 5), (5, 9), (7, 13)] {
            let er = ErGraph::new(q).unwrap();
            let pal = paley_supernode(qp).unwrap();
            let p = StarProduct::new(&er.graph, &er.quadric, &pal).graph();
            let diam = traversal::diameter(&p).expect("connected");
            assert!(diam <= 3, "ER_{q} * Paley({qp}) diameter {diam} > 3");
        }
    }

    #[test]
    fn self_loops_add_intra_supernode_edges() {
        // A single structure vertex with a self-loop and IQ3 supernode:
        // the product is just IQ3 plus the f-matching.
        let g = Graph::empty(1);
        let iq = inductive_quad(3).unwrap();
        let with_loop = StarProduct::new(&g, &[true], &iq).graph();
        let without = product(&g, &iq);
        assert_eq!(without.m(), iq.graph.m());
        assert_eq!(with_loop.m(), iq.graph.m() + 4, "4 f-pairs add 4 edges");
    }

    #[test]
    fn vertex_id_roundtrip() {
        for np in [1usize, 4, 8] {
            let (g, sn) = (Graph::empty(5), complete_supernode(np));
            let view = StarProduct::new(&g, &[], &sn);
            for x in 0..5u32 {
                for xp in 0..np as u32 {
                    let v = view.router(x, xp);
                    assert_eq!(view.parts(v), (x, xp));
                    assert_eq!(view.groups()[v as usize], x);
                }
            }
        }
    }

    #[test]
    fn cartesian_diameter_additivity() {
        // D(G × H) = D(G) + D(H) for connected factors.
        let p4 = Supernode::new("P4", Graph::path(4), vec![0, 1, 2, 3]).unwrap();
        let p = product(&Graph::cycle(5), &p4);
        assert_eq!(traversal::diameter(&p), Some(2 + 3));
    }
}
