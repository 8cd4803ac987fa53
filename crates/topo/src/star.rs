//! The star product of Bermond, Delorme and Farhi (Definition 1) — the
//! mathematical construct underlying PolarStar and Bundlefly — and the
//! one place that knows its rule, with the §9.2 distance kernel that
//! reads it.
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
//! Construction ([`StarProduct::graph`]) and the factor-aware EDST
//! packing ([`StarProduct::edst`]) read the rule from here, and so does
//! [`DistanceKernel`], §9.2's router state: one adjacency bit row per
//! vertex of each factor and nothing else. From those rows and the view
//! it answers a router pair's hop distance — 1 iff product-adjacent, 2
//! iff one of the product's 2-walks joins them, 3 otherwise — on any
//! star product of diameter ≤ 3: ER_q * IQ/Paley (PolarStar, Theorems
//! 4–5), ER_q * K1 (PolarFly) and MMS * Paley (Bundlefly). A 2-walk
//! that crosses two arcs from copy x to copy y passes a copy w adjacent
//! to both, and the set bits of `row(x) & row(y)` are exactly those w;
//! on ER_q there is at most one (Property R). The Cartesian product
//! (Fig. 2a) is the view with f = id, and a one-vertex supernode gives
//! back the structure graph.

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

/// A factor graph's adjacency as one bit row per vertex: bit `v` of
/// row `u` is set iff `u ~ v`. One word read answers an edge test, and
/// the AND of two rows lists their common neighbors.
struct AdjRows {
    /// Vertices, one row each.
    n: usize,
    /// Words per row, `⌈n/64⌉`.
    words: usize,
    bits: Vec<u64>,
}

impl AdjRows {
    fn new(g: &Graph) -> Self {
        let words = g.n().div_ceil(64);
        let mut bits = vec![0u64; g.n() * words];
        for u in 0..g.n() {
            for &v in g.neighbors(u as u32) {
                bits[u * words + (v >> 6) as usize] |= 1 << (v & 63);
            }
        }
        AdjRows {
            n: g.n(),
            words,
            bits,
        }
    }

    /// Row `u`; `u` must be a vertex.
    #[inline]
    fn row(&self, u: u32) -> &[u64] {
        &self.bits[u as usize * self.words..][..self.words]
    }

    /// Whether `u ~ v`; both must be vertices.
    #[inline]
    fn has(&self, u: u32, v: u32) -> bool {
        self.row(u)[(v >> 6) as usize] >> (v & 63) & 1 != 0
    }

    /// Whether `u ~ v`, false for an id past the graph.
    fn has_checked(&self, u: u32, v: u32) -> bool {
        (u as usize) < self.n && (v as usize) < self.n && self.has(u, v)
    }
}

/// A router's `(structure, local)` coordinates.
type Coord = (u32, u32);

/// The kernel's refusal of an id ≥ n, kept out of line so the probe's
/// check is one compare and a branch.
#[cold]
#[inline(never)]
fn out_of_range(s: u32, t: u32, n: usize) -> ! {
    panic!("DistanceKernel: router id out of range ({s}, {t}) for {n} routers")
}

/// §9.2's distance kernel over a star product of diameter ≤ 3: the two
/// factors' adjacency bit rows, ⌈|V|/64⌉ words a vertex, and nothing
/// else. Every query takes the [`StarProduct`] the kernel was built from,
/// which supplies coordinates, crossings and self-loop partners.
///
/// ```
/// use polarstar_topo::{er::ErGraph, iq::inductive_quad, star::{DistanceKernel, StarProduct}};
/// let (er, iq) = (ErGraph::new(3).unwrap(), inductive_quad(3).unwrap());
/// let view = StarProduct::new(&er.graph, &er.quadric, &iq);
/// let kernel = DistanceKernel::new(&view);
/// let d = kernel.distance(&view, 0, 100);
/// assert!(d <= 3);                               // Theorem 4
/// assert!(kernel.within(&view, 0, 100, d) && !kernel.within(&view, 0, 100, d - 1));
/// ```
pub struct DistanceKernel {
    structure: AdjRows,
    supernode: AdjRows,
}

impl DistanceKernel {
    /// Precompute both factors' bit rows.
    pub fn new(view: &StarProduct<'_>) -> Self {
        DistanceKernel {
            structure: AdjRows::new(view.structure()),
            supernode: AdjRows::new(&view.supernode().graph),
        }
    }

    /// Heap bytes of the two factors' bit rows.
    pub fn row_bytes(&self) -> usize {
        (self.structure.bits.capacity() + self.supernode.bits.capacity())
            * std::mem::size_of::<u64>()
    }

    /// Whether structure vertices `x` and `y` are adjacent, read off the
    /// bit rows (false for an id past the structure graph).
    pub fn structure_adjacent(&self, x: u32, y: u32) -> bool {
        self.structure.has_checked(x, y)
    }

    /// Whether supernode vertices `a` and `b` are adjacent, read off the
    /// bit rows (false for an id past the supernode).
    pub fn supernode_adjacent(&self, a: u32, b: u32) -> bool {
        self.supernode.has_checked(a, b)
    }

    /// Hop distance from router `s` to router `t`, without materializing
    /// a path: 1 iff product-adjacent, 2 iff a 2-walk joins them, else 3,
    /// which is exact only on a product of diameter ≤ 3. Allocation-free.
    ///
    /// # Panics
    /// If `s` or `t` is not a router of the product (an id ≥ `n`).
    pub fn distance(&self, view: &StarProduct<'_>, s: u32, t: u32) -> u32 {
        let (a, b) = self.locate(view, s, t);
        if s == t {
            0
        } else if self.product_adjacent(view, a, b) {
            1
        } else if self.two_hop(view, a, b) {
            2
        } else {
            3
        }
    }

    /// Whether `distance(s, t) ≤ h`, asking only as much as `h` needs:
    /// `s == t` at 0, product adjacency at 1, adjacency or a 2-walk at 2,
    /// and nothing beyond 2. This is the probe a walk puts to each
    /// neighbor: at a router `r` hops out, a neighbor is one hop closer
    /// iff it is within `r − 1`. Allocation-free.
    ///
    /// # Panics
    /// If `s` or `t` is not a router of the product (an id ≥ `n`).
    #[inline]
    pub fn within(&self, view: &StarProduct<'_>, s: u32, t: u32, h: u32) -> bool {
        let (a, b) = self.locate(view, s, t);
        s == t
            || match h {
                0 => false,
                1 => self.product_adjacent(view, a, b),
                2 => self.product_adjacent(view, a, b) || self.two_hop(view, a, b),
                _ => true,
            }
    }

    /// The `(structure, local)` coordinates of routers `s` and `t`,
    /// refusing an id outside the product: the arithmetic would
    /// otherwise read another router's factor state. The check is one
    /// compare on the structure coordinates the kernel needs anyway.
    #[inline]
    fn locate(&self, view: &StarProduct<'_>, s: u32, t: u32) -> (Coord, Coord) {
        debug_assert_eq!(view.supernode().order(), self.supernode.n, "foreign view");
        let (a, b) = (view.parts(s), view.parts(t));
        if a.0.max(b.0) as usize >= self.structure.n {
            out_of_range(s, t, self.structure.n * self.supernode.n);
        }
        (a, b)
    }

    /// Whether routers `(x, a)` and `(x, b)` are adjacent inside copy x:
    /// a supernode edge, or a self-loop partner at a looped x.
    #[inline]
    fn copy_adjacent(&self, view: &StarProduct<'_>, x: u32, a: u32, b: u32) -> bool {
        self.supernode.has(a, b) || view.loop_partners(x, a).any(|c| c == b)
    }

    /// Neighbors of local coordinate `a` within copy `x`: the supernode
    /// neighbors, then the self-loop partners not already among them.
    fn copy_neighbors<'v>(
        &'v self,
        view: &StarProduct<'v>,
        x: u32,
        a: u32,
    ) -> impl Iterator<Item = u32> + 'v {
        let nbrs = view.supernode().graph.neighbors(a);
        let loops = view.loop_partners(x, a);
        nbrs.iter()
            .copied()
            .chain(loops.filter(move |&c| !self.supernode.has(a, c)))
    }

    /// Product adjacency of the routers at coordinates `(x, xp)` and
    /// `(y, yp)`.
    #[inline]
    fn product_adjacent(&self, view: &StarProduct<'_>, (x, xp): Coord, (y, yp): Coord) -> bool {
        if x == y {
            self.copy_adjacent(view, x, xp, yp)
        } else {
            self.structure.has(x, y) && view.cross(x, y, xp) == yp
        }
    }

    /// Whether a 2-walk of the product joins the routers at `(x, xp)`
    /// and `(y, yp)`: the kernel's one template enumeration.
    fn two_hop(&self, view: &StarProduct<'_>, (x, xp): Coord, (y, yp): Coord) -> bool {
        if x == y {
            // Intra-supernode 2-path through a copy-internal middle.
            return self
                .copy_neighbors(view, x, xp)
                .any(|m| self.copy_adjacent(view, x, m, yp));
        }
        // §9.2 case (c): intra hop at x, then cross; case (d): cross,
        // then intra hop at y.
        if self.structure.has(x, y)
            && (self
                .copy_neighbors(view, x, xp)
                .any(|m| view.cross(x, y, m) == yp)
                || self.copy_adjacent(view, y, view.cross(x, y, xp), yp))
        {
            return true;
        }
        // Case (a): cross to a middle copy w, then on to y — every common
        // structure neighbor of x and y, the set bits of row(x) & row(y).
        // The rows hold no self-loop, so w is neither x nor y; a looped
        // endpoint's self-loop hop is an intra hop cases (c) and (d) tried.
        let (rx, ry) = (self.structure.row(x), self.structure.row(y));
        for (i, (&wx, &wy)) in rx.iter().zip(ry).enumerate() {
            let mut common = wx & wy;
            while common != 0 {
                let w = i as u32 * 64 + common.trailing_zeros();
                if view.cross(w, y, view.cross(x, w, xp)) == yp {
                    return true;
                }
                common &= common - 1;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundlefly::{bundlefly_factors, BundleflyParams};
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
    fn kernel_matches_bfs_on_bundlefly_and_polarfly() {
        // Bundlefly's MMS structure gives a pair several middles, which
        // case (a) must all try; PolarFly is ER_q with a one-vertex
        // supernode, where every hop crosses or takes a self-loop.
        let bf = BundleflyParams {
            q: 4,
            dprime: 2,
            p: 1,
        };
        let (mms, pal) = bundlefly_factors(bf).unwrap();
        let (er, k1) = (ErGraph::new(7).unwrap(), complete_supernode(1));
        for view in [
            StarProduct::new(&mms, &[], &pal),
            StarProduct::new(&er.graph, &er.quadric, &k1),
        ] {
            let (g, kernel) = (view.graph(), DistanceKernel::new(&view));
            for s in 0..g.n() as u32 {
                let dist = traversal::bfs_distances(&g, s);
                for t in 0..g.n() as u32 {
                    let want = dist[t as usize];
                    assert_eq!(kernel.distance(&view, s, t), want, "{s}→{t}");
                    for h in 0..=3 {
                        assert_eq!(kernel.within(&view, s, t, h), want <= h, "{s}→{t} ≤ {h}");
                    }
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
