//! Star-product-aware edge-disjoint spanning trees (Dawkins et al.,
//! "Edge-Disjoint Spanning Trees on Star-Product Networks", arXiv
//! 2403.12231 — the PolarStar authors' follow-up).
//!
//! The product `G * G'` inherits tree packings from its factors. Given
//! EDSTs `S_1..S_τ` of the structure graph and `T_1..T_τ′` of the
//! supernode, two lifted families are edge-disjoint spanning trees of
//! the product:
//!
//! * **Type B** (one per `T_j`, `j < τ′`): place `T_j` inside every
//!   supernode copy, then connect the copies with one matching edge per
//!   `S_1` edge at a per-tree slot `x' = j` (the product edge
//!   `(x, j) ~ (y, f(j))`). The copies are internally spanned by `T_j`
//!   and the connectors form `S_1` over them.
//! * **Type A** (one per `S_i`, `i ≥ 2`): take *all* `n'` matching
//!   edges of every `S_i` edge — since `S_i` is a tree, this lift
//!   splits into exactly `n'` components, each holding one vertex per
//!   copy — and stitch the components together with `T_τ′` placed in a
//!   per-tree distinct copy.
//!
//! Slots, copies and factor edges are all distinct across the family,
//! so disjointness is structural; each composed tree is still validated
//! before being committed (and skipped defensively if a factor packing
//! violates the assumptions). A residual greedy peel over the remaining
//! product edges — unused matching slots, supernode edges outside the
//! factor packings, and PolarStar's quadric self-loop edges — then tops
//! up the set, so the result is never worse than what the leftovers
//! admit. This yields `τ + τ′ − 2` composed trees plus extras, against
//! the generic `⌊m/(n−1)⌋ ∧ δ` ceiling.

use crate::star::StarProduct;
use polarstar_graph::csr::{Graph, VertexId};
use polarstar_graph::edst::{greedy_edst, greedy_edst_excluding, mark_used};

impl StarProduct<'_> {
    /// Compose a maximal-effort EDST packing on `product`, which must be
    /// this view's [`StarProduct::graph`]; on a size mismatch (or
    /// degenerate factors) this falls back to the generic greedy peel,
    /// so it is always safe to call.
    pub fn edst(&self, product: &Graph) -> Vec<Vec<(VertexId, VertexId)>> {
        let (structure, supernode) = (self.structure(), self.supernode());
        let n = structure.n();
        let np = supernode.order();
        if n <= 1 || np <= 1 || self.order() != product.n() {
            return greedy_edst(product);
        }
        let s_trees = greedy_edst(structure);
        let t_trees = greedy_edst(&supernode.graph);
        if s_trees.is_empty() || t_trees.is_empty() {
            // A factor is disconnected: the lifts cannot span, but the
            // product may still be connected through matchings/self-loops.
            return greedy_edst(product);
        }
        let mut used = vec![false; product.directed_edge_count()];
        let mut trees: Vec<Vec<(VertexId, VertexId)>> = Vec::new();
        // Factor tree `t` placed inside copy `x`.
        let place = |tree: &mut Vec<_>, x: u32, t: &[(u32, u32)]| {
            tree.extend(
                t.iter()
                    .map(|&(a, b)| (self.router(x, a), self.router(x, b))),
            );
        };

        // Type B: T_j in every copy + slot-j connectors along S_1.
        let t_last = t_trees.last().expect("nonempty");
        for (j, t_tree) in t_trees[..t_trees.len() - 1].iter().enumerate() {
            let mut tree = Vec::with_capacity(n * np - 1);
            for x in 0..n as u32 {
                place(&mut tree, x, t_tree);
            }
            for &(u, v) in &s_trees[0] {
                tree.push(self.arc_edge(u, v, j as u32));
            }
            commit(product, &mut used, &mut trees, tree);
        }

        // Type A: the full matching lift of S_i + T_τ′ in copy i−2.
        for (i, s_tree) in s_trees.iter().skip(1).enumerate() {
            if i >= n {
                break; // out of distinct copies (cannot happen: τ − 1 ≤ δ < n)
            }
            let mut tree = Vec::with_capacity(n * np - 1);
            for &(u, v) in s_tree {
                tree.extend((0..np as u32).map(|w| self.arc_edge(u, v, w)));
            }
            place(&mut tree, i as u32, t_last);
            commit(product, &mut used, &mut trees, tree);
        }

        // Residual peel over whatever product edges remain unused.
        trees.extend(greedy_edst_excluding(product, &mut used));
        trees
    }
}

/// Validate a composed candidate (edges exist, unused, spanning) and
/// commit it to the packing; silently drop invalid candidates — the
/// residual peel reclaims their edges.
fn commit(
    product: &Graph,
    used: &mut [bool],
    trees: &mut Vec<Vec<(VertexId, VertexId)>>,
    tree: Vec<(VertexId, VertexId)>,
) -> bool {
    if tree.len() != product.n() - 1 {
        return false;
    }
    for &(u, v) in &tree {
        match product.edge_id(u, v) {
            Some(e) if !used[e as usize] => {}
            _ => return false,
        }
    }
    // n−1 candidate edges connecting all n vertices force a tree (any
    // in-candidate duplicate would leave the deduplicated subgraph too
    // sparse to connect).
    let sub = Graph::from_edges(product.n(), &tree);
    if !polarstar_graph::traversal::is_connected(&sub) {
        return false;
    }
    for &(u, v) in &tree {
        mark_used(product, used, u, v);
    }
    trees.push(tree);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::ErGraph;
    use crate::iq::inductive_quad;
    use crate::paley::paley_supernode;
    use crate::supernode::{complete_supernode, Supernode};
    use polarstar_graph::edst::{packing_upper_bound, validate_edst};

    #[test]
    fn k4_star_k4_composes_both_types() {
        // K4 packs 2 trees per factor: 1 type-B + 1 type-A + residual.
        let structure = Graph::complete(4);
        let sn = complete_supernode(4);
        let view = StarProduct::new(&structure, &[], &sn);
        let product = view.graph();
        let trees = view.edst(&product);
        validate_edst(&product, &trees).unwrap();
        assert!(trees.len() >= 2, "found {}", trees.len());
        assert!(trees.len() <= packing_upper_bound(&product));
    }

    #[test]
    fn polarstar_d9_beats_plain_greedy_floor() {
        // ER_5 * IQ(3): the degree-9 PolarStar of the spanning tests.
        let er = ErGraph::new(5).unwrap();
        let iq = inductive_quad(3).unwrap();
        let view = StarProduct::new(&er.graph, &er.quadric, &iq);
        let product = view.graph();
        let s = greedy_edst(&er.graph).len();
        let t = greedy_edst(&iq.graph).len();
        let trees = view.edst(&product);
        validate_edst(&product, &trees).unwrap();
        // Floor s + t − 2 from the factor packings, plus at least one
        // residual tree.
        assert!(
            trees.len() > s + t - 2,
            "composed {} < floor {} + residual",
            trees.len(),
            s + t - 2
        );
        assert!(trees.len() >= 3, "found {}", trees.len());
        // The Dawkins et al. observation holds for the blind peel too:
        // the product inherits a rich packing from its factors.
        let blind = greedy_edst(&product);
        validate_edst(&product, &blind).unwrap();
        assert!(blind.len() >= 3, "greedy found {}", blind.len());
    }

    #[test]
    fn paley_supernode_lifts_type_b() {
        // MMS-free check of the type-B path with a τ′ ≥ 2 supernode:
        // C_5 structure * Paley(9) (degree 4 → 2 factor trees).
        let structure = Graph::cycle(5);
        let sn = paley_supernode(9).unwrap();
        assert!(greedy_edst(&sn.graph).len() >= 2);
        let view = StarProduct::new(&structure, &[], &sn);
        let product = view.graph();
        let trees = view.edst(&product);
        validate_edst(&product, &trees).unwrap();
        // τ = 1 (cycle), τ′ = 2 → at least one composed type-B tree.
        assert!(!trees.is_empty());
    }

    #[test]
    fn factor_mismatch_falls_back_to_greedy() {
        let sn = complete_supernode(3);
        let product = StarProduct::new(&Graph::cycle(4), &[], &sn).graph();
        let wrong = Graph::cycle(7);
        let trees = StarProduct::new(&wrong, &[], &sn).edst(&product);
        validate_edst(&product, &trees).unwrap();
        assert_eq!(trees.len(), greedy_edst(&product).len());
    }

    #[test]
    fn trivial_supernode_falls_back() {
        // K1 supernode: the product *is* the structure graph.
        let structure = Graph::complete(5);
        let sn = Supernode::new("K1", Graph::empty(1), vec![0]).unwrap();
        let view = StarProduct::new(&structure, &[], &sn);
        let product = view.graph();
        assert_eq!(product, structure);
        let trees = view.edst(&product);
        validate_edst(&product, &trees).unwrap();
        assert_eq!(trees.len(), greedy_edst(&structure).len());
    }
}
