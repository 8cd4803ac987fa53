//! Concrete PolarStar network construction from a design-space
//! configuration.

use crate::design::{PolarStarConfig, SupernodeKind};
use polarstar_graph::Graph;
use polarstar_topo::er::ErGraph;
use polarstar_topo::error::TopoError;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::star::{star_product, vertex_id, vertex_parts};
use polarstar_topo::supernode::Supernode;
use polarstar_topo::{iq, paley};

/// A fully-constructed PolarStar network, retaining its factor graphs so
/// the analytic router and the layout analysis can use them.
#[derive(Clone, Debug)]
pub struct PolarStarNetwork {
    /// The configuration this network realizes.
    pub config: PolarStarConfig,
    /// The `ER_q` structure graph (with quadric metadata).
    pub er: ErGraph,
    /// The supernode factor (graph + bijection f).
    pub supernode: Supernode,
    /// Router graph, endpoints, groups. `group[v]` is the structure
    /// vertex (supernode copy) of router `v`.
    pub spec: NetworkSpec,
}

impl PolarStarNetwork {
    /// Build the network for `config` with `p` endpoints per router.
    pub fn build(config: PolarStarConfig, p: u32) -> Result<Self, TopoError> {
        let er = ErGraph::new(config.q)?;
        let supernode = build_supernode(config.supernode)?;
        let graph = star_product(&er.graph, &er.quadric_vertices(), &supernode);
        let np = supernode.order();
        let n = graph.n();
        let group: Vec<u32> = (0..n).map(|v| (v / np) as u32).collect();
        let spec = NetworkSpec::new(config.label(), graph, vec![p; n], group);
        Ok(PolarStarNetwork {
            config,
            er,
            supernode,
            spec,
        })
    }

    /// The router graph.
    pub fn graph(&self) -> &Graph {
        &self.spec.graph
    }

    /// Structure coordinate (supernode copy) of a router.
    #[inline]
    pub fn structure_of(&self, v: u32) -> u32 {
        vertex_parts(v, self.supernode.order()).0
    }

    /// Supernode-internal coordinate of a router.
    #[inline]
    pub fn local_of(&self, v: u32) -> u32 {
        vertex_parts(v, self.supernode.order()).1
    }

    /// Compose a router id from `(structure, local)` coordinates.
    #[inline]
    pub fn router_id(&self, x: u32, xp: u32) -> u32 {
        vertex_id(x, xp, self.supernode.order())
    }

    /// Edge-disjoint spanning trees of the router graph, composed from
    /// the retained factor graphs (Dawkins et al., arXiv 2403.12231)
    /// with a residual greedy top-up — the substrate for the striped
    /// multi-tree collectives in `crates/motifs`.
    pub fn edst_trees(&self) -> Vec<Vec<(u32, u32)>> {
        polarstar_topo::edst::star_product_edst(self.graph(), &self.er.graph, &self.supernode)
    }
}

fn build_supernode(kind: SupernodeKind) -> Result<Supernode, TopoError> {
    match kind {
        SupernodeKind::InductiveQuad { degree } => iq::inductive_quad(degree),
        SupernodeKind::Paley { degree } => {
            if degree == 0 {
                // Degenerate single-vertex supernode: PolarStar reduces to
                // ER_q itself.
                Ok(Supernode::new("K1", Graph::empty(1), vec![0]))
            } else {
                paley::paley_supernode(2 * degree as u64 + 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{best_config, best_config_with};
    use polarstar_graph::traversal;

    #[test]
    fn table3_ps_iq_builds() {
        let cfg = best_config(15).unwrap();
        let net = PolarStarNetwork::build(cfg, 5).unwrap();
        assert_eq!(net.spec.routers(), 1064);
        assert_eq!(net.spec.total_endpoints(), 5320);
        assert!(net.spec.radix() <= 15 + 5);
        net.spec.validate().unwrap();
    }

    #[test]
    fn diameter_three_small_configs() {
        for degree in [7usize, 8, 9, 10, 12] {
            let cfg = best_config(degree).unwrap();
            let net = PolarStarNetwork::build(cfg, 1).unwrap();
            let diam = traversal::diameter(net.graph()).expect("connected");
            assert!(diam <= 3, "{}: diameter {diam}", cfg.label());
        }
    }

    #[test]
    fn paley_variant_builds_diameter_3() {
        let cfg = best_config_with(10, false).unwrap();
        let net = PolarStarNetwork::build(cfg, 1).unwrap();
        let diam = traversal::diameter(net.graph()).expect("connected");
        assert!(diam <= 3, "{}: diameter {diam}", cfg.label());
    }

    #[test]
    fn coordinates_roundtrip() {
        let cfg = best_config(9).unwrap();
        let net = PolarStarNetwork::build(cfg, 1).unwrap();
        for v in 0..net.spec.routers() as u32 {
            let (x, xp) = (net.structure_of(v), net.local_of(v));
            assert_eq!(net.router_id(x, xp), v);
            assert_eq!(net.spec.group[v as usize], x);
        }
    }

    #[test]
    fn edst_trees_are_valid_and_plural() {
        let cfg = best_config(9).unwrap();
        let net = PolarStarNetwork::build(cfg, 1).unwrap();
        let trees = net.edst_trees();
        polarstar_graph::edst::validate_edst(net.graph(), &trees).unwrap();
        assert!(trees.len() >= 3, "found {}", trees.len());
    }

    #[test]
    fn group_counts_match_structure_order() {
        let cfg = best_config(11).unwrap();
        let net = PolarStarNetwork::build(cfg, 2).unwrap();
        assert_eq!(net.spec.num_groups(), net.config.structure_order());
        for g in net.spec.groups() {
            assert_eq!(g.len(), net.supernode.order());
        }
    }
}
