//! Concrete PolarStar network construction from a design-space
//! configuration.

use crate::design::{PolarStarConfig, SupernodeKind};
use polarstar_graph::Graph;
use polarstar_topo::er::ErGraph;
use polarstar_topo::error::TopoError;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::star::StarProduct;
use polarstar_topo::supernode::{complete_supernode, Supernode};
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
        let view = StarProduct::new(&er.graph, &er.quadric, &supernode);
        let spec = NetworkSpec::new(
            config.label(),
            view.graph(),
            vec![p; view.order()],
            view.groups(),
        );
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

    /// The star product this network is: `ER_q` with its quadric
    /// self-loops times the supernode. Router coordinates, arc crossings
    /// and self-loop partners are read from it.
    #[inline]
    pub fn view(&self) -> StarProduct<'_> {
        StarProduct::new(&self.er.graph, &self.er.quadric, &self.supernode)
    }

    /// Edge-disjoint spanning trees of the router graph, composed from
    /// the retained factor graphs (Dawkins et al., arXiv 2403.12231)
    /// with a residual greedy top-up — the substrate for the striped
    /// multi-tree collectives in `crates/motifs`.
    pub fn edst_trees(&self) -> Vec<Vec<(u32, u32)>> {
        self.view().edst(self.graph())
    }
}

fn build_supernode(kind: SupernodeKind) -> Result<Supernode, TopoError> {
    match kind {
        SupernodeKind::InductiveQuad { degree } => iq::inductive_quad(degree),
        SupernodeKind::Paley { degree } => {
            if degree == 0 {
                // Degenerate single-vertex supernode: PolarStar reduces to
                // ER_q itself.
                Ok(complete_supernode(1))
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
        let view = net.view();
        for v in 0..net.spec.routers() as u32 {
            let (x, xp) = view.parts(v);
            assert_eq!(view.router(x, xp), v);
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
