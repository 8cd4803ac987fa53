//! Bundlefly (Lei et al., ICS'20) — the state-of-the-art diameter-3
//! star-product network PolarStar is compared against.
//!
//! Bundlefly is the star product of a McKay–Miller–Širáň structure graph
//! (diameter 2) with a Property-P1 supernode of order 2d' + 1. We realize
//! the supernode with the Paley graph — the canonical P1/R1 graph
//! attaining the 2d' + 1 bound — which matches the published Bundlefly
//! configurations (e.g. Table 3's BF: MMS(7) of degree 11 × a 9-vertex
//! degree-4 supernode → 882 routers of network radix 15). Where the
//! original paper's cyclic supernodes admit a few more degrees, the scale
//! formula (2q²·(2d'+1)) is identical, so Figure 1's Bundlefly curve is
//! preserved.

use crate::error::TopoError;
use crate::mms;
use crate::network::NetworkSpec;
use crate::paley;
use crate::star::StarProduct;
use crate::supernode::{complete_supernode, Supernode};
use polarstar_gf::primes;
use polarstar_graph::Graph;

/// Parameters of a Bundlefly network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BundleflyParams {
    /// MMS structure graph parameter (prime power, q ≢ 2 mod 4).
    pub q: u64,
    /// Supernode degree (even; 2d'+1 must be a Paley order). d' = 0 means
    /// a single-vertex supernode (plain MMS).
    pub dprime: usize,
    /// Endpoints per router.
    pub p: usize,
}

impl BundleflyParams {
    /// Network degree: MMS degree + supernode degree.
    pub fn degree(&self) -> Option<u64> {
        Some(mms::mms_degree(self.q)? + self.dprime as u64)
    }

    /// Order 2q²·(2d'+1).
    pub fn order(&self) -> u64 {
        mms::mms_order(self.q) * (2 * self.dprime as u64 + 1)
    }

    /// Whether both factors are constructible in principle.
    pub fn is_feasible(&self) -> bool {
        mms::is_feasible(self.q) && (self.dprime == 0 || paley::is_feasible_degree(self.dprime))
    }
}

/// The Bundlefly factor graphs: the MMS structure graph and the Paley
/// supernode (a single-vertex `K1` supernode when `d' = 0`). Exposed so
/// star-product-aware consumers — notably the EDST composition in
/// [`StarProduct::edst`] — can work from the factors the product was
/// built with.
pub fn bundlefly_factors(params: BundleflyParams) -> Result<(Graph, Supernode), TopoError> {
    if !params.is_feasible() {
        return Err(TopoError::infeasible(
            "Bundlefly",
            format!(
                "q={} d'={} has no MMS × Paley realization",
                params.q, params.dprime
            ),
        ));
    }
    let structure = mms::mms_graph(params.q).ok_or_else(|| {
        TopoError::infeasible("Bundlefly", format!("MMS({}) set search failed", params.q))
    })?;
    let supernode = if params.dprime == 0 {
        complete_supernode(1)
    } else {
        paley::paley_supernode(2 * params.dprime as u64 + 1)?
    };
    Ok((structure, supernode))
}

/// Build a Bundlefly network. Errs when parameters are infeasible or the
/// MMS set search fails (large q with δ ≠ 1).
pub fn bundlefly(params: BundleflyParams) -> Result<NetworkSpec, TopoError> {
    let (structure, sn) = bundlefly_factors(params)?;
    let view = StarProduct::new(&structure, &[], &sn);
    Ok(NetworkSpec::new(
        format!("BF(q{},d'{})", params.q, params.dprime),
        view.graph(),
        vec![params.p as u32; view.order()],
        view.groups(),
    ))
}

/// The largest feasible Bundlefly order at exactly the given network
/// degree — the Figure 1 scaling curve. Returns the chosen parameters.
pub fn best_params_for_degree(degree: u64) -> Option<BundleflyParams> {
    let mut best: Option<BundleflyParams> = None;
    for q in primes::prime_powers_in(4, degree) {
        let md = match mms::mms_degree(q) {
            Some(md) if md <= degree => md,
            _ => continue,
        };
        let dprime = (degree - md) as usize;
        let params = BundleflyParams { q, dprime, p: 0 };
        if params.is_feasible() && best.is_none_or(|b| params.order() > b.order()) {
            best = Some(params);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::traversal;

    #[test]
    fn table3_configuration_params() {
        // Table 3: BF d=11, d'=4, p=5 → 882 routers, radix 15, 4410 eps.
        let params = BundleflyParams {
            q: 7,
            dprime: 4,
            p: 5,
        };
        assert!(params.is_feasible());
        assert_eq!(params.degree(), Some(15));
        assert_eq!(params.order(), 882);
    }

    #[test]
    fn table3_configuration_constructs() {
        let bf = bundlefly(BundleflyParams {
            q: 7,
            dprime: 4,
            p: 5,
        })
        .unwrap();
        assert_eq!(bf.routers(), 882);
        assert_eq!(bf.total_endpoints(), 4410);
        assert_eq!(bf.graph.max_degree(), 15);
        let diam = traversal::diameter(&bf.graph).unwrap();
        assert!(diam <= 3, "Bundlefly diameter {diam}");
        bf.validate().unwrap();
    }

    #[test]
    fn small_bundlefly_diameter_3() {
        // MMS(5) × Paley(5): 50·5 = 250 routers, degree 7 + 2 = 9.
        let bf = bundlefly(BundleflyParams {
            q: 5,
            dprime: 2,
            p: 3,
        })
        .unwrap();
        assert_eq!(bf.routers(), 250);
        assert_eq!(bf.graph.max_degree(), 9);
        let diam = traversal::diameter(&bf.graph).unwrap();
        assert!(diam <= 3, "diameter {diam}");
    }

    #[test]
    fn degenerate_supernode_is_mms() {
        let bf = bundlefly(BundleflyParams {
            q: 5,
            dprime: 0,
            p: 1,
        })
        .unwrap();
        assert_eq!(bf.routers(), 50);
        assert_eq!(traversal::diameter(&bf.graph), Some(2));
    }

    #[test]
    fn infeasible_params() {
        assert!(!BundleflyParams {
            q: 6,
            dprime: 2,
            p: 1
        }
        .is_feasible());
        assert!(
            !BundleflyParams {
                q: 5,
                dprime: 3,
                p: 1
            }
            .is_feasible(),
            "odd d'"
        );
        assert!(
            !BundleflyParams {
                q: 5,
                dprime: 10,
                p: 1
            }
            .is_feasible(),
            "21 not a Paley order"
        );
    }

    #[test]
    fn view_rule_explains_the_csr() {
        // A router pair is a link exactly when the star-product rule says
        // so: a supernode edge or a self-loop partner inside one copy, or
        // a structure edge whose crossing lands on the other coordinate.
        let table3 = BundleflyParams {
            q: 7,
            dprime: 4,
            p: 5,
        };
        let best = (1..=16u64).filter_map(best_params_for_degree);
        for params in std::iter::once(table3).chain(best) {
            let (structure, sn) = bundlefly_factors(params).unwrap();
            let view = StarProduct::new(&structure, &[], &sn);
            let graph = bundlefly(params).unwrap().graph;
            for u in 0..view.order() as u32 {
                let (x, a) = view.parts(u);
                for v in 0..view.order() as u32 {
                    let (y, b) = view.parts(v);
                    let rule = if x == y {
                        sn.graph.has_edge(a, b) || view.loop_partners(x, a).any(|c| c == b)
                    } else {
                        structure.has_edge(x, y) && view.cross(x, y, a) == b
                    };
                    assert_eq!(rule, graph.has_edge(u, v), "{params:?}: {u}–{v}");
                }
            }
        }
    }

    #[test]
    fn best_params_reasonable() {
        let p = best_params_for_degree(15).unwrap();
        assert_eq!(p.degree(), Some(15));
        // Should find at least the Table 3 configuration's scale.
        assert!(p.order() >= 882, "order {}", p.order());
    }
}
