//! PolarStar — the paper's primary contribution.
//!
//! PolarStar is the star product of an Erdős–Rényi polarity structure
//! graph `ER_q` (Property R) with either an Inductive-Quad supernode
//! (Property R*, order 2d' + 2) or a Paley supernode (Property R1, order
//! 2d' + 1). The result is a diameter-3 network that is the largest known
//! for almost every radix.
//!
//! This crate provides:
//!
//! * [`design`] — the design space of §7: feasible configurations per
//!   radix, the scaling formulas of Eq. (1)–(2), Moore bounds, and the
//!   Fig. 1 comparison curves for every baseline topology;
//! * [`network`] — construction of a concrete PolarStar network
//!   ([`PolarStarNetwork`]) from a configuration;
//! * [`routing`] — the §9.2 analytic minimal-path computation, which
//!   needs only structure-graph state instead of full routing tables;
//! * [`layout`] — the hierarchical modular layout and link-bundling
//!   analysis of §8.
//!
//! The paper's structural claims about a built network (order, degree
//! budget, diameter ≤ 3, Properties R/R*/R1, bundle sizes, clusters) are
//! asserted over every radix-8–20 configuration in `tests/paper_claims.rs`.
//!
//! # Quick start
//!
//! ```
//! use polarstar::design::{best_config, SupernodeKind};
//! use polarstar::network::PolarStarNetwork;
//!
//! // Largest PolarStar of network degree 15 (Table 3's PS-IQ).
//! let cfg = best_config(15).unwrap();
//! assert_eq!(cfg.order(), 1064);
//! assert!(matches!(cfg.supernode, SupernodeKind::InductiveQuad { degree: 3 }));
//! let net = PolarStarNetwork::build(cfg, 5).unwrap();
//! assert_eq!(net.spec.routers(), 1064);
//! ```

pub mod design;
pub mod layout;
pub mod network;
pub mod routing;

pub use design::{best_config, enumerate_configs, moore_bound_d3, PolarStarConfig, SupernodeKind};
pub use network::PolarStarNetwork;
