//! Graph substrate for the PolarStar reproduction.
//!
//! Every network topology in the paper is an undirected graph; all
//! structural evaluations (diameter, average path length, bisection,
//! fault tolerance) are graph computations. This crate provides:
//!
//! * [`Graph`] — a compact CSR-backed undirected simple graph, the common
//!   representation every topology construction produces;
//! * [`GraphBuilder`] — edge-list accumulation with deduplication;
//! * [`traversal`] — BFS distances, diameter, average path length,
//!   connectivity and components (rayon-parallel all-pairs sweeps);
//! * [`partition`] — a Fiduccia–Mattheyses bisection estimator with random
//!   restarts, standing in for METIS in the paper's Figures 12–13;
//! * [`random`] — seeded random regular graphs (Jellyfish) and G(n, m);
//! * [`edst`] — edge-disjoint spanning-tree packings (greedy peeling,
//!   validation, replacement-edge search) backing the striped multi-tree
//!   collectives in `crates/motifs`.
//!
//! # Example
//!
//! ```
//! use polarstar_graph::{GraphBuilder, traversal};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 3);
//! let g = b.build();
//! assert_eq!(traversal::diameter(&g), Some(3));
//! ```

pub mod csr;
pub mod edst;
pub mod partition;
pub mod random;
pub mod traversal;

pub use csr::{Graph, GraphBuilder};
