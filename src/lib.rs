//! Umbrella crate for the PolarStar reproduction suite.
//!
//! Re-exports every component crate so the examples and integration
//! tests (and downstream users who want the whole stack) can depend on a
//! single crate:
//!
//! * [`gf`] — finite fields GF(p^k);
//! * [`graph`] — CSR graphs, traversal, partitioning, random graphs;
//! * [`topo`] — every topology construction (ER_q, IQ, Paley, star
//!   products, Dragonfly, HyperX, Bundlefly, Spectralfly, Fat-tree, …);
//! * [`polarstar`] — the PolarStar design space, construction and
//!   layout;
//! * [`netsim`] — the cycle-level network simulator;
//! * [`motifs`] — the message-level motif simulator;
//! * [`analysis`] — bisection and fault-tolerance studies;
//! * [`routed`] — the path-oracle query service (batched k-path/ECMP
//!   answers with epoch-swapped fault masking) and §9.2's table-free
//!   analytic routing.

pub use polarstar;
pub use polarstar_analysis as analysis;
pub use polarstar_gf as gf;
pub use polarstar_graph as graph;
pub use polarstar_motifs as motifs;
pub use polarstar_netsim as netsim;
pub use polarstar_routed as routed;
pub use polarstar_topo as topo;
