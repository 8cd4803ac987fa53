//! Network topology constructions for the PolarStar reproduction.
//!
//! This crate builds, from scratch, every topology that appears in the
//! paper — the factor graphs of the PolarStar star product and every
//! baseline in the evaluation:
//!
//! | module | topology | role in the paper |
//! |--------|----------|-------------------|
//! | [`er`] | Erdős–Rényi polarity graph `ER_q` | structure graph (Property R) |
//! | [`iq`] | Inductive-Quad `IQ_{d'}` | supernode (Property R*), §6.2.1 |
//! | [`paley`] | Paley graph | supernode (Property R1) |
//! | [`bdf`] | Bermond–Delorme–Farhi supernodes | Table 2 comparison |
//! | [`star`] | the star product `G * G'` | Definition 1, Theorems 4–5 |
//! | [`mms`] | McKay–Miller–Širáň graphs | Slim Fly; Bundlefly structure graph |
//! | [`bundlefly`] | Bundlefly | state-of-the-art diameter-3 baseline |
//! | [`dragonfly`] | Dragonfly `DF(a, h, p)` | popular diameter-3 baseline |
//! | [`hyperx`] | 3-D HyperX | popular diameter-3 baseline |
//! | [`megafly`] | Megafly / Dragonfly+ | indirect diameter-3 baseline |
//! | [`fattree`] | k-ary 3-level Fat-tree | ubiquitous indirect baseline |
//! | [`lps`] | Lubotzky–Phillips–Sarnak Ramanujan graphs | Spectralfly |
//! | [`jellyfish`] | random regular graph | bisection baseline (Fig. 12) |
//! | [`kautz`] | Kautz digraph, bidirectional closure | Fig. 1 comparison |
//!
//! Every construction returns a [`NetworkSpec`] (router graph + endpoint
//! placement + group structure) or a plain [`polarstar_graph::Graph`] for
//! pure factor graphs.
//!
//! [`edst`] lifts factor-graph spanning-tree packings to star products
//! (Dawkins et al., arXiv 2403.12231), backing the striped multi-tree
//! collectives in `crates/motifs`.

pub mod bdf;
pub mod bundlefly;
pub mod dragonfly;
pub mod edst;
pub mod er;
pub mod error;
pub mod fattree;
pub mod fault;
pub mod hyperx;
pub mod iq;
pub mod jellyfish;
pub mod kautz;
pub mod lps;
pub mod megafly;
pub mod mms;
pub mod network;
pub mod oracle;
pub mod paley;
pub mod properties;
pub mod star;
pub mod supernode;

pub use error::TopoError;
pub use fault::{FaultEvent, FaultSchedule, FaultSet};
pub use network::{NetworkSpec, RoutingPolicy};
pub use oracle::{PathOracle, RouteError};
pub use supernode::Supernode;
