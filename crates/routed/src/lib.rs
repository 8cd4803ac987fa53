//! `routed` — the path-oracle query service over the reproduction's
//! route tables.
//!
//! The paper's evaluation treats routing as a per-run artifact; a
//! production system serves it. This crate packages the minimal-path
//! machinery ([`polarstar_netsim::RouteTable`]) as a queryable layer:
//!
//! * [`Oracle`] — one immutable serving snapshot over one of two
//!   backends: a (possibly fault-masked) CSR route table, or the table-free
//!   [`AnalyticOracle`] that reconstructs §9.2 paths from factor-graph
//!   state per query — O(1) memory per query and O(|faults|) fault epochs
//!   ([`AnalyticOracle::remask`] swaps a fault mask instead of
//!   reassembling an O(n²) distance arena);
//! * [`QueryBatch`] / [`RouteAnswer`] — the batched query surface:
//!   next hop, hop distance, the deterministic minimal path, up to `k`
//!   ECMP alternatives, and typed reachability
//!   ([`polarstar_topo::oracle::RouteError`]). Sequential and
//!   rayon-sharded batch paths are byte-identical for a fixed (seed,
//!   batch) at any thread count;
//! * [`Path`] — an answer's router path, inline up to
//!   [`Path::INLINE`] routers: either backend's walk writes each path
//!   it finds straight into one, so an answer holds one heap block (its
//!   `alternatives`), and [`PathOracle::k_paths`] runs the same walk
//!   collecting `Vec`s;
//! * [`EpochSwapper`] — epoch-aware serving: the next fault epoch's
//!   oracle is prepared off-thread (the fault set is compiled once and
//!   the re-masked table shares the pristine graph; an epoch back on the
//!   base table's mask shares that table outright) and atomically
//!   published arc-swap style, so queries never block on re-masking and
//!   never observe a torn table.
//!
//! Throughput and install latency on Table-3 PS-IQ (1064 routers) are
//! the `routed_{table,analytic}_churn` workloads of `benchmark/`.
//!
//! [`PathOracle::k_paths`]: polarstar_topo::oracle::PathOracle::k_paths

pub mod analytic;
pub mod batch;
pub mod oracle;
pub mod swap;

pub use analytic::{AnalyticOracle, Regime};
pub use batch::{Path, Query, QueryBatch, RouteAnswer};
pub use oracle::Oracle;
pub use swap::EpochSwapper;
