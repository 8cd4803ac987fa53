//! The batched query surface: [`QueryBatch`] in, [`RouteAnswer`]s out.
//!
//! Answers are pure functions of the oracle snapshot and the query, so
//! for a fixed (seed, batch) the sequential and rayon-sharded paths
//! produce byte-identical results at any `RAYON_NUM_THREADS` — the
//! determinism pin in `tests/batch_determinism.rs` holds both to it.

use crate::oracle::Oracle;
use polarstar_topo::oracle::RouteError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// One route query: a (src, dst) router pair and how many alternative
/// minimal paths the caller wants spelled out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// Source router.
    pub src: u32,
    /// Destination router.
    pub dst: u32,
    /// Number of alternative minimal paths to enumerate (0 = next-hop
    /// and distance only, no path materialization).
    pub k: u32,
}

/// A batch of route queries answered as one unit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryBatch {
    /// The queries, answered in order.
    pub queries: Vec<Query>,
}

impl QueryBatch {
    /// A batch over explicit queries.
    pub fn new(queries: Vec<Query>) -> Self {
        QueryBatch { queries }
    }

    /// A seeded uniform-random batch: `len` queries over `routers`
    /// routers, each asking for `k` alternatives. Deterministic per
    /// (seed, len, routers, k) — the benchmark workload generator.
    ///
    /// # Panics
    ///
    /// If `routers == 0`: there is no router id to draw.
    pub fn random(len: usize, routers: u32, k: u32, seed: u64) -> Self {
        assert!(routers > 0, "empty topology");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let queries = (0..len)
            .map(|_| Query {
                src: rng.gen_range(0..routers),
                dst: rng.gen_range(0..routers),
                k,
            })
            .collect();
        QueryBatch { queries }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Everything the service says about one (src, dst) query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteAnswer {
    /// The queried source router.
    pub src: u32,
    /// The queried destination router.
    pub dst: u32,
    /// The fault epoch of the snapshot that answered.
    pub epoch: u64,
    /// Why the pair is unanswerable, or `None` when routed.
    pub error: Option<RouteError>,
    /// Hop distance (`None` when `error` is set).
    pub distance: Option<u32>,
    /// First minimal next hop out of `src` (`dst` itself for the
    /// self-pair, `None` when `error` is set).
    pub next_hop: Option<u32>,
    /// The deterministic minimal router path `[src, …, dst]` (empty
    /// when `error` is set or the query asked for `k == 0` paths).
    pub path: Vec<u32>,
    /// Up to `k` distinct minimal paths in lexicographic next-hop order
    /// (the first one equals `path`).
    pub alternatives: Vec<Vec<u32>>,
}

impl RouteAnswer {
    /// Whether any surviving path connects the pair.
    pub fn reachable(&self) -> bool {
        self.error.is_none()
    }
}

impl Oracle {
    /// Answer one query against this snapshot.
    pub fn answer(&self, q: Query) -> RouteAnswer {
        let mut ans = RouteAnswer {
            src: q.src,
            dst: q.dst,
            epoch: self.epoch(),
            error: None,
            distance: None,
            next_hop: None,
            path: Vec::new(),
            alternatives: Vec::new(),
        };
        match self.resolve(q.src, q.dst, q.k as usize) {
            Err(e) => ans.error = Some(e),
            Ok((distance, next_hop, paths)) => {
                ans.distance = Some(distance);
                ans.next_hop = Some(next_hop);
                ans.path = paths.first().cloned().unwrap_or_default();
                ans.alternatives = paths;
            }
        }
        ans
    }

    /// Answer a whole batch sequentially, in order.
    pub fn answer_batch(&self, batch: &QueryBatch) -> Vec<RouteAnswer> {
        batch.queries.iter().map(|&q| self.answer(q)).collect()
    }

    /// Answer a whole batch rayon-sharded. Order-preserving and
    /// byte-identical to [`Oracle::answer_batch`] at any thread count:
    /// every answer is a pure function of (snapshot, query).
    pub fn answer_batch_sharded(&self, batch: &QueryBatch) -> Vec<RouteAnswer> {
        batch.queries.par_iter().map(|&q| self.answer(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;
    use polarstar_topo::network::NetworkSpec;
    use std::sync::Arc;

    fn oracle() -> Oracle {
        // Diamond 0–{1,2}–3 plus an isolated router 4.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Oracle::new(Arc::new(NetworkSpec::uniform("diamond", g, 1)))
    }

    #[test]
    fn answers_carry_paths_and_alternatives() {
        let o = oracle();
        let a = o.answer(Query {
            src: 0,
            dst: 3,
            k: 4,
        });
        assert!(a.reachable());
        assert_eq!(a.distance, Some(2));
        assert_eq!(a.next_hop, Some(1));
        assert_eq!(a.path, vec![0, 1, 3]);
        assert_eq!(a.alternatives, vec![vec![0, 1, 3], vec![0, 2, 3]]);
        assert_eq!(a.epoch, 0);
        // k = 0 skips path materialization but still answers next-hop.
        let a0 = o.answer(Query {
            src: 0,
            dst: 3,
            k: 0,
        });
        assert_eq!(a0.next_hop, Some(1));
        assert!(a0.path.is_empty() && a0.alternatives.is_empty());
    }

    #[test]
    fn unreachable_and_out_of_range_are_typed() {
        let o = oracle();
        let a = o.answer(Query {
            src: 0,
            dst: 4,
            k: 2,
        });
        assert!(!a.reachable());
        assert_eq!(a.error, Some(RouteError::Unreachable { src: 0, dst: 4 }));
        assert_eq!(a.distance, None);
        assert_eq!(a.next_hop, None);
        let a = o.answer(Query {
            src: 9,
            dst: 0,
            k: 0,
        });
        assert_eq!(a.error, Some(RouteError::OutOfRange { id: 9, routers: 5 }));
    }

    #[test]
    fn batch_paths_agree_and_random_is_seeded() {
        let o = oracle();
        let b = QueryBatch::random(64, 5, 3, 0xBEEF);
        assert_eq!(b.len(), 64);
        assert!(!b.is_empty());
        assert_eq!(b, QueryBatch::random(64, 5, 3, 0xBEEF));
        assert_ne!(b, QueryBatch::random(64, 5, 3, 0xBEEF + 1));
        let seq = o.answer_batch(&b);
        let par = o.answer_batch_sharded(&b);
        assert_eq!(seq, par);
        // Self-pairs answer one zero-length path.
        let a = o.answer(Query {
            src: 2,
            dst: 2,
            k: 2,
        });
        assert_eq!(a.distance, Some(0));
        assert_eq!(a.next_hop, Some(2));
        assert_eq!(a.alternatives, vec![vec![2]]);
    }
}
