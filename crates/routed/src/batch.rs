//! The batched query surface: [`QueryBatch`] in, [`RouteAnswer`]s out.
//!
//! Answers are pure functions of the oracle snapshot and the query, so
//! for a fixed (seed, batch) the sequential and rayon-sharded paths
//! produce byte-identical results at any `RAYON_NUM_THREADS` — the
//! determinism pin in `tests/batch_determinism.rs` holds both to it, and
//! `tests/answer_pin.rs` holds every field to digests recorded before
//! paths were held inline.
//!
//! An answer's paths are [`Path`]s: up to [`Path::INLINE`] routers held
//! in place, which covers every minimal path of a diameter-3 network
//! (4 routers) and every one PS-IQ reaches under the `routed_*_churn`
//! masks (5). The backend's walk writes each path it finds straight
//! into its `Path` ([`polarstar_netsim::RouteTable::k_paths_into`], the
//! analytic DAG walk), so an answer keeps one heap block, its
//! `alternatives` vector, whatever `k` asks for.

use crate::oracle::Oracle;
use polarstar_topo::oracle::RouteError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

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

/// A minimal router path `[src, …, dst]`: held inline up to
/// [`Path::INLINE`] routers (the whole `Path` is 32 bytes), on the heap
/// beyond — the route table serves graphs whose minimal paths run to
/// thousands of routers.
///
/// A `Path` is its router slice: it derefs to `[u32]`, and takes
/// equality, order, hashing and `Debug` from it, whichever way it is
/// held. It also compares equal to a `Vec<u32>` of the same routers, the
/// form [`polarstar_topo::oracle::PathOracle::k_paths`] returns.
#[derive(Clone)]
pub struct Path(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        routers: [u32; Path::INLINE],
    },
    Heap(Box<[u32]>),
}

impl Path {
    /// Routers a path holds without a heap block.
    pub const INLINE: usize = 7;

    /// The routers, `[src, …, dst]`.
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, routers } => &routers[..*len as usize],
            Repr::Heap(routers) => routers,
        }
    }
}

impl Default for Path {
    /// The empty path of an answer that carries none.
    fn default() -> Self {
        Path(Repr::Inline {
            len: 0,
            routers: [0; Path::INLINE],
        })
    }
}

impl From<&[u32]> for Path {
    fn from(path: &[u32]) -> Self {
        if path.len() > Path::INLINE {
            return Path(Repr::Heap(path.into()));
        }
        let mut routers = [0; Path::INLINE];
        routers[..path.len()].copy_from_slice(path);
        Path(Repr::Inline {
            len: path.len() as u8,
            routers,
        })
    }
}

impl Deref for Path {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Path) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Path {}

impl PartialEq<Vec<u32>> for Path {
    fn eq(&self, other: &Vec<u32>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Path> for Vec<u32> {
    fn eq(&self, other: &Path) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Path) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Path {
    fn cmp(&self, other: &Path) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Path {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
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
    /// when `error` is set or the query asked for `k == 0` paths): a
    /// copy of the first alternative, inline for every path of at most
    /// [`Path::INLINE`] routers.
    pub path: Path,
    /// Up to `k` distinct minimal paths in lexicographic next-hop order
    /// (the first one equals `path`), sized by what the walk found —
    /// `k = u32::MAX` reserves nothing up front.
    pub alternatives: Vec<Path>,
}

impl RouteAnswer {
    /// Whether any surviving path connects the pair.
    pub fn reachable(&self) -> bool {
        self.error.is_none()
    }
}

impl Oracle {
    /// Answer one query against this snapshot: one walk of the backend,
    /// writing each path it finds into a [`Path`].
    pub fn answer(&self, q: Query) -> RouteAnswer {
        let mut ans = RouteAnswer {
            src: q.src,
            dst: q.dst,
            epoch: self.epoch(),
            error: None,
            distance: None,
            next_hop: None,
            path: Path::default(),
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
    use polarstar_topo::fault::FaultSet;
    use polarstar_topo::network::NetworkSpec;
    use polarstar_topo::oracle::PathOracle;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
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

    fn hash_of(x: &(impl Hash + ?Sized)) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_path_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Path>(), 32);
        assert!(Path::default().is_empty());
    }

    proptest! {
        #[test]
        fn a_path_behaves_as_its_slice(a in vec(0u32..3, 1..13), b in vec(0u32..3, 1..13)) {
            let pa = Path::from(&a[..]);
            prop_assert_eq!(&*pa, &a[..]);
            let inline = matches!(pa.0, Repr::Inline { .. });
            prop_assert_eq!(inline, a.len() <= Path::INLINE, "held inline");
            prop_assert_eq!(format!("{pa:?}"), format!("{a:?}"));
            prop_assert_eq!(hash_of(&pa), hash_of(&a[..]));
            prop_assert!(pa == a, "Path == Vec");
            prop_assert!(a == pa, "Vec == Path");
            prop_assert_eq!(&pa.clone(), &pa);
            // Against an independent path and against every prefix, so
            // inline and heap paths meet both ways round.
            let prefixes = (1..=a.len()).map(|len| &a[..len]);
            for other in prefixes.chain([&b[..]]) {
                let po = Path::from(other);
                prop_assert_eq!(pa == po, a[..] == *other);
                prop_assert_eq!(pa.cmp(&po), a[..].cmp(other));
                prop_assert_eq!(po.partial_cmp(&pa), other.partial_cmp(&a[..]));
                prop_assert_eq!(hash_of(&po) == hash_of(&pa), hash_of(other) == hash_of(&a[..]));
            }
        }
    }

    /// The oracle seen through [`PathOracle`]'s two required methods
    /// only, so `next_hop` and `k_paths` come from the trait's provided
    /// walks instead of the backend's own.
    struct GenericWalk<'a>(&'a Oracle);

    impl PathOracle for GenericWalk<'_> {
        fn num_routers(&self) -> usize {
            self.0.num_routers()
        }
        fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
            PathOracle::distance(self.0, src, dst)
        }
        fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
            self.0.min_next_hops(src, dst, out)
        }
    }

    #[test]
    fn heap_paths_answer_like_the_provided_walks() {
        // A 24-cycle with one cable cut is a line of 24 routers, up to
        // 23 hops apart: most pairs' paths outgrow the inline routers.
        let spec = NetworkSpec::uniform("c24", Graph::cycle(24), 1);
        let o = Oracle::new(Arc::new(spec)).remask(&FaultSet::from_links([(0, 23)]), 1);
        let generic = GenericWalk(&o);
        let mut spilled = 0;
        for (src, dst) in (0..24).flat_map(|s| (0..24).map(move |d| (s, d))) {
            for k in [1, 4, u32::MAX] {
                let got = o.answer(Query { src, dst, k });
                let paths = generic.k_paths(src, dst, k as usize).unwrap();
                let alternatives: Vec<Path> = paths.iter().map(|p| Path::from(&p[..])).collect();
                let want = RouteAnswer {
                    src,
                    dst,
                    epoch: 1,
                    error: None,
                    distance: Some(generic.distance(src, dst).unwrap()),
                    next_hop: Some(generic.next_hop(src, dst).unwrap()),
                    path: alternatives[0].clone(),
                    alternatives,
                };
                assert_eq!(got, want, "{src}→{dst}, k = {k}");
                spilled += usize::from(matches!(got.path.0, Repr::Heap(_)));
            }
        }
        // 306 ordered pairs sit 7 to 23 hops apart, asked at three k.
        assert_eq!(spilled, 3 * 306);
    }
}
