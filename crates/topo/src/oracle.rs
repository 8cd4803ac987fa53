//! The query surface shared by every routing oracle in the workspace.
//!
//! A *path oracle* answers shortest-path queries on a (possibly
//! fault-degraded) router graph: next hop, hop distance, reachability,
//! and up to `k` distinct minimal paths. The cycle simulator's
//! `RouteTable`, the table-free `AnalyticOracle`, `NegotiatedRoutes`
//! and the `routed` serving oracle all implement [`PathOracle`], so
//! analysis code, benchmarks, and the query service are generic over
//! *how* the answers are precomputed; [`column_next_hops`] is the one
//! masked minimal-port rule (filtered lazily, for callers that stop at
//! the first hop or resume a scan; [`column_next_hops_all`] drains the
//! same rule 64 ports a word), [`column_k_paths`] the one k-path walk
//! over it, [`masked_distance_column`] the one masked BFS, and the
//! workspace's one block sweep,
//! [`polarstar_graph::traversal::sweep_block`], fills
//! [`masked_distance_block`] (the `u8` or `u16` rows a flat
//! `RouteTable` holds) — all reading a compiled [`FaultMask`]. The same
//! sweep fills [`PortMasks`], that rule for 64 destinations at once,
//! which a `NetworkSpec` holds for the motif model.
//!
//! Unreachable pairs answer with a typed [`RouteError::Unreachable`]
//! instead of an empty port slice — callers can no longer mistake a
//! severed pair for a degree-0 router.

use crate::fault::FaultMask;
use polarstar_graph::traversal::sweep_block;
use polarstar_graph::Graph;
use std::fmt;
use std::ops::{Add, Not, Sub};
use std::sync::OnceLock;

/// Why a routing query could not be answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// No surviving path connects the pair: the routers sit in different
    /// components outright, or a fault mask severed every minimal route.
    Unreachable {
        /// Source router.
        src: u32,
        /// Destination router.
        dst: u32,
    },
    /// A router id outside the topology.
    OutOfRange {
        /// The offending router id.
        id: u32,
        /// Number of routers in the topology.
        routers: u32,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unreachable { src, dst } => {
                write!(f, "no surviving path from router {src} to router {dst}")
            }
            RouteError::OutOfRange { id, routers } => {
                write!(f, "router id {id} outside a {routers}-router topology")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A shortest-path query oracle over a router graph.
///
/// Implementors provide [`PathOracle::num_routers`],
/// [`PathOracle::distance`], and [`PathOracle::min_next_hops`]; the
/// derived answers (first next hop, a full minimal path, `k` distinct
/// minimal paths) come from provided methods and are therefore
/// identical across implementations by construction. There is one path
/// rule: [`PathOracle::path`] is the lexicographically first minimal
/// path, and [`PathOracle::k_paths`] lists minimal paths in that order.
/// An implementor that overrides a walk to read its own state in place
/// (`RouteTable`, `AnalyticOracle`) must answer as the provided one
/// does — the equivalence tests in `crates/routed` pin this.
///
/// Determinism contract: `min_next_hops` must return candidates in a
/// stable order (ascending router id unless documented otherwise), so
/// the provided walks are pure functions of the oracle's state.
pub trait PathOracle {
    /// Number of routers the oracle answers for.
    fn num_routers(&self) -> usize;

    /// Hop distance from `src` to `dst` (0 for `src == dst`).
    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError>;

    /// Every neighbor of `src` that lies on a minimal surviving path to
    /// `dst`, appended to `out` in the oracle's stable order. Empty iff
    /// `src == dst`.
    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError>;

    /// Bulk per-destination distances: overwrite `out` with one entry
    /// per router, where `out[v]` is the hop distance from `v` to `dst`
    /// (`u32::MAX` when no surviving path connects the pair, including
    /// when `v` or `dst` is a failed router), and hand back the mask
    /// the column's ports must be read under — the oracle's compiled
    /// fault epoch, bitless when pristine. Returns `None` when the
    /// oracle has no bulk path — `out` is then unspecified and callers
    /// fall back to per-pair queries.
    ///
    /// Contract when returning `Some(mask)`: entries equal per-query
    /// [`PathOracle::distance`] answers exactly (with `u32::MAX`
    /// standing in for [`RouteError::Unreachable`]), and column and
    /// mask together reconstruct [`PathOracle::min_next_hops`] without
    /// further queries: `nb`, behind CSR slot `e` of `v`, is a minimal
    /// next hop of `(v, dst)` iff `!mask.link_dead(e) && out[nb] !=
    /// u32::MAX && out[nb] + 1 == out[v]`, scanned in the oracle's
    /// stable neighbor order — [`column_next_hops`] is that rule. The
    /// batched flow build (`polarstar-netsim`'s `FlowNetwork`) leans on
    /// this to route one shared ECMP DAG per unique router pair instead
    /// of querying per flow.
    fn distance_column(&self, _dst: u32, _out: &mut Vec<u32>) -> Option<&FaultMask> {
        None
    }

    /// Whether any surviving path connects the pair (true for
    /// `src == dst`, false for out-of-range ids).
    fn is_reachable(&self, src: u32, dst: u32) -> bool {
        self.distance(src, dst).is_ok()
    }

    /// The first minimal next hop out of `src` toward `dst` (`dst`
    /// itself for `src == dst`: deliver locally).
    fn next_hop(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        if src == dst {
            self.distance(src, dst)?; // bounds/liveness check
            return Ok(dst);
        }
        let mut hops = Vec::with_capacity(4);
        self.min_next_hops(src, dst, &mut hops)?;
        hops.first()
            .copied()
            .ok_or(RouteError::Unreachable { src, dst })
    }

    /// The deterministic minimal router path `[src, …, dst]` (first
    /// next-hop choice at every hop). `[src]` when `src == dst`.
    fn path(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        let mut path = vec![src];
        let mut cur = src;
        let mut hops = Vec::with_capacity(4);
        while cur != dst {
            hops.clear();
            self.min_next_hops(cur, dst, &mut hops)?;
            cur = *hops.first().ok_or(RouteError::Unreachable { src, dst })?;
            path.push(cur);
        }
        Ok(path)
    }

    /// Up to `k` distinct minimal router paths `src → dst`, in
    /// lexicographic next-hop order (the ECMP alternative set a service
    /// hands out for multipath spreading). `src == dst` answers one
    /// zero-length path `[src]`.
    fn k_paths(&self, src: u32, dst: u32, k: usize) -> Result<Vec<Vec<u32>>, RouteError> {
        self.distance(src, dst)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        if src == dst {
            return Ok(vec![vec![src]]);
        }
        // Iterative DFS over the minimal-path DAG (acyclic toward dst:
        // every hop strictly decreases the distance), branching in the
        // oracle's stable next-hop order.
        // Sized by what is found, not by `k`: a caller may ask for
        // `usize::MAX` paths to mean "all of them".
        let mut out: Vec<Vec<u32>> = Vec::new();
        let mut prefix = vec![src];
        // Per-depth alternative stacks: alts[d] = remaining next hops out
        // of prefix[d].
        let mut alts: Vec<Vec<u32>> = Vec::new();
        let mut first = Vec::with_capacity(4);
        self.min_next_hops(src, dst, &mut first)?;
        first.reverse(); // pop() explores in stable (ascending) order
        alts.push(first);
        while let Some(top) = alts.last_mut() {
            match top.pop() {
                None => {
                    alts.pop();
                    prefix.pop();
                }
                Some(next) => {
                    prefix.push(next);
                    if next == dst {
                        out.push(prefix.clone());
                        if out.len() == k {
                            return Ok(out);
                        }
                        prefix.pop();
                    } else {
                        let mut hops = Vec::with_capacity(4);
                        self.min_next_hops(next, dst, &mut hops)?;
                        hops.reverse();
                        alts.push(hops);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The masked minimal-port rule of [`PathOracle::distance_column`]:
/// the `(CSR slot, neighbor)` of every minimal next hop of `v` toward
/// the destination whose distance column is `col`, in `graph`'s CSR
/// order. The port side reads the directed relation
/// ([`FaultMask::link_dead`] of the slot `v → nb`); the column alone
/// carries the distance side, where a half-dead cable is already
/// dropped. Empty when `v` is the destination or unreachable. `col` is
/// a `u32` column or a `u8` / `u16` block row, unreachable being the
/// element's `MAX` (`!0`). Drain it with `for_each`/`fold`: internal
/// iteration compiles to the plain neighbor loop, a `for`/`extend` over
/// the filter measured ≈ 20 % slower.
#[inline]
pub fn column_next_hops<'a, D>(
    graph: &'a Graph,
    col: &'a [D],
    v: u32,
    mask: &'a FaultMask,
) -> impl Iterator<Item = (u32, u32)> + 'a
where
    D: Copy + Eq + Default + From<u8> + Not<Output = D> + Add<Output = D>,
{
    column_next_hops_from(graph, col, v, graph.edge_range(v).start, mask)
}

/// [`column_next_hops`] over `v`'s CSR slots from `from` on: the ports
/// before it are skipped unread, so a depth-first walk resumes a
/// router's scan after the child it took instead of restarting it.
///
/// # Panics
/// If `from` lies outside `start..=end` of `graph.edge_range(v)`.
#[inline]
pub fn column_next_hops_from<'a, D>(
    graph: &'a Graph,
    col: &'a [D],
    v: u32,
    from: u32,
    mask: &'a FaultMask,
) -> impl Iterator<Item = (u32, u32)> + 'a
where
    D: Copy + Eq + Default + From<u8> + Not<Output = D> + Add<Output = D>,
{
    let (dv, unreachable, one) = (col[v as usize], !D::default(), D::from(1));
    let slots = graph.edge_range(v);
    let rest = &graph.neighbors(v)[(from - slots.start) as usize..];
    (from..slots.end)
        .zip(rest.iter().copied())
        .filter(move |&(e, nb)| {
            let dn = col[nb as usize];
            dn != unreachable && dn + one == dv && !mask.link_dead(e)
        })
}

/// The workspace's one column k-path walk: up to `k` minimal router
/// paths `src → dst`, `hops` apart, in lexicographic next-hop order,
/// each made into a `P` straight from the walk's router slice and
/// appended to `paths` — `[src]` for `src == dst`, nothing for `k = 0`.
/// `hop_from(r, from)` is the hop source: the `(CSR slot, neighbor)` of
/// router `r`'s first minimal hop toward `dst` at or after slot `from`
/// of `graph` ([`column_next_hops_from`]`(..).next()` over a distance
/// column, or a table's own port rule), each hop one closer to `dst`.
///
/// Depth-first in port order: each router's scan resumes after the
/// child it took last, so a query reads a router's neighbors once, not
/// once per child. No prefix outgrows `hops + 1` routers: on the stack
/// below 8 hops (every pristine diameter-3 path, and every faulted one
/// the PS-IQ churn masks produce), on the heap beyond.
///
/// # Panics
/// If the hop source leads a path past `hops` hops.
#[inline]
pub fn column_k_paths<P>(
    graph: &Graph,
    src: u32,
    dst: u32,
    hops: u32,
    k: usize,
    mut hop_from: impl FnMut(u32, u32) -> Option<(u32, u32)>,
    paths: &mut Vec<P>,
) where
    P: for<'p> From<&'p [u32]>,
{
    if k == 0 {
        return;
    }
    if src == dst {
        paths.push(P::from(&[src]));
        return;
    }
    // `routers[..=depth]` is the current prefix and `resume[i]` the CSR
    // slot where `routers[i]`'s scan resumes.
    const ON_STACK: usize = 8;
    let hops = hops as usize;
    let (mut routers_on_stack, mut resume_on_stack) = ([0; ON_STACK], [0; ON_STACK]);
    let mut spilled = Vec::new();
    let (routers, resume) = if hops < ON_STACK {
        (&mut routers_on_stack[..=hops], &mut resume_on_stack[..hops])
    } else {
        spilled.resize(2 * hops + 1, 0);
        spilled.split_at_mut(hops + 1)
    };
    (routers[0], resume[0]) = (src, graph.edge_range(src).start);
    let (mut depth, mut found) = (0, 0);
    loop {
        let Some((e, next)) = hop_from(routers[depth], resume[depth]) else {
            if depth == 0 {
                return;
            }
            depth -= 1;
            continue;
        };
        resume[depth] = e + 1;
        routers[depth + 1] = next;
        if next != dst {
            depth += 1;
            resume[depth] = graph.edge_range(next).start;
            continue;
        }
        paths.push(P::from(&routers[..depth + 2]));
        found += 1;
        if found == k {
            return;
        }
    }
}

/// [`column_next_hops`] for callers that drain every hop: each run of up
/// to 64 of `v`'s ports is compared with `col[v] − 1` into one word
/// without a branch per port, and the set bits that pass
/// [`FaultMask::link_dead`] come out in port order — the same hops, in
/// the same order. The flow build's DAG walks take this one. A caller
/// that stops at the first hop or resumes a scan keeps the lazy filter:
/// with [`column_next_hops_from`] scanning by words instead, the route
/// table's reads (`min_ports().next()` for the port cost, `k_paths`
/// resuming a router's scan) made the `routed_table_churn` benchmark
/// 9–10 % slower, the price of comparing every port where the filter
/// exits early (EXPERIMENTS.md, "Probes that did not pay").
pub fn column_next_hops_all<'a, D>(
    graph: &'a Graph,
    col: &'a [D],
    v: u32,
    mask: &'a FaultMask,
) -> impl Iterator<Item = (u32, u32)> + 'a
where
    D: Copy + Eq + Default + From<u8> + Sub<Output = D>,
{
    let dv = col[v as usize];
    // The destination has no hop; elsewhere a neighbour one closer is
    // never the unreachable `MAX`, so one comparison is the whole rule.
    let (ports, parent) = if dv == D::default() {
        (&[][..], dv)
    } else {
        (graph.neighbors(v), dv - D::from(1))
    };
    let first = graph.edge_range(v).start;
    ports.chunks(64).enumerate().flat_map(move |(c, run)| {
        let word = run.iter().enumerate().fold(0u64, |w, (i, &nb)| {
            w | u64::from(col[nb as usize] == parent) << i
        });
        let base = first + 64 * c as u32;
        set_bits(word)
            .map(move |i| (base + i, run[i as usize]))
            .filter(|&(e, _)| !mask.link_dead(e))
    })
}

/// The set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let i = word.trailing_zeros();
        word &= word.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// The masked column BFS: hop distances to `dst` over `graph` minus the
/// cables `mask` takes out of the distance relation
/// ([`FaultMask::edge_dead`]), into `out` (resized and overwritten;
/// `u32::MAX` = unreachable). Equal to a BFS over
/// `FaultSet::degraded_graph`, but on the pristine graph, so CSR slots
/// keep their meaning for the caller.
pub fn masked_distance_column(graph: &Graph, mask: &FaultMask, dst: u32, out: &mut Vec<u32>) {
    out.clear();
    out.resize(graph.n(), u32::MAX);
    out[dst as usize] = 0;
    let mut queue = Vec::with_capacity(graph.n());
    queue.push(dst);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let du = out[u as usize];
        for (e, &v) in graph.edge_range(u).zip(graph.neighbors(u)) {
            if out[v as usize] == u32::MAX && !mask.edge_dead(e) {
                out[v as usize] = du + 1;
                queue.push(v);
            }
        }
    }
}

/// The block form of [`masked_distance_column`]: the same relation for
/// up to 64 consecutive destinations `first, first + 1, …` in one
/// level-synchronous [`sweep_block`] (the bit-parallel multi-source BFS
/// of Then et al., VLDB 2014) over the slots `mask` leaves alive. `rows` holds one `graph.n()`-entry row per
/// destination, back to back: `rows[i·n + v]` becomes the hop distance
/// from `v` to `first + i`, the element's `MAX` (`!0`) when no surviving
/// path connects them — `MAX ↔ u32::MAX` is the only difference from
/// the column. The row type is the caller's bet on the width: a
/// `RouteTable` tries `u8`, then `u16`.
///
/// Returns whether every level fit: `false` as soon as a router lies
/// `MAX` hops or more from a destination of the block, the sweep then
/// stopped and `rows` unspecified. A `u16` row of a graph below
/// `u16::MAX` routers always fits.
///
/// # Panics
/// If `rows` is not a whole number (≤ 64) of rows inside the graph.
pub fn masked_distance_block<D>(graph: &Graph, mask: &FaultMask, first: u32, rows: &mut [D]) -> bool
where
    D: Copy + Default + Not<Output = D> + Into<u32> + TryFrom<u32>,
{
    let n = graph.n();
    let dsts = rows.len().checked_div(n).unwrap_or(0);
    assert_eq!(dsts * n, rows.len(), "rows must be whole");
    let unreachable = !D::default();
    rows.fill(unreachable);
    for i in 0..dsts {
        rows[i * n + first as usize + i] = D::default();
    }
    let last = unreachable.into() - 1;
    let block: Vec<u32> = (first..).take(dsts).collect();
    let live = |_, e, _| !mask.edge_dead(e);
    sweep_block(graph, &block, &[], last, live, |level, v, mut fresh, _| {
        let Ok(d) = D::try_from(level) else {
            unreachable!("level {level} past the last one, {last}")
        };
        while fresh != 0 {
            rows[fresh.trailing_zeros() as usize * n + v as usize] = d;
            fresh &= fresh - 1;
        }
    })
}

/// The minimal-port masks of a graph under a compiled [`FaultMask`]: per
/// block of 64 consecutive destinations, one `width`-byte mask per
/// (destination, router), the block's `64 · n` masks destination-major —
/// the mask of (`v`, `64·b + i`) starts at byte `(i·n + v) · width` of
/// block `b`. Bit `p` of it (byte `p / 8`, bit `p % 8`) says "port `p` of
/// `v`, CSR slot `edge_range(v).start + p`, is a minimal next hop toward
/// `64·b + i`" — [`column_next_hops`] over [`masked_distance_column`],
/// for 64 destinations in one sweep. A block is filled on first use,
/// through a `OnceLock`, so readers on several threads share one fill.
///
/// A [`NetworkSpec`](crate::NetworkSpec) holds one set for its graph and
/// faults, shared by its clones ([`NetworkSpec::port_masks`](crate::NetworkSpec::port_masks)).
pub struct PortMasks {
    /// The graph the masks were swept on: their ports are its CSR slots.
    graph: Graph,
    /// The static faults the masks route around.
    mask: FaultMask,
    /// Bytes of one mask: ⌈max degree / 8⌉.
    width: usize,
    blocks: Vec<OnceLock<Box<[u8]>>>,
}

impl PortMasks {
    /// No block swept yet.
    pub(crate) fn new(graph: Graph, mask: FaultMask) -> Self {
        PortMasks {
            width: graph.max_degree().div_ceil(8),
            blocks: (0..graph.n().div_ceil(64))
                .map(|_| OnceLock::new())
                .collect(),
            graph,
            mask,
        }
    }

    /// Whether these masks were swept on `graph`: equal CSR, not only
    /// equal counts. O(E).
    pub(crate) fn routes(&self, graph: &Graph) -> bool {
        self.graph == *graph
    }

    /// The static fault mask the masks route around.
    pub fn faults(&self) -> &FaultMask {
        &self.mask
    }

    /// Bytes of one mask: ⌈max degree / 8⌉.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The `n` masks toward `dst`, `width` bytes each, router-major: the
    /// mask of router `v` is bytes `v · width ..` of the slice. Sweeps
    /// `dst`'s block on first use. An id past the last router but inside
    /// its block reads masks with no bit set.
    ///
    /// # Panics
    /// If `dst` lies past the last router's block.
    pub fn destination(&self, dst: u32) -> &[u8] {
        let row = self.graph.n() * self.width;
        &self.block(dst & !63)[(dst & 63) as usize * row..][..row]
    }

    /// Bytes of the blocks swept so far: `width · 64 · n` each, so
    /// `width · 64 · n · ⌈n/64⌉` once every router has been a
    /// destination.
    pub fn swept_bytes(&self) -> usize {
        let swept = self.blocks.iter().filter_map(OnceLock::get);
        swept.map(|block| block.len()).sum()
    }

    /// The masks toward destinations `first ..` (`first` a multiple of
    /// 64), filled on first use by one [`sweep_block`] over the cables
    /// the fault mask leaves: when `v` is first reached by the
    /// destination bits `fresh`, each live port `p` to `u` takes bit `p`
    /// for `fresh & prev[u]`.
    fn block(&self, first: u32) -> &[u8] {
        self.blocks[first as usize / 64].get_or_init(|| {
            let (graph, mask) = (&self.graph, &self.mask);
            let (width, row) = (self.width, graph.n() * self.width);
            let mut masks = vec![0u8; 64 * row];
            let dsts: Vec<u32> = (first..graph.n() as u32).take(64).collect();
            let live = |_, e, _| !mask.edge_dead(e);
            sweep_block(graph, &dsts, &[], u32::MAX, live, |_, v, fresh, prev| {
                let slots = graph.edge_range(v).zip(graph.neighbors(v));
                for (p, (e, &u)) in slots.enumerate() {
                    let mut hops = fresh & prev[u as usize];
                    if hops == 0 || mask.link_dead(e) {
                        continue;
                    }
                    // Port p's byte in v's mask of the block's first row.
                    let (port, bit) = (&mut masks[v as usize * width + p / 8..], 1 << (p % 8));
                    while hops != 0 {
                        port[hops.trailing_zeros() as usize * row] |= bit;
                        hops &= hops - 1;
                    }
                }
            });
            masks.into_boxed_slice()
        })
    }
}

impl fmt::Debug for PortMasks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PortMasks")
            .field("routers", &self.graph.n())
            .field("width", &self.width)
            .field("swept_bytes", &self.swept_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSet;

    /// A hand-rolled oracle over a fixed diamond 0–{1,2}–3 plus an
    /// isolated router 4, exercising every provided method.
    struct Diamond;

    impl Diamond {
        fn check(&self, r: u32) -> Result<(), RouteError> {
            if r >= 5 {
                return Err(RouteError::OutOfRange { id: r, routers: 5 });
            }
            Ok(())
        }
    }

    impl PathOracle for Diamond {
        fn num_routers(&self) -> usize {
            5
        }

        fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
            self.check(src)?;
            self.check(dst)?;
            if src == dst {
                return Ok(0);
            }
            if src == 4 || dst == 4 {
                return Err(RouteError::Unreachable { src, dst });
            }
            Ok(match (src.min(dst), src.max(dst)) {
                (0, 3) => 2,
                (1, 2) => 2,
                _ => 1,
            })
        }

        fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
            let d = self.distance(src, dst)?;
            if d == 0 {
                return Ok(());
            }
            let nbrs: &[u32] = match src {
                0 => &[1, 2],
                1 | 2 => &[0, 3],
                3 => &[1, 2],
                _ => &[],
            };
            for &nb in nbrs {
                if self.distance(nb, dst)? + 1 == d {
                    out.push(nb);
                }
            }
            Ok(())
        }
    }

    /// One destination's distance column served through the two required
    /// methods, so its walks are the provided ones.
    struct Column<'a> {
        graph: &'a Graph,
        col: &'a [u32],
        mask: &'a FaultMask,
    }

    impl PathOracle for Column<'_> {
        fn num_routers(&self) -> usize {
            self.col.len()
        }

        fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
            match self.col[src as usize] {
                u32::MAX => Err(RouteError::Unreachable { src, dst }),
                d => Ok(d),
            }
        }

        fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
            self.distance(src, dst)?;
            out.extend(column_next_hops(self.graph, self.col, src, self.mask).map(|(_, nb)| nb));
            Ok(())
        }
    }

    #[test]
    fn column_k_paths_walks_as_the_provided_k_paths() {
        // Six diamonds in a row: 12 hops end to end with 2⁶ minimal
        // paths, so the walk's prefix spills past the 8 on the stack.
        let edges: Vec<(u32, u32)> = (0..6)
            .flat_map(|i| {
                let (a, b) = (3 * i, 3 * i + 3);
                [(a, a + 1), (a, a + 2), (a + 1, b), (a + 2, b)]
            })
            .collect();
        let (g, dst) = (Graph::from_edges(19, &edges), 18);
        fn walk<D>(
            g: &Graph,
            col: &[D],
            mask: &FaultMask,
            src: u32,
            hops: u32,
            k: usize,
        ) -> Vec<Vec<u32>>
        where
            D: Copy + Eq + Default + From<u8> + Not<Output = D> + Add<Output = D>,
        {
            let mut paths = Vec::new();
            let hop_from = |r, from| column_next_hops_from(g, col, r, from, mask).next();
            column_k_paths(g, src, 18, hops, k, hop_from, &mut paths);
            paths
        }
        // Pristine, then with the one way 4 → 6 of the second diamond
        // down: half the paths from 0 go.
        for (dead, all_from_0) in [(&[][..], 64), (&[(4, 6)][..], 32)] {
            let mask = FaultSet::from_directed_links(dead.iter().copied()).compile(&g);
            let mut col = Vec::new();
            masked_distance_column(&g, &mask, dst, &mut col);
            let (mut narrow, mut wide) = ([0u8; 19], [0u16; 19]);
            assert!(masked_distance_block(&g, &mask, dst, &mut narrow));
            assert!(masked_distance_block(&g, &mask, dst, &mut wide));
            let oracle = Column {
                graph: &g,
                col: &col,
                mask: &mask,
            };
            assert_eq!(
                oracle.k_paths(0, dst, usize::MAX).unwrap().len(),
                all_from_0
            );
            for src in 0..19 {
                let hops = oracle.distance(src, dst).unwrap();
                for k in [0, 1, 2, usize::MAX] {
                    let want = oracle.k_paths(src, dst, k).unwrap();
                    let what = format!("{dead:?}: {src}, k = {k}");
                    assert_eq!(walk(&g, &col, &mask, src, hops, k), want, "{what}");
                    assert_eq!(walk(&g, &narrow, &mask, src, hops, k), want, "{what}, u8");
                    assert_eq!(walk(&g, &wide, &mask, src, hops, k), want, "{what}, u16");
                }
            }
        }
    }

    #[test]
    fn provided_walks_agree() {
        let o = Diamond;
        assert_eq!(o.next_hop(0, 3), Ok(1));
        assert_eq!(o.next_hop(3, 3), Ok(3));
        assert_eq!(o.path(0, 3), Ok(vec![0, 1, 3]));
        assert_eq!(o.path(2, 2), Ok(vec![2]));
        assert!(o.is_reachable(0, 3));
        assert!(!o.is_reachable(0, 4));
        assert!(!o.is_reachable(0, 9));
    }

    #[test]
    fn k_paths_enumerates_lexicographically() {
        let o = Diamond;
        let ps = o.k_paths(0, 3, 8).unwrap();
        assert_eq!(ps, vec![vec![0, 1, 3], vec![0, 2, 3]]);
        // Capped at k, first-k prefix preserved.
        assert_eq!(o.k_paths(0, 3, 1).unwrap(), vec![vec![0, 1, 3]]);
        assert_eq!(o.k_paths(0, 3, 0).unwrap(), Vec::<Vec<u32>>::new());
        assert_eq!(o.k_paths(1, 1, 3).unwrap(), vec![vec![1]]);
        // "All of them" allocates for what exists, not for k.
        assert_eq!(o.k_paths(0, 3, usize::MAX).unwrap(), ps);
    }

    #[test]
    fn bulk_queries_default_to_unsupported() {
        // Oracles that don't opt in hand back nothing (callers fall
        // back to per-pair queries).
        let o = Diamond;
        let mut col = vec![7u32; 3];
        assert!(o.distance_column(0, &mut col).is_none());
        assert_eq!(col, vec![7, 7, 7], "unsupported column leaves out alone");
    }

    #[test]
    fn column_next_hops_is_the_directed_port_rule() {
        // C6 toward 0 with the direction 3 → 2 failed: the distance
        // side drops the whole cable 2–3, the port side only 3 → 2.
        let g = Graph::cycle(6);
        let col = [0, 1, 2, 3, 2, 1];
        let hops = |v, dead: &[(u32, u32)]| -> Vec<(u32, u32)> {
            let mask = FaultSet::from_directed_links(dead.iter().copied()).compile(&g);
            column_next_hops(&g, &col, v, &mask).collect()
        };
        let slot = |u, v| g.edge_id(u, v).unwrap();
        assert_eq!(hops(3, &[]), [(slot(3, 2), 2), (slot(3, 4), 4)]);
        assert_eq!(hops(3, &[(3, 2)]), [(slot(3, 4), 4)]);
        assert_eq!(hops(2, &[(3, 2)]), [(slot(2, 1), 1)], "2 → 1 is untouched");
        assert!(hops(0, &[]).is_empty(), "the destination has no port");
        // An unreachable neighbor is never a hop, and an unreachable
        // router has none.
        let (cut, pristine) = ([0, 1, u32::MAX, u32::MAX, 2, 1], FaultMask::default());
        assert_eq!(column_next_hops(&g, &cut, 3, &pristine).count(), 0);
        assert_eq!(column_next_hops(&g, &cut, 1, &pristine).count(), 1);
        // Nor is it one for the destination itself (no MAX + 1 wrap).
        let alone = [0, u32::MAX, u32::MAX, u32::MAX, u32::MAX, u32::MAX];
        assert_eq!(column_next_hops(&g, &alone, 0, &pristine).count(), 0);
        // A u16 block row answers as the u32 column does.
        let narrow = |c: &[u32]| c.iter().map(|&d| d.min(0xFFFF) as u16).collect::<Vec<_>>();
        for c in [&col, &cut, &alone] {
            for v in 0..6 {
                let wide: Vec<_> = column_next_hops(&g, c, v, &pristine).collect();
                let row = narrow(c);
                let short: Vec<_> = column_next_hops(&g, &row, v, &pristine).collect();
                assert_eq!(wide, short, "{c:?} at {v}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The word scan drains the hops the lazy filter yields, in the
        /// same order: on random graphs (ports past 64 included), under
        /// cable, one-way and router faults, for masked BFS columns and
        /// for arbitrary ones, `u32` columns and `u16` / `u8` rows alike.
        #[test]
        fn column_next_hops_all_drains_the_lazy_rule(
            n in 2usize..150,
            fill in 1usize..100,
            seed in 0u64..10_000,
            dst in 0u32..150,
            faults in 0u8..4,
            noise in proptest::prelude::prop::collection::vec(0u8..7, 150..151),
        ) {
            let m = n * (n - 1) / 2 * fill / 100;
            let g = polarstar_graph::random::gnm(n, m, seed);
            let faults = match faults {
                0 => FaultSet::empty(),
                1 => FaultSet::random_links(&g, 0.1, seed),
                2 => FaultSet::from_directed_links(
                    FaultSet::random_links(&g, 0.1, seed).failed_links().iter().copied().filter(|&(u, v)| u < v),
                ),
                _ => FaultSet::random_routers(&g, 0.1, seed),
            };
            let mask = faults.compile(&g);
            let mut bfs = Vec::new();
            masked_distance_column(&g, &mask, dst % n as u32, &mut bfs);
            // Values either side of a level, `MAX − 1` and `MAX` included.
            let arbitrary: Vec<u32> = noise[..n]
                .iter()
                .map(|&x| [0, 1, 2, 3, 4, u32::MAX - 1, u32::MAX][x as usize])
                .collect();
            for col in [&bfs, &arbitrary] {
                let wide: Vec<u16> = col.iter().map(|&d| d.min(0xFFFF) as u16).collect();
                let narrow: Vec<u8> = col.iter().map(|&d| d.min(0xFF) as u8).collect();
                for v in 0..n as u32 {
                    let lazy: Vec<_> = column_next_hops(&g, col, v, &mask).collect();
                    proptest::prop_assert_eq!(&lazy, &column_next_hops_all(&g, col, v, &mask).collect::<Vec<_>>());
                    let lazy: Vec<_> = column_next_hops(&g, &wide, v, &mask).collect();
                    proptest::prop_assert_eq!(&lazy, &column_next_hops_all(&g, &wide, v, &mask).collect::<Vec<_>>());
                    let lazy: Vec<_> = column_next_hops(&g, &narrow, v, &mask).collect();
                    proptest::prop_assert_eq!(&lazy, &column_next_hops_all(&g, &narrow, v, &mask).collect::<Vec<_>>());
                }
            }
        }
    }

    /// Whether bit `p` of a mask is set.
    fn has_port(mask: &[u8], p: usize) -> bool {
        mask[p / 8] >> (p % 8) & 1 != 0
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn port_masks_are_the_scalar_port_rule(
            size in 0usize..5,
            density in 1usize..5,
            cut in 0u32..40,
            seed in 0u64..10_000,
        ) {
            // Block boundaries on either side of one word of
            // destinations, and a single router; a hub cabled to every
            // even router has more ports than a word has bits (masks of
            // 9 bytes and more) once n = 150.
            let n = [1usize, 63, 64, 65, 150][size];
            let nn = n as u32;
            let hub = seed as u32 % nn;
            let random = polarstar_graph::random::gnm(n, (n * density / 2).min(n * (n - 1) / 2), seed);
            let mut edges: Vec<(u32, u32)> = random.edges().collect();
            edges.extend((0..nn).step_by(2).filter(|&v| v != hub).map(|v| (hub, v)));
            let g = Graph::from_edges(n, &edges);
            proptest::prop_assert!(n < 150 || g.degree(hub) > 64);
            let cables = FaultSet::random_links(&g, cut as f64 / 100.0, seed);
            let one_way = FaultSet::from_directed_links(
                g.edges().filter(|&(u, v)| (u ^ v ^ seed as u32).is_multiple_of(5)).map(|(u, v)| (v, u)),
            );
            let dead = FaultSet::from_routers([(seed as u32 / 7) % nn]);
            for faults in [
                FaultSet::empty(),
                cables.clone(),
                one_way.union(&dead),
                cables.union(&one_way).union(&dead),
            ] {
                let mask = faults.compile(&g);
                let ports = PortMasks::new(g.clone(), mask.clone());
                let (width, row) = (ports.width(), n * ports.width());
                let blocks: Vec<&[u8]> = (0..nn.div_ceil(64)).map(|b| ports.block(b * 64)).collect();
                for (b, masks) in blocks.iter().enumerate() {
                    proptest::prop_assert_eq!(masks.len(), 64 * row);
                    for i in 0..64 {
                        let masks = &masks[i * row..][..row];
                        if 64 * b + i >= n {
                            proptest::prop_assert!(masks.iter().all(|&m| m == 0), "row {} of block {}", i, b);
                            continue;
                        }
                        for v in 0..nn {
                            let m = &masks[v as usize * width..][..width];
                            let past = (g.degree(v)..8 * width).find(|&p| has_port(m, p));
                            proptest::prop_assert_eq!(past, None, "{} → {} of {}", v, 64 * b + i, n);
                        }
                    }
                }
                let mut col = Vec::new();
                for dst in 0..nn {
                    masked_distance_column(&g, &mask, dst, &mut col);
                    let masks = ports.destination(dst);
                    for v in 0..nn {
                        let scalar: Vec<u32> = column_next_hops(&g, &col, v, &mask).map(|(e, _)| e).collect();
                        let (m, start) = (&masks[v as usize * width..][..width], g.edge_range(v).start);
                        let bits: Vec<u32> = (0..g.degree(v)).filter(|&p| has_port(m, p)).map(|p| start + p as u32).collect();
                        proptest::prop_assert_eq!(bits, scalar, "{} → {} of {}", v, dst, n);
                    }
                }
                proptest::prop_assert_eq!(ports.swept_bytes(), blocks.len() * 64 * row);
            }
        }
    }

    #[test]
    fn unreachable_is_a_typed_error() {
        let o = Diamond;
        assert_eq!(
            o.distance(0, 4),
            Err(RouteError::Unreachable { src: 0, dst: 4 })
        );
        assert_eq!(
            o.k_paths(4, 2, 3),
            Err(RouteError::Unreachable { src: 4, dst: 2 })
        );
        assert_eq!(
            o.next_hop(0, 7),
            Err(RouteError::OutOfRange { id: 7, routers: 5 })
        );
        let msg = RouteError::Unreachable { src: 1, dst: 4 }.to_string();
        assert!(
            msg.contains("router 1") && msg.contains("router 4"),
            "{msg}"
        );
    }
}
