//! Fault masks: the seed-deterministic set of failed links and routers a
//! degraded network carries.
//!
//! A [`FaultSet`] is configuration, not runtime randomness: it is drawn
//! once (seeded, shuffled-edge-prefix sampling) and then applied
//! identically by every consumer — route-table construction, the cycle
//! engine, the motif model and `analysis::faults::fault_trajectory` all
//! draw from this one sampler, so the same seed fails the same links
//! everywhere and determinism across engine thread counts is unaffected.
//!
//! Links fail as directed pairs `(u, v)`. The random and undirected
//! constructors insert both directions (a cut cable); a single direction
//! can be failed through [`FaultSet::from_directed_links`] for laser/port
//! failures. [`FaultSet::degraded_graph`] drops an undirected edge when
//! *either* direction is failed — BFS-based distance computations treat a
//! half-dead link as dead, which is conservative and keeps every derived
//! path usable in both simulators.
//!
//! A `FaultSet` is graph-free; its predicates are the reference. Code
//! that applies a fault epoch to a graph compiles it once with
//! [`FaultSet::compile`] and reads the [`FaultMask`]'s bits per CSR
//! slot — no layer re-derives "is this port dead" from the sorted lists.

use polarstar_graph::Graph;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A deterministic set of failed directed links and failed routers.
///
/// Stored sorted for O(log f) membership queries on simulator hot paths;
/// empty sets answer in O(1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSet {
    /// Failed directed links, sorted and deduplicated.
    links: Vec<(u32, u32)>,
    /// Failed routers, sorted and deduplicated.
    routers: Vec<u32>,
}

impl FaultSet {
    /// The empty fault set (a pristine network).
    pub fn empty() -> Self {
        FaultSet::default()
    }

    /// Fail the given links in both directions (cable cuts).
    pub fn from_links(links: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut dir = Vec::new();
        for (u, v) in links {
            dir.push((u, v));
            dir.push((v, u));
        }
        Self::from_directed_links(dir)
    }

    /// Fail exactly the given directed links (one direction each).
    pub fn from_directed_links(links: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut links: Vec<(u32, u32)> = links.into_iter().collect();
        links.sort_unstable();
        links.dedup();
        FaultSet {
            links,
            routers: Vec::new(),
        }
    }

    /// Fail whole routers (all their links die with them).
    pub fn from_routers(routers: impl IntoIterator<Item = u32>) -> Self {
        let mut routers: Vec<u32> = routers.into_iter().collect();
        routers.sort_unstable();
        routers.dedup();
        FaultSet {
            links: Vec::new(),
            routers,
        }
    }

    /// Fail a uniform random `fraction` of `g`'s undirected links (both
    /// directions), deterministically for a given `seed`.
    ///
    /// Shuffles the edge list with a ChaCha8 stream and takes a prefix,
    /// so a fault sweep at increasing fractions nests its failures; the
    /// graph-metric trajectories (`analysis::faults::fault_trajectory`)
    /// draw from this same sampler.
    pub fn random_links(g: &Graph, fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction {fraction}");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.shuffle(&mut rng);
        let take = (fraction * edges.len() as f64).round() as usize;
        Self::from_links(edges.into_iter().take(take.min(g.m())))
    }

    /// Fail a uniform random `fraction` of routers, deterministically for
    /// a given `seed`.
    pub fn random_routers(g: &Graph, fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction {fraction}");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut routers: Vec<u32> = (0..g.n() as u32).collect();
        routers.shuffle(&mut rng);
        let take = (fraction * g.n() as f64).round() as usize;
        Self::from_routers(routers.into_iter().take(take.min(g.n())))
    }

    /// Whether nothing has failed.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.routers.is_empty()
    }

    /// Whether the directed link `u → v` is failed (either explicitly or
    /// because one of its endpoints is a failed router).
    #[inline]
    pub fn link_failed(&self, u: u32, v: u32) -> bool {
        if self.is_empty() {
            return false;
        }
        self.links.binary_search(&(u, v)).is_ok() || self.router_failed(u) || self.router_failed(v)
    }

    /// Whether the undirected edge `u – v` is out of the *distance*
    /// relation: either direction failed, or either endpoint router.
    /// This is the rule [`FaultSet::degraded_graph`] drops edges by, as
    /// one probe (two link searches, two router searches).
    #[inline]
    pub fn edge_failed(&self, u: u32, v: u32) -> bool {
        if self.is_empty() {
            return false;
        }
        self.links.binary_search(&(u, v)).is_ok()
            || self.links.binary_search(&(v, u)).is_ok()
            || self.router_failed(u)
            || self.router_failed(v)
    }

    /// Whether router `r` is failed.
    #[inline]
    pub fn router_failed(&self, r: u32) -> bool {
        self.routers.binary_search(&r).is_ok()
    }

    /// The failed directed links, sorted (explicit link faults only;
    /// router faults are reported via [`FaultSet::failed_routers`]).
    pub fn failed_links(&self) -> &[(u32, u32)] {
        &self.links
    }

    /// The failed routers, sorted.
    pub fn failed_routers(&self) -> &[u32] {
        &self.routers
    }

    /// Number of *undirected* edges of `g` this fault set kills (for
    /// manifests: counts an edge once whether one or both directions
    /// failed, plus every edge incident to a failed router).
    pub fn failed_edge_count(&self, g: &Graph) -> usize {
        if self.is_empty() {
            return 0;
        }
        g.edges().filter(|&(u, v)| self.edge_failed(u, v)).count()
    }

    /// The degraded router graph: `g` minus every edge with a failed
    /// direction or a failed endpoint router. Vertex ids are preserved
    /// (failed routers stay as isolated vertices), so port numbering on
    /// the pristine graph remains meaningful.
    pub fn degraded_graph(&self, g: &Graph) -> Graph {
        if self.is_empty() {
            return g.clone();
        }
        let dead: Vec<(u32, u32)> = g.edges().filter(|&(u, v)| self.edge_failed(u, v)).collect();
        g.without_edges(&dead)
    }

    /// Compile the set against `g`: both relations and the router set
    /// as bits per directed CSR slot / per router — what every consumer
    /// that already walks CSR slots reads instead of searching the
    /// sorted lists. O(|faults|·log deg): two `edge_id` searches per
    /// failed direction, one per link of a failed router. Entries that
    /// are no edge (or name no router) of `g` set nothing, and a set
    /// that sets nothing — the empty one above all — compiles to the
    /// bitless [`FaultMask::default`], so two masks over one graph are
    /// `==` exactly when they fail the same slots and routers.
    pub fn compile(&self, g: &Graph) -> FaultMask {
        if self.is_empty() {
            return FaultMask::default();
        }
        let words = g.directed_edge_count().div_ceil(64);
        let mut mask = FaultMask {
            link: vec![0; words],
            edge: vec![0; words],
            router: vec![0; g.n().div_ceil(64)],
        };
        let set = |bits: &mut [u64], i: u32| bits[(i >> 6) as usize] |= 1 << (i & 63);
        let n = g.n() as u32;
        for &(u, v) in self.links.iter().filter(|&&(u, v)| u < n && v < n) {
            if let (Some(e), Some(back)) = (g.edge_id(u, v), g.edge_id(v, u)) {
                set(&mut mask.link, e);
                set(&mut mask.edge, e);
                set(&mut mask.edge, back);
            }
        }
        for &r in self.routers.iter().filter(|&&r| r < n) {
            set(&mut mask.router, r);
            for (e, &nb) in g.edge_range(r).zip(g.neighbors(r)) {
                for slot in [e, g.edge_id(nb, r).expect("undirected edge")] {
                    set(&mut mask.link, slot);
                    set(&mut mask.edge, slot);
                }
            }
        }
        // Link bits are edge bits too, so these two decide emptiness.
        if mask.edge.iter().chain(&mask.router).all(|&w| w == 0) {
            return FaultMask::default();
        }
        mask
    }

    /// Merge another fault set into this one.
    pub fn union(&self, other: &FaultSet) -> FaultSet {
        let mut links = self.links.clone();
        links.extend_from_slice(&other.links);
        links.sort_unstable();
        links.dedup();
        let mut routers = self.routers.clone();
        routers.extend_from_slice(&other.routers);
        routers.sort_unstable();
        routers.dedup();
        FaultSet { links, routers }
    }

    /// Remove another fault set's entries from this one (recovery).
    ///
    /// Directed links listed in `other` come back up, as do routers.
    /// Only *explicit* faults are stored, so recovering a router does not
    /// resurrect links that were failed on their own — and vice versa.
    pub fn difference(&self, other: &FaultSet) -> FaultSet {
        FaultSet {
            links: self
                .links
                .iter()
                .copied()
                .filter(|l| other.links.binary_search(l).is_err())
                .collect(),
            routers: self
                .routers
                .iter()
                .copied()
                .filter(|r| other.routers.binary_search(r).is_err())
                .collect(),
        }
    }
}

/// One fault epoch compiled against one graph ([`FaultSet::compile`]):
/// the single place a failure set meets CSR slots. Holds the two
/// relations a mask has — directed [`FaultSet::link_failed`] (may this
/// port carry traffic) and undirected [`FaultSet::edge_failed`] (is
/// this cable in the distance relation) — as one bit per directed slot
/// each, plus one bit per router. The mask of an empty fault set holds
/// no bits at all, so every read on a pristine network is a missed
/// `get`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultMask {
    link: Vec<u64>,
    edge: Vec<u64>,
    router: Vec<u64>,
}

#[inline]
fn bit(bits: &[u64], i: u32) -> bool {
    let word = bits.get((i >> 6) as usize);
    word.is_some_and(|w| w >> (i & 63) & 1 != 0)
}

impl FaultMask {
    /// Whether the directed link behind slot `e = (u → v)` (a
    /// [`Graph::edge_id`]) may not carry traffic: the port rule.
    #[inline]
    pub fn link_dead(&self, e: u32) -> bool {
        bit(&self.link, e)
    }

    /// Whether the cable behind slot `e` is out of the distance
    /// relation: either direction or either endpoint router failed.
    #[inline]
    pub fn edge_dead(&self, e: u32) -> bool {
        bit(&self.edge, e)
    }

    /// Whether router `r` failed.
    #[inline]
    pub fn router_dead(&self, r: u32) -> bool {
        bit(&self.router, r)
    }

    /// Whether the mask fails nothing: the bitless
    /// [`FaultMask::default`], which every fault set that names no edge
    /// or router of the graph compiles to.
    pub fn is_empty(&self) -> bool {
        *self == FaultMask::default()
    }

    /// Whether no fault of the set is one-directional on this graph:
    /// the port and distance relations coincide.
    pub fn is_symmetric(&self) -> bool {
        self.link == self.edge
    }

    /// The slots of `slots` whose edge is alive, ascending. Walks the
    /// set bits of the complemented words, so a dead slot costs nothing
    /// — not even the mispredicted branch a per-slot test pays once a
    /// large share of the links is down.
    pub fn live(&self, slots: std::ops::Range<u32>) -> impl Iterator<Item = u32> + '_ {
        self.select(slots, false)
    }

    /// The slots of `slots` whose edge is dead, ascending; a live slot
    /// costs nothing.
    pub fn dead(&self, slots: std::ops::Range<u32>) -> impl Iterator<Item = u32> + '_ {
        self.select(slots, true)
    }

    /// The slots of `slots` whose edge bit equals `dead`, ascending.
    fn select(&self, slots: std::ops::Range<u32>, dead: bool) -> impl Iterator<Item = u32> + '_ {
        let (start, end) = (slots.start, slots.end);
        (start >> 6..end.div_ceil(64)).flat_map(move |w| {
            let base = w << 6;
            let word = self.edge.get(w as usize).copied().unwrap_or(0);
            let mut picked = if dead { word } else { !word };
            if base < start {
                picked &= !0 << (start - base);
            }
            if end - base < 64 {
                picked &= (1 << (end - base)) - 1;
            }
            std::iter::from_fn(move || {
                (picked != 0).then(|| {
                    let slot = base + picked.trailing_zeros();
                    picked &= picked - 1;
                    slot
                })
            })
        })
    }

    /// Resident bytes: two bits per directed link and one per router,
    /// or none when pristine.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.link[..])
            + std::mem::size_of_val(&self.edge[..])
            + std::mem::size_of_val(&self.router[..])
    }
}

/// What a timed fault event does to the cumulative fault set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Merge this set into the cumulative faults (links/routers die).
    Fail(FaultSet),
    /// Remove this set from the cumulative faults (links/routers return).
    Recover(FaultSet),
}

/// A timeline of fault events applied at cycle boundaries during a run.
///
/// Like [`FaultSet`], a schedule is *configuration*: it is fully known
/// before cycle 0, so the cycle engine can materialize every cumulative
/// fault epoch (and its masked route table) up front and switch between
/// them deterministically — identical behavior at any thread count.
///
/// Events at the same cycle apply in insertion order; the cumulative set
/// after the last event of a cycle defines that cycle's epoch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// `(cycle, event)` pairs, sorted by cycle; insertion order is kept
    /// among events at the same cycle.
    events: Vec<(u64, FaultEvent)>,
}

impl FaultSchedule {
    /// The empty schedule (no mid-run fault activity).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Whether the schedule carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The timed events, sorted by cycle.
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }

    fn insert(&mut self, cycle: u64, event: FaultEvent) {
        // Stable insertion: after every existing event at `cycle`.
        let pos = self.events.partition_point(|&(c, _)| c <= cycle);
        self.events.insert(pos, (cycle, event));
    }

    /// Fail `faults` at `cycle` (builder style).
    pub fn fail_at(mut self, cycle: u64, faults: FaultSet) -> Self {
        self.insert(cycle, FaultEvent::Fail(faults));
        self
    }

    /// Recover `faults` at `cycle` (builder style).
    pub fn recover_at(mut self, cycle: u64, faults: FaultSet) -> Self {
        self.insert(cycle, FaultEvent::Recover(faults));
        self
    }

    /// Fail the undirected link `u — v` at `cycle`.
    pub fn fail_link_at(self, cycle: u64, u: u32, v: u32) -> Self {
        self.fail_at(cycle, FaultSet::from_links([(u, v)]))
    }

    /// Recover the undirected link `u — v` at `cycle`.
    pub fn recover_link_at(self, cycle: u64, u: u32, v: u32) -> Self {
        self.recover_at(cycle, FaultSet::from_links([(u, v)]))
    }

    /// Fail router `r` (and with it every incident link) at `cycle`.
    pub fn fail_router_at(self, cycle: u64, r: u32) -> Self {
        self.fail_at(cycle, FaultSet::from_routers([r]))
    }

    /// Recover router `r` at `cycle`.
    pub fn recover_router_at(self, cycle: u64, r: u32) -> Self {
        self.recover_at(cycle, FaultSet::from_routers([r]))
    }

    /// A seeded random failure burst: a `fraction` of `g`'s links dies at
    /// `fail_cycle` and (optionally) returns at `recover_cycle`.
    ///
    /// Uses [`FaultSet::random_links`], so bursts at increasing fractions
    /// under the same seed nest exactly like static fault sweeps do.
    pub fn random_burst(
        g: &Graph,
        fraction: f64,
        seed: u64,
        fail_cycle: u64,
        recover_cycle: Option<u64>,
    ) -> Self {
        let set = FaultSet::random_links(g, fraction, seed);
        let s = FaultSchedule::new().fail_at(fail_cycle, set.clone());
        match recover_cycle {
            Some(t) => s.recover_at(t, set),
            None => s,
        }
    }

    /// Materialize the cumulative fault epochs, starting from `base` (the
    /// static mask the network already carries at cycle 0).
    ///
    /// Returns `(start_cycle, cumulative_faults)` pairs, ascending and
    /// starting with `(0, …)`; each epoch's set holds from its start
    /// cycle until the next epoch begins. Events that leave the
    /// cumulative set unchanged produce no epoch.
    pub fn epochs(&self, base: &FaultSet) -> Vec<(u64, FaultSet)> {
        let mut out: Vec<(u64, FaultSet)> = vec![(0, base.clone())];
        let mut i = 0;
        while i < self.events.len() {
            let cycle = self.events[i].0;
            let mut cur = out.last().unwrap().1.clone();
            while i < self.events.len() && self.events[i].0 == cycle {
                match &self.events[i].1 {
                    FaultEvent::Fail(f) => cur = cur.union(f),
                    FaultEvent::Recover(f) => cur = cur.difference(f),
                }
                i += 1;
            }
            let last = out.last_mut().unwrap();
            if cur != last.1 {
                if last.0 == cycle {
                    last.1 = cur;
                } else {
                    out.push((cycle, cur));
                }
            }
        }
        out
    }

    /// Check that every event references router ids inside a graph of `n`
    /// vertices.
    pub fn validate(&self, n: usize) -> Result<(), crate::error::TopoError> {
        let n = n as u32;
        for (cycle, ev) in &self.events {
            let (set, kind) = match ev {
                FaultEvent::Fail(f) => (f, "fail"),
                FaultEvent::Recover(f) => (f, "recover"),
            };
            if let Some(&(u, v)) = set.failed_links().iter().find(|&&(u, v)| u >= n || v >= n) {
                return Err(crate::error::TopoError::InvalidSpec(format!(
                    "fault schedule: {kind} event at cycle {cycle} references link \
                     ({u}, {v}) outside a {n}-router graph"
                )));
            }
            if let Some(&r) = set.failed_routers().iter().find(|&&r| r >= n) {
                return Err(crate::error::TopoError::InvalidSpec(format!(
                    "fault schedule: {kind} event at cycle {cycle} references router \
                     {r} outside a {n}-router graph"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_fails_nothing() {
        let f = FaultSet::empty();
        assert!(f.is_empty());
        assert!(!f.link_failed(0, 1));
        assert!(!f.edge_failed(0, 1));
        assert!(!f.router_failed(3));
        let g = Graph::complete(4);
        assert_eq!(f.degraded_graph(&g).m(), g.m());
        assert_eq!(f.failed_edge_count(&g), 0);
    }

    #[test]
    fn undirected_links_fail_both_directions() {
        let f = FaultSet::from_links([(2, 5)]);
        assert!(f.link_failed(2, 5));
        assert!(f.link_failed(5, 2));
        assert!(!f.link_failed(2, 4));
        assert_eq!(f.failed_links().len(), 2);
    }

    #[test]
    fn directed_links_fail_one_direction() {
        let f = FaultSet::from_directed_links([(2, 5)]);
        assert!(f.link_failed(2, 5));
        assert!(!f.link_failed(5, 2));
        assert!(f.edge_failed(2, 5) && f.edge_failed(5, 2));
        assert!(!f.edge_failed(2, 4));
        // The degraded graph still drops the whole edge.
        let g = Graph::complete(6);
        assert_eq!(f.degraded_graph(&g).m(), g.m() - 1);
        assert_eq!(f.failed_edge_count(&g), 1);
    }

    #[test]
    fn router_faults_kill_incident_links() {
        let g = Graph::complete(5);
        let f = FaultSet::from_routers([2]);
        assert!(f.router_failed(2));
        assert!(f.link_failed(2, 4));
        assert!(f.link_failed(0, 2));
        assert!(!f.link_failed(0, 1));
        assert!(f.edge_failed(2, 4) && f.edge_failed(4, 2));
        assert!(!f.edge_failed(0, 1));
        let d = f.degraded_graph(&g);
        assert_eq!(d.degree(2), 0);
        assert_eq!(d.m(), g.m() - 4);
        assert_eq!(f.failed_edge_count(&g), 4);
    }

    #[test]
    fn mask_mirrors_the_predicates_on_every_slot() {
        let g = Graph::cycle(9);
        assert_eq!(FaultSet::empty().compile(&g), FaultMask::default());
        assert!(!FaultMask::default().edge_dead(3));
        // A cut cable, a one-way fault, a dead router, and entries that
        // are no edge of `g` or name no router of it.
        let f = FaultSet::from_links([(0, 1), (2, 6), (40, 41)])
            .union(&FaultSet::from_directed_links([(4, 3), (7, 99)]))
            .union(&FaultSet::from_routers([6, 77]));
        let mask = f.compile(&g);
        assert_eq!(mask.memory_bytes(), 24, "18 slots, 9 routers: a word each");
        let stray = FaultSet::from_links([(0, 2), (40, 41)]).union(&FaultSet::from_routers([77]));
        assert_eq!(
            stray.compile(&g),
            FaultMask::default(),
            "nothing of `g` failed"
        );
        assert!(stray.compile(&g).is_empty() && !stray.is_empty());
        assert!(!mask.is_empty());
        assert!(!mask.is_symmetric(), "4 → 3 is down, 3 → 4 is not");
        for u in 0..9 {
            assert_eq!(mask.router_dead(u), f.router_failed(u), "router {u}");
            for (e, &v) in g.edge_range(u).zip(g.neighbors(u)) {
                assert_eq!(mask.link_dead(e), f.link_failed(u, v), "{u}→{v}");
                assert_eq!(mask.edge_dead(e), f.edge_failed(u, v), "{u}-{v}");
            }
            let live: Vec<u32> = mask.live(g.edge_range(u)).collect();
            let want = g.edge_range(u).filter(|&e| !mask.edge_dead(e));
            assert_eq!(live, want.collect::<Vec<u32>>(), "live slots of {u}");
            let gone: Vec<u32> = mask.dead(g.edge_range(u)).collect();
            let want = g.edge_range(u).filter(|&e| mask.edge_dead(e));
            assert_eq!(gone, want.collect::<Vec<u32>>(), "dead slots of {u}");
        }
        // Ranges that straddle, fill and fall past the mask's words.
        let g = Graph::complete(13); // 156 directed slots
        let mask = FaultSet::random_links(&g, 0.4, 3).compile(&g);
        assert!(mask.is_symmetric());
        for (start, end) in [(0, 156), (60, 70), (64, 128), (5, 5), (100, 156), (0, 200)] {
            let live: Vec<u32> = mask.live(start..end).collect();
            let want = (start..end).filter(|&e| !mask.edge_dead(e));
            assert_eq!(live, want.collect::<Vec<u32>>(), "{start}..{end}");
            let gone: Vec<u32> = mask.dead(start..end).collect();
            let want = (start..end).filter(|&e| mask.edge_dead(e));
            assert_eq!(gone, want.collect::<Vec<u32>>(), "{start}..{end}");
        }
        let all: Vec<u32> = FaultMask::default().live(3..9).collect();
        assert_eq!(all, [3, 4, 5, 6, 7, 8], "a pristine mask kills nothing");
        assert_eq!(FaultMask::default().dead(3..9).count(), 0);
    }

    #[test]
    fn random_links_deterministic_and_sized() {
        let g = Graph::complete(12); // 66 edges
        let a = FaultSet::random_links(&g, 0.1, 9);
        let b = FaultSet::random_links(&g, 0.1, 9);
        assert_eq!(a, b);
        let c = FaultSet::random_links(&g, 0.1, 10);
        assert_ne!(a, c, "different seeds draw different faults");
        assert_eq!(a.failed_edge_count(&g), 7); // round(6.6)
        assert_eq!(FaultSet::random_links(&g, 0.0, 1), FaultSet::empty());
        let all = FaultSet::random_links(&g, 1.0, 1);
        assert_eq!(all.degraded_graph(&g).m(), 0);
    }

    #[test]
    fn random_fractions_nest_like_trajectories() {
        // A larger fraction at the same seed strictly contains the
        // smaller one (shuffled-prefix sampling).
        let g = Graph::complete(10);
        let small = FaultSet::random_links(&g, 0.1, 4);
        let large = FaultSet::random_links(&g, 0.3, 4);
        for &l in small.failed_links() {
            assert!(large.failed_links().contains(&l), "{l:?} not nested");
        }
    }

    #[test]
    fn random_routers_deterministic() {
        let g = Graph::complete(10);
        let a = FaultSet::random_routers(&g, 0.2, 3);
        assert_eq!(a, FaultSet::random_routers(&g, 0.2, 3));
        assert_eq!(a.failed_routers().len(), 2);
    }

    #[test]
    fn union_merges_both_kinds() {
        let a = FaultSet::from_links([(0, 1)]);
        let b = FaultSet::from_routers([5]);
        let u = a.union(&b);
        assert!(u.link_failed(0, 1) && u.link_failed(1, 0));
        assert!(u.router_failed(5));
        assert_eq!(a.union(&a), a);
    }

    #[test]
    fn difference_recovers_explicit_faults_only() {
        let a = FaultSet::from_links([(0, 1), (2, 3)]).union(&FaultSet::from_routers([5]));
        let d = a.difference(&FaultSet::from_links([(0, 1)]));
        assert!(!d.link_failed(0, 1) && !d.link_failed(1, 0));
        assert!(d.link_failed(2, 3));
        assert!(d.router_failed(5));
        // Recovering router 5 does not resurrect the (2,3) link fault.
        let d = d.difference(&FaultSet::from_routers([5]));
        assert!(!d.router_failed(5));
        assert!(d.link_failed(2, 3));
        assert_eq!(a.difference(&a), FaultSet::empty());
        assert_eq!(a.difference(&FaultSet::empty()), a);
    }

    #[test]
    fn schedule_epochs_accumulate_and_recover() {
        let s = FaultSchedule::new()
            .fail_link_at(100, 0, 1)
            .fail_router_at(200, 4)
            .recover_link_at(300, 0, 1)
            .recover_router_at(300, 4);
        let epochs = s.epochs(&FaultSet::empty());
        assert_eq!(epochs.len(), 4);
        assert_eq!(epochs[0], (0, FaultSet::empty()));
        assert_eq!(epochs[1].0, 100);
        assert!(epochs[1].1.link_failed(0, 1));
        assert_eq!(epochs[2].0, 200);
        assert!(epochs[2].1.link_failed(0, 1) && epochs[2].1.router_failed(4));
        // Everything came back: the final epoch is pristine again.
        assert_eq!(epochs[3], (300, FaultSet::empty()));
        assert_eq!(s.events().last().unwrap().0, 300);
    }

    #[test]
    fn schedule_epochs_start_from_base_and_skip_noops() {
        let base = FaultSet::from_links([(7, 8)]);
        // Recovering a link that never failed changes nothing: no epoch.
        let s = FaultSchedule::new()
            .recover_link_at(50, 0, 1)
            .fail_link_at(120, 2, 3);
        let epochs = s.epochs(&base);
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0], (0, base.clone()));
        assert_eq!(epochs[1].0, 120);
        assert!(epochs[1].1.link_failed(7, 8) && epochs[1].1.link_failed(2, 3));
    }

    #[test]
    fn schedule_events_at_cycle_zero_fold_into_first_epoch() {
        let s = FaultSchedule::new().fail_link_at(0, 1, 2);
        let epochs = s.epochs(&FaultSet::empty());
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].0, 0);
        assert!(epochs[0].1.link_failed(1, 2));
    }

    #[test]
    fn schedule_same_cycle_events_apply_in_insertion_order() {
        // Fail then recover the same link at the same cycle: net no-op.
        let s = FaultSchedule::new()
            .fail_link_at(10, 0, 1)
            .recover_link_at(10, 0, 1);
        assert_eq!(s.epochs(&FaultSet::empty()).len(), 1);
        // Recover then fail: the link ends the cycle dead.
        let s = FaultSchedule::new()
            .recover_link_at(10, 0, 1)
            .fail_link_at(10, 0, 1);
        let epochs = s.epochs(&FaultSet::empty());
        assert_eq!(epochs.len(), 2);
        assert!(epochs[1].1.link_failed(0, 1));
    }

    #[test]
    fn random_burst_nests_and_recovers() {
        let g = Graph::complete(12);
        let small = FaultSchedule::random_burst(&g, 0.1, 7, 100, Some(400));
        let large = FaultSchedule::random_burst(&g, 0.3, 7, 100, Some(400));
        let se = small.epochs(&FaultSet::empty());
        let le = large.epochs(&FaultSet::empty());
        assert_eq!(se.len(), 3);
        for &l in se[1].1.failed_links() {
            assert!(le[1].1.failed_links().contains(&l), "{l:?} not nested");
        }
        // Both schedules return to pristine after the recovery event.
        assert_eq!(se[2], (400, FaultSet::empty()));
        assert_eq!(le[2], (400, FaultSet::empty()));
        // No recovery: the burst persists to the end of the run.
        let forever = FaultSchedule::random_burst(&g, 0.1, 7, 100, None);
        assert_eq!(forever.epochs(&FaultSet::empty()).len(), 2);
    }

    #[test]
    fn schedule_validate_rejects_out_of_range_ids() {
        let s = FaultSchedule::new().fail_link_at(10, 0, 99);
        let err = s.validate(8).unwrap_err().to_string();
        assert!(err.contains("cycle 10"), "{err}");
        assert!(err.contains("(0, 99)"), "{err}");
        let s = FaultSchedule::new().recover_router_at(20, 42);
        let err = s.validate(8).unwrap_err().to_string();
        assert!(err.contains("router 42"), "{err}");
        assert!(err.contains("recover"), "{err}");
        assert!(FaultSchedule::new()
            .fail_link_at(10, 0, 7)
            .validate(8)
            .is_ok());
    }
}
