//! Golden pin for the route service's answers: literal FNV-1a 64 digests
//! of every field of every `RouteAnswer` that `answer_batch` and
//! `answer_batch_sharded` hand out, not backend-vs-backend comparisons.
//!
//! Each digest covers one backend at one seed on Table 3's PS-IQ, over
//! the `routed_*_churn` fault schedule: five epochs at 0, 1, 2.5, 5 and
//! 0 % random failed links, each answering the same 4 batches of 512
//! seeded queries asking for 4 paths, re-masked from the base oracle as
//! `EpochSwapper::prepare` does. Per answer it hashes the source,
//! destination, epoch, typed error, distance, next hop, the path and
//! every alternative router by router. The literals were recorded at
//! commit b9927f2, where answers held one `Vec` per path, immediately
//! before paths were held inline and written by the walks themselves.
//! Answers are pure functions of (snapshot, query), so the digests must
//! hold at any rayon width (CI runs this suite at `RAYON_NUM_THREADS` 1
//! and 4), and the sharded answers must equal the sequential ones.
//!
//! Regenerate with
//! `ANSWER_PIN_PRINT=1 cargo test -p polarstar-routed --test answer_pin -- --nocapture`
//! only when what the service answers intentionally changes — never for
//! a change of how a path is stored or a walk emits it.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_routed::{Oracle, QueryBatch, RouteAnswer};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::RouteError;
use std::sync::Arc;

/// Link-fault fraction of each epoch: the churn schedule, which ends
/// recovered.
const EPOCH_LINK_FRACTIONS: [f64; 5] = [0.0, 0.01, 0.025, 0.05, 0.0];
const BATCHES: u64 = 4;
const BATCH_QUERIES: usize = 512;
const PATHS_PER_QUERY: u32 = 4;

/// FNV-1a 64 over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// An optional value as a presence flag, then the value.
    fn option(&mut self, x: Option<u32>) {
        self.word(u64::from(x.is_some()));
        self.word(u64::from(x.unwrap_or(0)));
    }

    /// A router path as its length, then its routers.
    fn path(&mut self, p: &[u32]) {
        self.word(p.len() as u64);
        p.iter().for_each(|&r| self.word(u64::from(r)));
    }

    fn answer(&mut self, a: &RouteAnswer) {
        let RouteAnswer {
            src,
            dst,
            epoch,
            error,
            distance,
            next_hop,
            path,
            alternatives,
        } = a;
        self.word(u64::from(*src));
        self.word(u64::from(*dst));
        self.word(*epoch);
        match *error {
            None => self.word(0),
            Some(RouteError::Unreachable { src, dst }) => {
                self.word(1);
                self.word(u64::from(src));
                self.word(u64::from(dst));
            }
            Some(RouteError::OutOfRange { id, routers }) => {
                self.word(2);
                self.word(u64::from(id));
                self.word(u64::from(routers));
            }
        }
        self.option(*distance);
        self.option(*next_hop);
        self.path(path);
        self.word(alternatives.len() as u64);
        alternatives.iter().for_each(|p| self.path(p));
    }
}

/// The digest of one base oracle's answers across the schedule at
/// `seed`: the sequential answers of every batch, then the sharded ones,
/// which must be equal.
fn digest(base: &Oracle, seed: u64) -> u64 {
    let g = &base.spec().graph;
    let routers = base.spec().routers() as u32;
    let batches: Vec<QueryBatch> = (0..BATCHES)
        .map(|b| {
            let batch_seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(b);
            QueryBatch::random(BATCH_QUERIES, routers, PATHS_PER_QUERY, batch_seed)
        })
        .collect();
    let mut h = Fnv::new();
    for (e, &fraction) in EPOCH_LINK_FRACTIONS.iter().enumerate() {
        let faults = FaultSet::random_links(g, fraction, seed);
        let snapshot = base.remask(&faults, e as u64 + 1);
        for batch in &batches {
            let sequential = snapshot.answer_batch(batch);
            let sharded = snapshot.answer_batch_sharded(batch);
            assert_eq!(sequential, sharded, "epoch {e}: sharded answers differ");
            sequential.iter().for_each(|a| h.answer(a));
            sharded.iter().for_each(|a| h.answer(a));
        }
    }
    h.0
}

fn assert_pinned(what: &str, base: &Oracle, seed: u64, want: u64) {
    let got = digest(base, seed);
    if std::env::var_os("ANSWER_PIN_PRINT").is_some() {
        println!("{what}, seed {seed}: {got:#018x}");
        return;
    }
    assert_eq!(got, want, "{what}, seed {seed}: digest is {got:#018x}");
}

fn psiq() -> PolarStarNetwork {
    PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap()
}

#[test]
fn psiq_table_answers() {
    let base = Oracle::new(Arc::new(psiq().spec));
    assert_pinned("PS-IQ table", &base, 1, 0x7530_059f_53e8_39e9);
    assert_pinned("PS-IQ table", &base, 7, 0x20f0_c6d1_84b4_91bd);
}

#[test]
fn psiq_analytic_answers() {
    let base = Oracle::new_analytic(psiq());
    assert_pinned("PS-IQ analytic", &base, 1, 0x7530_059f_53e8_39e9);
    assert_pinned("PS-IQ analytic", &base, 7, 0x20f0_c6d1_84b4_91bd);
}
