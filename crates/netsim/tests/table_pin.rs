//! Golden pin for the route table's bytes: literal FNV-1a 64 digests of
//! `(distance, min_ports)` over every ordered router pair, not
//! build-vs-build comparisons.
//!
//! The first three literals were recorded at commit 30db64b, on the
//! assembler that ran one heap-allocated BFS column per destination and
//! probed every column per (router, port) — immediately before it
//! became the 64-destination block BFS plus a row-resident port fill,
//! which later gave way to ports read off the distance columns. The two
//! Table 3 hierarchical literals were recorded at commit 8fb868e, on the
//! assembler that ran one pure-local BFS and one bucketed one-global
//! Dijkstra per destination, immediately before hierarchical tables
//! moved onto the block sweep. A table is a pure function of (graph,
//! policy, group, fault mask), so the digests must hold on `for_spec`,
//! on `remask` from the pristine table, and at any rayon width (CI runs
//! this suite at `RAYON_NUM_THREADS` 1 and 4).
//!
//! Regenerate with
//! `TABLE_PIN_PRINT=1 cargo test -p polarstar-netsim --test table_pin -- --nocapture`
//! only when the routing *relation* intentionally changes — never for a
//! refactor of how the table is built.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::RouteTable;
use polarstar_topo::dragonfly::{dragonfly, DragonflyParams};
use polarstar_topo::megafly::{megafly, MegaflyParams};
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::FaultSet;

/// FNV-1a 64 over, per (r, dst) in row-major order: the distance (LE
/// u16), the port count, then the ports.
fn digest(t: &RouteTable) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    let n = t.n() as u32;
    for r in 0..n {
        for dst in 0..n {
            t.distance(r, dst)
                .to_le_bytes()
                .into_iter()
                .for_each(&mut eat);
            let ports: Vec<u8> = t.min_ports(r, dst).collect();
            eat(ports.len() as u8);
            ports.into_iter().for_each(&mut eat);
        }
    }
    h
}

/// Table 3's PS-IQ: radix 15, 1 064 routers, flat minimal table.
fn psiq() -> NetworkSpec {
    PolarStarNetwork::build(best_config(15).unwrap(), 5)
        .unwrap()
        .spec
}

/// The digest must hold however the table for `(spec, faults)` is
/// reached: built masked, or re-masked from the pristine table.
fn assert_pinned(what: &str, spec: &NetworkSpec, faults: &FaultSet, want: u64) {
    let built = digest(&RouteTable::for_spec(
        &spec.clone().with_faults(faults.clone()),
    ));
    let remasked = digest(&RouteTable::for_spec(spec).remask(spec, faults));
    if std::env::var_os("TABLE_PIN_PRINT").is_some() {
        println!("{what}: for_spec {built:#018x} remask {remasked:#018x}");
        return;
    }
    assert_eq!(built, want, "{what}: for_spec is {built:#018x}");
    assert_eq!(remasked, want, "{what}: remask is {remasked:#018x}");
}

#[test]
fn psiq_pristine() {
    assert_pinned(
        "PS-IQ pristine",
        &psiq(),
        &FaultSet::empty(),
        0xaf63_b30e_37a5_a7dc,
    );
}

#[test]
fn psiq_five_percent_links() {
    let spec = psiq();
    let faults = FaultSet::random_links(&spec.graph, 0.05, 1);
    assert_pinned("PS-IQ 5% links", &spec, &faults, 0x8555_44be_624b_fbf8);
}

#[test]
fn dragonfly_hierarchical_one_way_global_and_dead_router() {
    // Dragonfly a = 4, h = 2: 36 routers, ≤ 1-global minimal table. The
    // first inter-group link fails in one direction only, and a router
    // off that link dies outright.
    let spec = dragonfly(DragonflyParams { a: 4, h: 2, p: 2 });
    let (u, v) = spec
        .graph
        .edges()
        .find(|&(u, v)| spec.group[u as usize] != spec.group[v as usize])
        .unwrap();
    let dead = (0..spec.graph.n() as u32)
        .rev()
        .find(|&r| r != u && r != v)
        .unwrap();
    let faults = FaultSet::from_directed_links([(u, v)]).union(&FaultSet::from_routers([dead]));
    assert_pinned(
        "DF a4h2 one-way global + router",
        &spec,
        &faults,
        0x56df_c8c7_531d_ca92,
    );
}

#[test]
fn dragonfly_table3_pristine() {
    // Table 3's Dragonfly: a = 12, h = 6, 876 routers, ≤ 1-global
    // minimal table.
    let spec = dragonfly(DragonflyParams { a: 12, h: 6, p: 6 });
    assert_pinned(
        "DF a12h6 pristine",
        &spec,
        &FaultSet::empty(),
        0x7a50_0b31_7406_1341,
    );
}

#[test]
fn megafly_table3_five_percent_links() {
    // Table 3's Megafly: ρ = 8, a = 16, 1 040 routers, ≤ 1-global
    // minimal table with 5 % of its links failed.
    let spec = megafly(MegaflyParams {
        rho: 8,
        a: 16,
        p: 8,
    });
    let faults = FaultSet::random_links(&spec.graph, 0.05, 1);
    assert_pinned("MF r8a16 5% links", &spec, &faults, 0x1e87_a569_e296_1cad);
}
