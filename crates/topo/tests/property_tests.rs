//! Property-based tests on the topology constructions: star-product
//! algebra, factor-graph properties and parameterized families.

use polarstar_graph::{traversal, Graph};
use polarstar_topo::er::ErGraph;
use polarstar_topo::fault::{FaultMask, FaultSchedule, FaultSet};
use polarstar_topo::iq::inductive_quad;
use polarstar_topo::oracle::{
    column_next_hops, masked_distance_block, masked_distance_column, masked_hop_block,
};
use polarstar_topo::paley::{paley_graph, paley_supernode};
use polarstar_topo::star::{
    cartesian_product, star_product, star_product_with, vertex_id, vertex_parts,
};
use polarstar_topo::supernode::Supernode;
use proptest::prelude::*;

/// Random permutation of 0..n as a bijection for the star product.
fn permutation(n: usize) -> impl Strategy<Value = Vec<u32>> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut v: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            v.swap(i, j);
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn star_product_order_and_degree(
        ns in 3usize..8,
        np in 3usize..7,
        f in (3usize..7).prop_flat_map(permutation),
    ) {
        // §4.3 facts: |V| multiplies; degree adds (cycle structure +
        // cycle supernode keeps both regular).
        let f = if f.len() == np { f } else { (0..np as u32).collect() };
        let g = Graph::cycle(ns);
        let h = Graph::cycle(np.max(3));
        let np = h.n();
        let f: Vec<u32> = if f.len() == np { f } else { (0..np as u32).collect() };
        let p = star_product_with(&g, &h, |_, _| f.clone()).unwrap();
        prop_assert_eq!(p.n(), ns * np);
        prop_assert!(p.max_degree() <= 2 + 2);
        prop_assert!(p.is_regular());
    }

    #[test]
    fn star_product_diameter_bounded_by_sum(
        ns in 3usize..7,
        np in 3usize..6,
    ) {
        // D(G*G') ≤ D(G) + D(G') for any bijections (§4.3 fact 3),
        // identity bijections = Cartesian product meets it with equality.
        let g = Graph::cycle(ns);
        let h = Graph::cycle(np.max(3));
        let p = cartesian_product(&g, &h);
        let dg = traversal::diameter(&g).unwrap();
        let dh = traversal::diameter(&h).unwrap();
        prop_assert_eq!(traversal::diameter(&p), Some(dg + dh));
    }

    #[test]
    fn vertex_id_bijective(x in 0u32..50, xp in 0u32..20, np in 1usize..21) {
        let xp = xp % np as u32;
        let v = vertex_id(x, xp, np);
        prop_assert_eq!(vertex_parts(v, np), (x, xp));
    }

    #[test]
    fn er_structure_properties(qi in 0usize..6) {
        let q = [2u64, 3, 4, 5, 7, 8][qi];
        let er = ErGraph::new(q).unwrap();
        prop_assert_eq!(er.order() as u64, q * q + q + 1);
        prop_assert_eq!(traversal::diameter(&er.graph), Some(2));
        prop_assert_eq!(er.quadric_vertices().len() as u64, q + 1);
        // Orthogonality is symmetric: validated by graph validity.
        prop_assert!(er.graph.validate().is_ok());
    }

    #[test]
    fn iq_r_star_and_bound(k in 0usize..6) {
        let d = [0usize, 3, 4, 7, 8, 11][k];
        let s = inductive_quad(d).unwrap();
        prop_assert_eq!(s.order(), 2 * d + 2);
        prop_assert!(s.satisfies_r_star());
        // The involution has no fixed points (pairing).
        for (x, &fx) in s.f.iter().enumerate() {
            prop_assert!(fx != x as u32);
        }
    }

    #[test]
    fn paley_self_complementary(k in 0usize..5) {
        let q = [5u64, 9, 13, 17, 25][k];
        let g = paley_graph(q).unwrap();
        // Complement of Paley(q) is isomorphic to itself; cheap necessary
        // condition: m == n(n−1)/4 and regular of degree (q−1)/2.
        prop_assert_eq!(g.m() as u64, q * (q - 1) / 4);
        prop_assert!(g.is_regular());
    }

    #[test]
    fn theorem4_random_small_configs(k in 0usize..4) {
        let (q, d) = [(2u64, 3usize), (3, 0), (4, 3), (5, 4)][k];
        let er = ErGraph::new(q).unwrap();
        let iq = inductive_quad(d).unwrap();
        let p = star_product(&er.graph, &er.quadric_vertices(), &iq);
        prop_assert!(traversal::diameter(&p).unwrap() <= 3);
    }

    #[test]
    fn r_star_checker_rejects_mutations(seed in 0u64..200) {
        // Removing enough edges from IQ3 must eventually break R*.
        let s = inductive_quad(3).unwrap();
        let edges: Vec<(u32, u32)> = s.graph.edges().collect();
        let kill = (seed as usize) % edges.len();
        // Remove a band of 6 of the 12 edges.
        let removed: Vec<(u32, u32)> = (0..6).map(|i| edges[(kill + i) % edges.len()]).collect();
        let g2 = s.graph.without_edges(&removed);
        let s2 = Supernode::new("mutated", g2, s.f.clone());
        prop_assert!(!s2.satisfies_r_star(), "half-empty IQ3 cannot keep R*");
    }

    #[test]
    fn paley_supernode_r1_stable(k in 0usize..4) {
        let q = [5u64, 9, 13, 25][k];
        let s = paley_supernode(q).unwrap();
        prop_assert!(s.satisfies_r1());
        prop_assert!(s.f_squared_is_automorphism());
    }

    #[test]
    fn fault_fractions_nest(
        p1 in 0u32..=100,
        p2 in 0u32..=100,
        seed in 0u64..500,
    ) {
        // Shuffled-prefix sampling: at a fixed seed, a smaller fraction's
        // fault set is contained in a larger fraction's.
        let g = Graph::complete(12);
        let (f1, f2) = (p1 as f64 / 100.0, p2 as f64 / 100.0);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let small = FaultSet::random_links(&g, lo, seed);
        let large = FaultSet::random_links(&g, hi, seed);
        for &l in small.failed_links() {
            prop_assert!(large.failed_links().contains(&l), "{l:?} not nested");
        }
        // Containment in set terms: union with the superset is a no-op.
        prop_assert_eq!(small.union(&large), large);
    }

    #[test]
    fn fault_union_degrades_like_both(
        pa in 0u32..50,
        pb in 0u32..50,
        sa in 0u64..100,
        sb in 0u64..100,
    ) {
        // An edge survives the union exactly when it survives both sets,
        // and the degraded edge count matches failed_edge_count.
        let g = Graph::complete(9);
        let a = FaultSet::random_links(&g, pa as f64 / 100.0, sa);
        let b = FaultSet::random_links(&g, pb as f64 / 100.0, sb);
        let u = a.union(&b);
        let du = u.degraded_graph(&g);
        for (x, y) in g.edges() {
            let dead = a.link_failed(x, y) || a.link_failed(y, x)
                || b.link_failed(x, y) || b.link_failed(y, x);
            prop_assert_eq!(du.has_edge(x, y), !dead, "edge ({x}, {y})");
        }
        prop_assert_eq!(du.m(), g.m() - u.failed_edge_count(&g));
        prop_assert_eq!(du.n(), g.n(), "vertex ids must be preserved");
    }

    #[test]
    fn fault_directed_vs_undirected_symmetry(u in 0u32..12, v in 0u32..12) {
        if u == v {
            return Ok(());
        }
        // A cable cut kills both directions; a directed (laser) fault
        // kills exactly one — but both drop the undirected edge.
        let cut = FaultSet::from_links([(u, v)]);
        prop_assert!(cut.link_failed(u, v) && cut.link_failed(v, u));
        let laser = FaultSet::from_directed_links([(u, v)]);
        prop_assert!(laser.link_failed(u, v));
        prop_assert!(!laser.link_failed(v, u));
        let g = Graph::complete(12);
        prop_assert_eq!(laser.degraded_graph(&g).m(), g.m() - 1);
        prop_assert_eq!(cut.degraded_graph(&g).m(), g.m() - 1);
        prop_assert_eq!(cut.failed_edge_count(&g), 1);
    }

    #[test]
    fn fault_mask_equals_the_reference_predicates(
        n in 2usize..40,
        density in 1usize..6,
        cut in 0u32..60,
        seed in 0u64..10_000,
    ) {
        // A random graph under cable cuts, one-directional faults, dead
        // routers, pairs that are no edge and ids the graph lacks.
        let g = polarstar_graph::random::gnm(n, (n * density / 2).min(n * (n - 1) / 2), seed);
        let nn = n as u32;
        let cables = FaultSet::random_links(&g, cut as f64 / 100.0, seed);
        let one_way = FaultSet::from_directed_links(
            g.edges().filter(|&(u, v)| (u ^ v ^ seed as u32).is_multiple_of(5)).map(|(u, v)| (v, u)),
        );
        let stray = FaultSet::from_links([(0, nn), (nn + 3, nn + 4)])
            .union(&FaultSet::from_directed_links([(seed as u32 % nn, (seed as u32 / 7) % nn)]))
            .union(&FaultSet::from_routers([nn, nn + 9]));
        let routers = FaultSet::random_routers(&g, 0.1, seed ^ 0xD1E);
        for faults in [
            cables.clone(),
            one_way.union(&stray),
            cables.union(&one_way).union(&routers).union(&stray),
        ] {
            let mask = faults.compile(&g);
            for u in 0..nn {
                prop_assert_eq!(mask.router_dead(u), faults.router_failed(u), "router {}", u);
                let (mut live, mut dead) = (Vec::new(), Vec::new());
                for (e, &v) in g.edge_range(u).zip(g.neighbors(u)) {
                    prop_assert_eq!(mask.link_dead(e), faults.link_failed(u, v), "{}→{}", u, v);
                    prop_assert_eq!(mask.edge_dead(e), faults.edge_failed(u, v), "{}–{}", u, v);
                    if faults.edge_failed(u, v) { dead.push(e) } else { live.push(e) }
                }
                // Ascending, and together every slot of the range.
                prop_assert_eq!(mask.live(g.edge_range(u)).collect::<Vec<_>>(), live);
                prop_assert_eq!(mask.dead(g.edge_range(u)).collect::<Vec<_>>(), dead);
            }
            let symmetric = g.edges().all(|(u, v)| faults.link_failed(u, v) == faults.link_failed(v, u));
            prop_assert_eq!(mask.is_symmetric(), symmetric);
            let degraded = faults.degraded_graph(&g);
            let mut col = Vec::new();
            for dst in 0..nn {
                masked_distance_column(&g, &mask, dst, &mut col);
                prop_assert_eq!(&col, &traversal::bfs_distances(&degraded, dst), "column {}", dst);
            }
        }
        // Nothing failed: nothing allocated, nothing dead.
        let pristine = FaultSet::empty().compile(&g);
        prop_assert_eq!(pristine.memory_bytes(), 0);
        prop_assert_eq!(&pristine, &FaultMask::default());
        prop_assert!(pristine.is_symmetric() && !pristine.link_dead(0) && !pristine.router_dead(0));
        prop_assert_eq!(pristine.live(0..5).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn block_bfs_rows_equal_the_distance_columns(
        size in 0usize..5,
        density in 1usize..5,
        cut in 0u32..40,
        seed in 0u64..10_000,
    ) {
        // Block boundaries on either side of one word of destinations,
        // a single router, and several blocks with a short last one;
        // density 1 leaves the graph in pieces before any fault.
        let n = [1usize, 63, 64, 65, 200][size];
        let g = polarstar_graph::random::gnm(n, (n * density / 2).min(n * (n - 1) / 2), seed);
        let nn = n as u32;
        let cables = FaultSet::random_links(&g, cut as f64 / 100.0, seed);
        let one_way = FaultSet::from_directed_links(
            g.edges().filter(|&(u, v)| (u ^ v ^ seed as u32).is_multiple_of(7)).map(|(u, v)| (v, u)),
        );
        let stray = FaultSet::from_links([(0, nn), (nn + 3, nn + 4)]).union(&FaultSet::from_routers([nn + 9]));
        let routers = FaultSet::random_routers(&g, 0.05, seed ^ 0xD1E);
        for faults in [FaultSet::empty(), cables.union(&one_way).union(&routers).union(&stray)] {
            let mask = faults.compile(&g);
            // Every distance here is below 255, so both widths fit.
            let (mut rows, mut bytes) = (vec![7u16; n * n], vec![7u8; n * n]);
            for (block, (rows, bytes)) in rows.chunks_mut(64 * n).zip(bytes.chunks_mut(64 * n)).enumerate() {
                prop_assert!(masked_distance_block(&g, &mask, block as u32 * 64, rows));
                prop_assert!(masked_distance_block(&g, &mask, block as u32 * 64, bytes));
            }
            let mut col = Vec::new();
            for dst in 0..nn {
                masked_distance_column(&g, &mask, dst, &mut col);
                let row = rows[dst as usize * n..][..n].iter().map(|&d| if d == u16::MAX { u32::MAX } else { u32::from(d) });
                prop_assert_eq!(row.collect::<Vec<_>>(), &col[..], "destination {} of {}", dst, n);
                let row = bytes[dst as usize * n..][..n].iter().map(|&d| if d == u8::MAX { u32::MAX } else { u32::from(d) });
                prop_assert_eq!(row.collect::<Vec<_>>(), &col[..], "u8 destination {} of {}", dst, n);
            }
        }
    }

    #[test]
    fn hop_block_bits_are_the_scalar_port_rule(
        size in 0usize..5,
        density in 1usize..5,
        cut in 0u32..40,
        seed in 0u64..10_000,
    ) {
        // Block boundaries as above; a hub cabled to every even router
        // has more links than a word has bits once n = 150.
        let n = [1usize, 63, 64, 65, 150][size];
        let nn = n as u32;
        let hub = seed as u32 % nn;
        let random = polarstar_graph::random::gnm(n, (n * density / 2).min(n * (n - 1) / 2), seed);
        let mut edges: Vec<(u32, u32)> = random.edges().collect();
        edges.extend((0..nn).step_by(2).filter(|&v| v != hub).map(|v| (hub, v)));
        let g = Graph::from_edges(n, &edges);
        prop_assert!(n < 150 || g.degree(hub) > 64);
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
            let blocks: Vec<Vec<u64>> = (0..nn.div_ceil(64)).map(|b| masked_hop_block(&g, &mask, b * 64)).collect();
            for (b, words) in blocks.iter().enumerate() {
                prop_assert_eq!(words.len(), g.directed_edge_count());
                // No bit for a destination past the last router.
                let dsts = (n - 64 * b).min(64);
                prop_assert!(dsts == 64 || words.iter().all(|w| w >> dsts == 0), "block {}", b);
            }
            let mut col = Vec::new();
            for dst in 0..nn {
                masked_distance_column(&g, &mask, dst, &mut col);
                let words = &blocks[dst as usize / 64];
                for v in 0..nn {
                    let scalar: Vec<u32> = column_next_hops(&g, &col, v, &mask).map(|(e, _)| e).collect();
                    let bits: Vec<u32> = g.edge_range(v).filter(|&e| words[e as usize] >> (dst % 64) & 1 != 0).collect();
                    prop_assert_eq!(bits, scalar, "{} → {} of {}", v, dst, n);
                }
            }
        }
    }

    #[test]
    fn fault_schedule_validate_names_the_offender(
        n in 2usize..20,
        over in 0u32..40,
        cycle in 0u64..1000,
    ) {
        let bad = n as u32 + over;
        let s = FaultSchedule::new().fail_link_at(cycle, 0, bad);
        let err = s.validate(n).unwrap_err().to_string();
        prop_assert!(err.contains(&format!("cycle {cycle}")), "{err}");
        prop_assert!(err.contains(&format!("(0, {bad})")), "{err}");
        let s = FaultSchedule::new().recover_router_at(cycle, bad);
        let err = s.validate(n).unwrap_err().to_string();
        prop_assert!(err.contains(&format!("router {bad}")), "{err}");
        prop_assert!(err.contains("recover"), "{err}");
        let ok = FaultSchedule::new().fail_link_at(cycle, 0, n as u32 - 1);
        prop_assert!(ok.validate(n).is_ok());
    }
}
