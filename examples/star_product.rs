//! The star product, step by step — reproducing the paper's worked
//! examples: Fig. 2 (L₃ × C₄ vs L₃ * C₄) and Fig. 5 (ER₃ * Paley(5)).

use polarstar_repro::graph::{traversal, Graph};
use polarstar_repro::topo::er::ErGraph;
use polarstar_repro::topo::paley::paley_supernode;
use polarstar_repro::topo::star::StarProduct;
use polarstar_repro::topo::supernode::Supernode;

fn main() {
    // Fig. 2a: the Cartesian product L3 × C4 — the identity on every arc.
    let l3 = Graph::path(3);
    let c4 = Supernode::new("C4", Graph::cycle(4), vec![0, 1, 2, 3]).unwrap();
    let cart = StarProduct::new(&l3, &[], &c4).graph();
    println!(
        "L3 × C4:  {} vertices, {} edges, diameter {}",
        cart.n(),
        cart.m(),
        traversal::diameter(&cart).unwrap()
    );

    // Fig. 2b: the star product with f = (01)(2)(3) on every arc.
    let c4 = Supernode::new("C4", Graph::cycle(4), vec![1, 0, 2, 3]).unwrap();
    let star = StarProduct::new(&l3, &[], &c4).graph();
    println!(
        "L3 * C4:  {} vertices, {} edges, diameter {}",
        star.n(),
        star.m(),
        traversal::diameter(&star).unwrap()
    );

    // Fig. 5: ER_3 * Paley(5) — the PolarStar construction in miniature.
    let er = ErGraph::new(3).unwrap();
    println!(
        "\nER_3: {} vertices ({} quadric, shown red in Fig. 5), degree ≤ {}",
        er.order(),
        er.quadric_vertices().len(),
        er.graph.max_degree()
    );
    let paley5 = paley_supernode(5).unwrap();
    println!(
        "Paley(5): {} vertices, degree {}",
        paley5.order(),
        paley5.degree()
    );

    let product = StarProduct::new(&er.graph, &er.quadric, &paley5).graph();
    let diam = traversal::diameter(&product).unwrap();
    println!(
        "ER_3 * Paley(5): {} vertices, {} edges, diameter {diam}",
        product.n(),
        product.m()
    );
    assert_eq!(product.n(), 13 * 5);
    assert!(
        diam <= 3,
        "Theorem 5: structure diameter 2 + R1 supernode ⇒ ≤ 3"
    );

    // The quadric supernodes carry the extra f-matching edges (Fig. 5c).
    let quadric = er.quadric_vertices()[0] as usize;
    let non_quadric = (0..er.order()).find(|&v| !er.quadric[v]).unwrap();
    let count_internal = |x: usize| {
        product
            .edges()
            .filter(|&(u, v)| u as usize / 5 == x && v as usize / 5 == x)
            .count()
    };
    println!(
        "supernode-internal edges: quadric copy {} vs non-quadric copy {}",
        count_internal(quadric),
        count_internal(non_quadric)
    );
}
