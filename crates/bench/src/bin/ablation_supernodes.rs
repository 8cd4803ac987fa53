//! Ablation: what PolarStar's supernode choice buys. At each radix,
//! compare star products of ER_q with the IQ, Paley, BDF and complete
//! supernodes on scale, diameter and bisection — quantifying §6.2's
//! argument that IQ's 2d'+2 order is the right choice.
//! `--metrics-dir <path>` writes an analytic `RunManifest` JSON per
//! (radix, supernode, d') combination.

use bench::{Cli, RunManifest};
use polarstar_analysis::bisection::bisection_row;
use polarstar_gf::primes::prev_prime_power;
use polarstar_topo::bdf::bdf_supernode;
use polarstar_topo::er::ErGraph;
use polarstar_topo::iq::inductive_quad;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::paley::paley_supernode;
use polarstar_topo::star::StarProduct;
use polarstar_topo::supernode::{complete_supernode, Supernode};

fn supernodes(dprime: usize) -> Vec<(&'static str, Option<Supernode>)> {
    // Infeasible (family, d') combinations are skipped, not errors.
    vec![
        ("InductiveQuad", inductive_quad(dprime).ok()),
        ("Paley", paley_supernode(2 * dprime as u64 + 1).ok()),
        ("BDF", bdf_supernode(dprime).ok()),
        ("Complete", Some(complete_supernode(dprime + 1))),
    ]
}

fn main() {
    let cli = Cli::from_env(&["--metrics-dir"]);
    let dir = cli.metrics_dir();
    println!("radix,supernode,order,diameter,bisection_fraction");
    for radix in [12usize, 16, 20, 24] {
        // Fix d' = 3 or 4 and give the rest of the radix to ER.
        for dprime in [3usize, 4] {
            let q = match prev_prime_power((radix - dprime - 1) as u64) {
                Some(q) => q,
                None => continue,
            };
            let er = match ErGraph::new(q) {
                Ok(er) => er,
                Err(_) => continue,
            };
            for (name, sn) in supernodes(dprime) {
                let sn = match sn {
                    Some(s) => s,
                    None => continue,
                };
                let g = StarProduct::new(&er.graph, &er.quadric, &sn).graph();
                let diam = polarstar_graph::traversal::diameter(&g)
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "-".into());
                let spec = NetworkSpec::uniform(name.to_string(), g, 1);
                let row = bisection_row(&spec, 4, 21);
                println!(
                    "{radix},{name}(d'{dprime}),{},{diam},{:.4}",
                    spec.routers(),
                    row.fraction
                );
                if let Some(dir) = dir {
                    let label = format!("{name}-d{dprime}-r{radix}");
                    let mut m = RunManifest::for_network(&label, &spec);
                    m.push_extra("radix", radix as f64);
                    m.push_extra("dprime", dprime as f64);
                    m.push_extra("bisection_fraction", row.fraction);
                    if let Some(d) = polarstar_graph::traversal::diameter(&spec.graph) {
                        m.push_extra("diameter", d as f64);
                    }
                    let path = m
                        .write(dir, &bench::manifest::file_stem(&label))
                        .expect("write manifest");
                    eprintln!("wrote {}", path.display());
                }
            }
        }
    }
}
