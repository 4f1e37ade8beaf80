//! The answer-semantics zoo of tutorial slide 29: run every graph search
//! engine on one database's tuple graph and compare what each considers an
//! answer (experiment E34's interactive sibling).
//!
//! ```sh
//! cargo run --example graph_semantics_zoo
//! ```

use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::graph::graph::{from_database, EdgeWeighting};
use kwdb::graphsearch::{
    approx, blinks::Blinks, community, dpbf::Dpbf, ease, BanksI, BanksII, SearchScratch,
};

fn main() {
    let db = generate_dblp(&DblpConfig {
        n_authors: 60,
        n_papers: 150,
        ..Default::default()
    });
    let (g, _) = from_database(&db, EdgeWeighting::Uniform);
    println!(
        "tuple graph: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    );
    let kws = ["abiteboul", "query"];
    println!("query: {kws:?}\n");

    let unlimited = kwdb::common::Budget::unlimited();
    let mut scratch = SearchScratch::default();
    let dpbf = Dpbf::new(&g);
    let (exact, _, dpbf_work) = dpbf.search_budgeted(&kws, 3, &unlimited, &mut scratch);
    println!(
        "DPBF (exact group Steiner trees), {} states popped:",
        dpbf_work.states_popped
    );
    for t in &exact {
        println!("  {}", t.display(&g));
    }

    let b1 = BanksI::new(&g);
    let (banks1, _, b1_work) = b1.search_budgeted(&kws, 3, &unlimited, &mut scratch);
    println!(
        "\nBANKS I (backward search), {} nodes expanded:",
        b1_work.nodes_expanded
    );
    for t in &banks1 {
        println!("  {}", t.display(&g));
    }

    let mut b2 = BanksII::new(&g);
    let banks2 = b2.search(&kws, 3);
    println!(
        "\nBANKS II (activation), {} nodes expanded:",
        b2.nodes_expanded
    );
    for t in &banks2 {
        println!("  {}", t.display(&g));
    }

    let bl = Blinks::new(&g);
    let (blinks, _, bl_work) = bl.search_budgeted(&kws, 3, &unlimited, &mut scratch);
    println!(
        "\nBLINKS (distinct root + TA), {} sorted / {} random accesses:",
        bl_work.sorted_accesses, bl_work.random_accesses
    );
    for t in &blinks {
        println!("  {}", t.display(&g));
    }

    if let Some(t) = approx::spt_heuristic(&g, &kws) {
        println!(
            "\nSPT heuristic (≤{}× optimal): {}",
            approx::approximation_factor(kws.len()),
            t.display(&g)
        );
    }

    let communities = community::search(&g, &kws, 3.0, 3);
    println!("\ndistinct-core communities (Dmax = 3):");
    for c in &communities {
        println!(
            "  core {:?} via center {} (cost {})",
            c.core, c.center.0, c.cost
        );
    }

    let subgraphs = ease::search(&g, &kws, 2, 3);
    println!("\nEASE r-radius Steiner subgraphs (r = 2):");
    for s in &subgraphs {
        println!(
            "  center {} — {} nodes, {} edges, score {:.3}",
            s.center.0,
            s.nodes.len(),
            s.edges.len(),
            s.score
        );
    }
}
