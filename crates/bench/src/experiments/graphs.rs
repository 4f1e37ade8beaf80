//! Graph keyword-search experiments (E03, E05, E19, E20, E34).

use crate::Report;
use kwdb_datasets::graphs::{generate_graph, GraphConfig};
use kwdb_graph::hub::{HubIndex, HubSelection};
use kwdb_graph::shortest::distance;
use kwdb_graph::{DataGraph, NodeId};
use kwdb_graphsearch::{
    approx, blinks::Blinks, community, ease, BanksI, BanksII, Dpbf, SearchScratch,
};

/// The slide-30 graph, used by E03.
fn slide30() -> DataGraph {
    let mut g = DataGraph::new();
    let a = g.add_node("n", "k1");
    let b = g.add_node("n", "");
    let c = g.add_node("n", "k2");
    let d = g.add_node("n", "k3");
    let e = g.add_node("n", "k1");
    g.add_edge(a, b, 5.0);
    g.add_edge(b, c, 2.0);
    g.add_edge(b, d, 3.0);
    g.add_edge(a, c, 6.0);
    g.add_edge(a, d, 7.0);
    g.add_edge(e, b, 10.0);
    g.add_edge(e, c, 11.0);
    g
}

/// E03 (slide 30): the worked group-Steiner example.
pub fn e03_gst_slide_example() -> Report {
    let g = slide30();
    let kws = ["k1", "k2", "k3"];
    let dpbf = Dpbf::new(&g);
    let results = dpbf.search(&kws, 3);
    let mut rows = Vec::new();
    for (i, t) in results.iter().enumerate() {
        rows.push(format!("top-{}: {}", i + 1, t.display(&g)));
    }
    rows.push(format!(
        "top-1 cost {} — a(b(c,d)) beats the direct a(c,d) at 13; e's matches never used",
        results[0].cost
    ));
    Report {
        id: "e03",
        title: "Group Steiner tree worked example",
        claim: "slide 30: top-1 GST is a(b(c,d)) with cost 10, not a(c,d) with 13",
        rows,
    }
}

/// E05 (slides 113–114): engine comparison on random graphs.
pub fn e05_graph_engines() -> Report {
    let mut rows = vec![format!(
        "{:>7} {:>10} {:>11} {:>11} {:>10} {:>10} {:>10}",
        "nodes", "DPBF-cost", "BANKS1-cost", "BANKS2-cost", "DPBF-work", "B1-work", "B2-work"
    )];
    for n in [500usize, 2000, 8000] {
        let g = generate_graph(&GraphConfig {
            n_nodes: n,
            n_keywords: 3,
            matches_per_keyword: 8,
            seed: 11,
            ..Default::default()
        });
        let kws = ["kw0", "kw1", "kw2"];
        let dpbf = Dpbf::new(&g);
        let unlimited = kwdb_common::Budget::unlimited();
        let mut scratch = SearchScratch::default();
        let (exact, _, dpbf_work) = dpbf.search_budgeted(&kws, 1, &unlimited, &mut scratch);
        let b1 = BanksI::new(&g);
        let (r1, _, b1_work) = b1.search_budgeted(&kws, 1, &unlimited, &mut scratch);
        let mut b2 = BanksII::new(&g);
        let r2 = b2.search(&kws, 1);
        rows.push(format!(
            "{n:>7} {:>10.1} {:>11.1} {:>11.1} {:>10} {:>10} {:>10}",
            exact.first().map(|t| t.cost).unwrap_or(f64::NAN),
            r1.first().map(|t| t.cost).unwrap_or(f64::NAN),
            r2.first().map(|t| t.cost).unwrap_or(f64::NAN),
            dpbf_work.states_popped,
            b1_work.nodes_expanded,
            b2.nodes_expanded
        ));
    }
    rows.push(
        "DPBF is exact; BANKS costs sit at or slightly above it with less bookkeeping".into(),
    );
    Report {
        id: "e05",
        title: "Graph engines: quality vs work",
        claim: "slides 113–114: approximations trade small cost gaps for cheaper expansion",
        rows,
    }
}

/// E19 (slide 122): hub index — exactness and size.
pub fn e19_hub_index() -> Report {
    let g = generate_graph(&GraphConfig {
        n_nodes: 300,
        avg_degree: 3.0,
        seed: 5,
        ..Default::default()
    });
    let n = g.node_count();
    let mut rows = vec![format!(
        "{:>6} {:>10} {:>12} {:>12} {:>8}",
        "hubs", "strategy", "entries", "vs-n²", "exact?"
    )];
    for (n_hubs, strategy, name) in [
        (0usize, HubSelection::HighestDegree, "none"),
        (10, HubSelection::HighestDegree, "degree"),
        (30, HubSelection::HighestDegree, "degree"),
        (30, HubSelection::Strided { stride: 7 }, "strided"),
    ] {
        let ix = HubIndex::build(&g, n_hubs, strategy);
        // verify exactness on a node sample
        let mut exact = true;
        for i in (0..n).step_by(n / 15) {
            for j in (0..n).step_by(n / 15) {
                let (a, b) = (NodeId(i as u32), NodeId(j as u32));
                if ix.distance(a, b) != distance(&g, a, b) {
                    exact = false;
                }
            }
        }
        rows.push(format!(
            "{n_hubs:>6} {name:>10} {:>12} {:>11.1}% {:>8}",
            ix.entry_count(),
            100.0 * ix.entry_count() as f64 / (n * n) as f64,
            exact
        ));
    }
    rows.push("good hubs shrink the stored d* maps while answers stay exact".into());
    Report {
        id: "e19",
        title: "Hub-based distance index",
        claim: "slide 122: d(x,y) = min(d*, d*+dH+d*) is exact with far less than O(V²) space",
        rows,
    }
}

/// E20 (slide 123): BLINKS early termination.
pub fn e20_blinks() -> Report {
    let g = generate_graph(&GraphConfig {
        n_nodes: 4000,
        n_keywords: 2,
        matches_per_keyword: 15,
        seed: 23,
        ..Default::default()
    });
    let kws = ["kw0", "kw1"];
    let bl = Blinks::new(&g);
    let mut rows = vec![format!(
        "{:>3} {:>14} {:>14} {:>12}",
        "k", "sorted-access", "random-access", "banks-work"
    )];
    for k in [1usize, 5, 20] {
        let unlimited = kwdb_common::Budget::unlimited();
        let mut scratch = SearchScratch::default();
        let (res, _, bl_work) = bl.search_budgeted(&kws, k, &unlimited, &mut scratch);
        let banks = BanksI::new(&g);
        let (_, _, banks_work) = banks.search_budgeted(&kws, k, &unlimited, &mut scratch);
        rows.push(format!(
            "{k:>3} {:>14} {:>14} {:>12}",
            bl_work.sorted_accesses, bl_work.random_accesses, banks_work.nodes_expanded
        ));
        assert!(!res.is_empty());
    }
    rows.push("TA stops after a handful of accesses; BANKS expands thousands of nodes".into());
    Report {
        id: "e20",
        title: "BLINKS: node→keyword index + TA",
        claim: "slide 123: precomputed keyword distances let the threshold algorithm stop early",
        rows,
    }
}

/// E34 (slides 29, 31): the answer-semantics zoo on one graph.
pub fn e34_semantics_zoo() -> Report {
    let g = generate_graph(&GraphConfig {
        n_nodes: 400,
        n_keywords: 2,
        matches_per_keyword: 6,
        seed: 31,
        ..Default::default()
    });
    let kws = ["kw0", "kw1"];
    let dpbf = Dpbf::new(&g);
    let steiner = dpbf.search(&kws, 5);
    let droot = Blinks::new(&g).search(&kws, 5);
    let cores = community::search(&g, &kws, 4.0, 50);
    let subgraphs = ease::search(&g, &kws, 3, 5);
    let spt = approx::spt_heuristic(&g, &kws);
    let rows = vec![
        format!(
            "group Steiner trees (DPBF):   {} answers, best cost {:.1}",
            steiner.len(),
            steiner.first().map(|t| t.cost).unwrap_or(f64::NAN)
        ),
        format!(
            "distinct root (BLINKS):       {} answers, best cost {:.1}",
            droot.len(),
            droot.first().map(|t| t.cost).unwrap_or(f64::NAN)
        ),
        format!(
            "distinct core (communities):  {} distinct match combinations",
            cores.len()
        ),
        format!(
            "r-radius Steiner (EASE, r=3): {} subgraphs, best score {:.2}",
            subgraphs.len(),
            subgraphs.first().map(|s| s.score).unwrap_or(f64::NAN)
        ),
        format!(
            "SPT heuristic:                cost {:.1} (≤ {}× optimal)",
            spt.as_ref().map(|t| t.cost).unwrap_or(f64::NAN),
            kws.len()
        ),
        "the taxonomy: trees (exact/approx) vs roots vs cores vs subgraphs".into(),
    ];
    Report {
        id: "e34",
        title: "Answer-semantics zoo",
        claim: "slides 29/31: the semantics differ in granularity — trees, roots, cores, subgraphs",
        rows,
    }
}
