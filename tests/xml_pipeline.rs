//! Integration: the XML stack on generated documents — LCA-family
//! containments, inference, snippets and the axioms, together.

use kwdb::datasets::xmlgen::{
    generate_bib_xml, generate_movies, generate_slca_workload, BibConfig,
};
use kwdb::eval::axioms::{
    check_data_consistency, check_data_monotonicity, check_query_consistency,
    check_query_monotonicity, SlcaEngine,
};
use kwdb::xml::{PathStats, XmlIndex};
use kwdb::xmlsearch::elca::{elca, elca_brute_force};
use kwdb::xmlsearch::slca::{
    multiway_slca, slca_brute_force, slca_indexed_lookup_eager, slca_scan_eager,
};
use kwdb::xmlsearch::{snippet, xreal};

#[test]
fn lca_family_containments_on_generated_bib() {
    let tree = generate_bib_xml(&BibConfig::default());
    let ix = XmlIndex::build(&tree);
    for query in [
        vec!["data", "query"],
        vec!["xml", "widom"],
        vec!["paper", "data"],
    ] {
        let brute_s = slca_brute_force(&tree, &ix, &query);
        let (ile, _) = slca_indexed_lookup_eager(&tree, &ix, &query).unwrap();
        let (scan, _) = slca_scan_eager(&tree, &ix, &query).unwrap();
        let (multi, _) = multiway_slca(&tree, &ix, &query).unwrap();
        assert_eq!(ile, brute_s, "{query:?}");
        assert_eq!(scan, brute_s, "{query:?}");
        assert_eq!(multi, brute_s, "{query:?}");
        let (e, _) = elca(&tree, &ix, &query).unwrap();
        assert_eq!(e, elca_brute_force(&tree, &ix, &query), "{query:?}");
        // SLCA ⊆ ELCA
        for n in &ile {
            assert!(e.contains(n), "SLCA {n:?} missing from ELCA for {query:?}");
        }
    }
}

#[test]
fn slca_work_scales_with_smallest_list() {
    // |S_max| fixed, |S_min| swept: ILE's anchor count tracks |S_min|.
    let mut anchor_counts = Vec::new();
    for n_rare in [5usize, 50, 200] {
        let tree = generate_slca_workload(20, 2000, n_rare, 7);
        let ix = XmlIndex::build(&tree);
        let (_, stats) = slca_indexed_lookup_eager(&tree, &ix, &["common", "rare"]).unwrap();
        assert_eq!(stats.anchors, n_rare, "driver must be the smallest list");
        anchor_counts.push(stats.anchors);
    }
    assert!(anchor_counts.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn xreal_prefers_the_populated_branch() {
    let tree = generate_bib_xml(&BibConfig {
        n_conferences: 6,
        n_journals: 1,
        papers_per_venue: 15,
        ..Default::default()
    });
    let stats = PathStats::build(&tree);
    let ranked = xreal::infer_return_types(&stats, &["data", "query"]);
    assert!(!ranked.is_empty());
    let conf_pos = ranked.iter().position(|t| t.path == "/bib/conf/paper");
    let journal_pos = ranked.iter().position(|t| t.path == "/bib/journal/paper");
    if let (Some(c), Some(j)) = (conf_pos, journal_pos) {
        assert!(c < j, "six conferences of papers must outrank one journal");
    }
}

#[test]
fn snippets_fit_budget_and_witness_keywords() {
    let tree = generate_movies(10, 3);
    let ix = XmlIndex::build(&tree);
    let query = ["shining"];
    let (results, _) = slca_indexed_lookup_eager(&tree, &ix, &query).unwrap();
    assert!(!results.is_empty());
    for &r in &results {
        // snip at the movie level for context
        let root = if tree.label(r) == "movie" {
            r
        } else {
            tree.parent(r).unwrap_or(r)
        };
        let snip = snippet::generate(&tree, root, &query, 6);
        assert!(snip.nodes.len() <= 6);
        assert!(snip.render(&tree).to_lowercase().contains("shining"));
    }
}

#[test]
fn axioms_hold_for_the_slca_engine_on_generated_data() {
    let tree = generate_bib_xml(&BibConfig {
        n_conferences: 2,
        n_journals: 1,
        papers_per_venue: 5,
        ..Default::default()
    });
    let engine = SlcaEngine;
    let q: Vec<String> = vec!["data".into()];
    assert!(check_query_monotonicity(&engine, &tree, &q, "query").is_satisfied());
    assert!(check_query_consistency(&engine, &tree, &q, "query").is_satisfied());
    // pick some paper node to extend
    let paper = tree.iter().find(|&n| tree.label(n) == "paper").unwrap();
    assert!(
        check_data_monotonicity(&engine, &tree, &q, paper, "note", "fresh data").is_satisfied()
    );
    assert!(check_data_consistency(&engine, &tree, &q, paper, "note", "fresh data").is_satisfied());
}

/// The engine scores each SLCA root from the tree's structure (match
/// depths and their LCAs) and renders only the `k` it returns; the hits must
/// be what explicit root-to-match paths scored by
/// `kwdb_rank::proximity::proximity_score` give, bit for bit, however the
/// engine came by its index — including a repeated keyword (its second path
/// is all shared edges), matches at the root itself (zero-length paths),
/// paths that meet below the root, and `k` below the number of roots.
#[test]
fn engine_hits_equal_a_recomputation_from_the_tree() {
    use kwdb::engine::{SearchRequest, XmlEngine};
    use std::sync::Arc;

    let tree = || generate_bib_xml(&BibConfig::default());
    let shared = Arc::new((tree(), XmlIndex::build(&tree())));
    let engines = [
        ("from_tree", XmlEngine::from_tree(tree())),
        ("new", XmlEngine::new(tree(), XmlIndex::build(&tree()))),
        ("from_arc", XmlEngine::from_arc(Arc::clone(&shared))),
    ];
    for (name, engine) in &engines {
        let (tree, ix) = &**engine.data();
        let avg_depth = tree.avg_leaf_depth();
        for query in [
            vec!["data", "query"],
            vec!["xml", "widom"],
            vec!["paper"],
            vec!["data", "data", "query"],
            vec!["paper", "data"],
            // rooted at a conference whose own label matches: the other
            // two keywords' paths meet below the root and share edges
            vec!["conf", "data", "query"],
        ] {
            let mut want: Vec<(kwdb::xml::NodeId, f64, String)> =
                slca_brute_force(tree, ix, &query)
                    .into_iter()
                    .map(|r| {
                        // the subtree walked afresh, not the stored sizes
                        let end = kwdb::xml::NodeId(r.0 + tree.subtree(r).len() as u32);
                        let paths: Vec<Vec<u64>> = query
                            .iter()
                            .filter_map(|kw| {
                                let m = ix.nodes(kw).right_match(r).filter(|&m| m < end)?;
                                let mut path = vec![m.0 as u64];
                                let mut cur = m;
                                while cur != r {
                                    cur = tree.parent(cur).unwrap();
                                    path.push(cur.0 as u64);
                                }
                                path.reverse();
                                Some(path)
                            })
                            .collect();
                        let score = kwdb::rank::proximity::proximity_score(&paths, avg_depth);
                        (r, score, tree.label_path(r))
                    })
                    .collect();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let want: Vec<_> = want
                .into_iter()
                .map(|(r, s, p)| (r, s.to_bits(), p))
                .collect();
            assert!(want.len() > 3, "{name} {query:?}: the query has results");
            for k in [want.len(), 3, 1] {
                let resp = engine
                    .execute(&SearchRequest::new(query.join(" ")).k(k).caching(false))
                    .unwrap();
                let got: Vec<_> = resp
                    .hits
                    .iter()
                    .map(|h| (h.root, h.score.to_bits(), h.label_path.clone()))
                    .collect();
                assert_eq!(got, want[..k], "{name} {query:?} k={k}");
                assert_eq!(
                    resp.stats.candidates_pruned,
                    (want.len() - k) as u64,
                    "{name} {query:?} k={k}"
                );
            }
        }
    }
}

/// Dewey ids are derived from the parent chain on demand; they must be the
/// child-ordinal paths the builder used to assign eagerly, and resolve back.
#[test]
fn derived_dewey_ids_equal_the_builders_assignment() {
    let tree = generate_bib_xml(&BibConfig::default());
    // the eager assignment: a child's id extends its parent's by its ordinal
    let mut assigned = vec![kwdb::xml::Dewey::root(); tree.len()];
    for n in tree.iter() {
        for (ord, &c) in tree.children(n).iter().enumerate() {
            assigned[c.0 as usize] = assigned[n.0 as usize].child(ord as u32);
        }
    }
    for n in tree.iter() {
        let d = tree.dewey(n);
        assert_eq!(d, assigned[n.0 as usize], "{n:?}");
        assert_eq!(d.depth(), tree.depth(n) as usize, "{n:?}");
        assert_eq!(tree.node_at(&d), Some(n), "{n:?}");
    }
}
