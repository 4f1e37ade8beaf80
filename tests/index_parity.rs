//! Index parity: all three substrate indexes live on the shared
//! `kwdb_common::index` core, so (a) the `Sym` fast path must return
//! exactly what the string convenience path returns, and (b) every stored
//! posting list must equal a naive from-scratch recomputation over the raw
//! substrate — term dictionary, sort order, coalescing, and stats included.

use kwdb::common::index::kernels;
use kwdb::common::text::{normalize_term, tokenize};
use kwdb::datasets::graphs::{generate_graph, GraphConfig};
use kwdb::datasets::{generate_bib_xml, generate_dblp, DblpConfig};
use kwdb::graph::shortest::multi_source;
use kwdb::xml::XmlIndex;
use std::collections::BTreeMap;

#[test]
fn relational_index_matches_naive_recomputation() {
    let db = generate_dblp(&DblpConfig {
        n_papers: 120,
        n_authors: 60,
        ..Default::default()
    });
    let ix = db.text_index().expect("index built");

    // Naive reference: term → tuple → tf over all its text columns,
    // straight off the tables.
    type Key = (kwdb::relational::TableId, kwdb::relational::RowId);
    let mut reference: BTreeMap<String, BTreeMap<Key, u32>> = BTreeMap::new();
    for t in db.tables() {
        let text_cols: Vec<usize> = t.schema.text_columns().collect();
        for (rid, row) in t.iter() {
            for &c in &text_cols {
                if let Some(text) = row[c].as_text() {
                    for tok in tokenize(text) {
                        *reference
                            .entry(tok)
                            .or_default()
                            .entry((t.id, rid))
                            .or_insert(0) += 1;
                    }
                }
            }
        }
    }

    assert_eq!(ix.term_count(), reference.len(), "same vocabulary size");
    for (term, occs) in &reference {
        let sym = ix.sym(term).expect("reference term is indexed");
        let postings = ix.postings(term);
        assert_eq!(postings, ix.postings_sym(sym), "string vs Sym parity");
        let got: Vec<(Key, u32)> = postings
            .iter()
            .map(|p| ((p.tuple.table, p.tuple.row), p.tf))
            .collect();
        let want: Vec<(Key, u32)> = occs.iter().map(|(&k, &tf)| (k, tf)).collect();
        assert_eq!(got, want, "postings for {term:?} (sorted + coalesced)");

        // df = tuples = postings; total_tf = total occurrences
        assert_eq!(ix.doc_freq(term), occs.len(), "df for {term:?}");
        assert_eq!(
            ix.term_stats(sym).total_tf,
            occs.values().map(|&tf| tf as u64).sum::<u64>(),
            "total tf for {term:?}"
        );
    }
}

#[test]
fn relational_per_table_slices_match_full_lists() {
    let db = generate_dblp(&DblpConfig::default());
    let ix = db.text_index().expect("index built");
    for term in ix.terms().map(str::to_string).collect::<Vec<_>>() {
        let all = ix.postings(&term);
        let tables: std::collections::BTreeSet<_> = all.iter().map(|p| p.tuple.table).collect();
        let mut reassembled = Vec::new();
        for &t in &tables {
            let slice = ix.postings_in(&term, t);
            assert!(slice.iter().all(|p| p.tuple.table == t));
            assert_eq!(slice, ix.postings_in_sym(ix.sym(&term).unwrap(), t));
            reassembled.extend(slice);
        }
        assert_eq!(all, reassembled, "table slices partition {term:?}");
    }
}

#[test]
fn xml_index_matches_naive_recomputation() {
    let tree = generate_bib_xml(&Default::default());
    let ix = XmlIndex::build(&tree);

    let mut reference: BTreeMap<String, Vec<kwdb::xml::NodeId>> = BTreeMap::new();
    let mut push = |term: String, n| {
        let list = reference.entry(term).or_default();
        if list.last() != Some(&n) {
            list.push(n); // pre-order emits doc order; dedup adjacent
        }
    };
    for n in tree.iter() {
        let label = normalize_term(tree.label(n));
        if !label.is_empty() {
            push(label, n);
        }
        if let Some(text) = tree.text(n) {
            for tok in tokenize(text) {
                push(tok, n);
            }
        }
    }

    assert_eq!(ix.terms().count(), reference.len(), "same vocabulary size");
    for (term, want) in &reference {
        let sym = ix.sym(term).expect("reference term is indexed");
        assert_eq!(ix.nodes(term), ix.nodes_sym(sym), "string vs Sym parity");
        assert_eq!(ix.nodes(term), want.as_slice(), "node list for {term:?}");
        assert!(
            want.windows(2).all(|w| w[0] < w[1]),
            "document order, no duplicates"
        );
    }

    // lm/rm probes through the index equal probes on the reference lists.
    for (term, list) in reference.iter().take(50) {
        let stored = ix.nodes(term);
        for probe in tree.iter().step_by(7) {
            assert_eq!(stored.right_match(probe), kernels::right_match(list, probe));
            assert_eq!(stored.left_match(probe), kernels::left_match(list, probe));
        }
    }
}

#[test]
fn graph_keyword_index_matches_naive_recomputation() {
    let g = generate_graph(&GraphConfig::default());

    let mut reference: BTreeMap<String, Vec<kwdb::graph::NodeId>> = BTreeMap::new();
    for n in g.iter() {
        for term in g.terms(n) {
            let list = reference.entry(term.clone()).or_default();
            if list.last() != Some(&n) {
                list.push(n); // node ids ascend, so insertion order is sorted
            }
        }
    }

    let vocab: std::collections::BTreeSet<&str> = g.vocabulary().collect();
    assert_eq!(
        vocab,
        reference.keys().map(String::as_str).collect(),
        "same vocabulary"
    );
    for (term, want) in &reference {
        let sym = g.keyword_sym(term).expect("reference term is indexed");
        assert_eq!(
            g.keyword_nodes(term),
            g.keyword_nodes_sym(sym),
            "string vs Sym parity"
        );
        assert_eq!(g.keyword_nodes(term), want.as_slice(), "list for {term:?}");
    }
    assert!(g.keyword_sym("definitely-not-a-term").is_none());
}

#[test]
fn node2kw_index_sym_parity_over_full_vocabulary() {
    let g = generate_graph(&GraphConfig::default());
    for kw in g.vocabulary().map(str::to_string).collect::<Vec<_>>() {
        let sym = g.keyword_sym(&kw).expect("vocabulary term is indexed");
        let (list, built) = g.distance_list(sym);
        assert!(built, "no list before its keyword is read");
        let (dist, origin) = multi_source(&g, g.keyword_nodes(&kw), None);
        assert_eq!(list.sorted().len(), dist.len(), "{kw}: reachable nodes");
        for n in g.iter() {
            let want = dist.get(&n).map(|&d| (d.to_bits(), origin[&n]));
            let got = list
                .dist(n)
                .map(|d| (d.to_bits(), list.nearest_match(n).unwrap()));
            assert_eq!(got, want, "{kw} {n:?}");
        }
    }
    assert_eq!(g.distance_list_stats().terms, g.vocabulary().count());
}

#[test]
fn index_stats_consistent_across_substrates() {
    let db = generate_dblp(&DblpConfig::default());
    let tree = generate_bib_xml(&Default::default());
    let xix = XmlIndex::build(&tree);
    let g = generate_graph(&GraphConfig::default());
    for stats in [
        db.text_index().expect("index built").index_stats(),
        xix.index_stats(),
        g.keyword_index_stats(),
    ] {
        assert!(stats.terms > 0);
        assert!(stats.postings >= stats.terms);
        assert!(stats.posting_bytes > 0);
    }
    // batch builds are timed; the graph's incremental index is not
    assert!(db
        .text_index()
        .expect("index built")
        .index_stats()
        .build
        .is_some());
    assert!(xix.index_stats().build.is_some());
    assert!(g.keyword_index_stats().build.is_none());
}
