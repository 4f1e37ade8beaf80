//! Integration: the index-join CN evaluator ≡ the hash-join reference.
//!
//! `pexec::evaluate_cn_pooled` joins into free tuple sets through the
//! primary-key and reverse-FK indexes; `eval::evaluate_cn` +
//! `relational::join::hash_join` is the independent by-value reference. On
//! a seeded DBLP that has been through everything that can move a join
//! partner — ingests, 5 % deletes, a delete followed by a re-ingest of the
//! same primary key, NULL foreign keys, and a dangling foreign key left by
//! a raw `insert` — the two must return the same result set on **every**
//! generated CN, for both posting layouts, before and after `commit` and
//! `merge`. The reverse-FK index itself is checked against a `scan_eq`
//! model, maintained and rebuilt.

use kwdb::common::index::Layout;
use kwdb::common::Value;
use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::relational::{Database, ExecStats, RowId};
use kwdb::relsearch::cn::{CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::eval::evaluate_cn;
use kwdb::relsearch::pexec::{evaluate_cn_pooled, EvalScratch};
use kwdb::relsearch::TupleSets;
use std::collections::BTreeSet;

const N_PAPERS: i64 = 160;
const N_AUTHORS: i64 = 50;
/// A paper that does not exist until the very end.
const LATE_PAPER: i64 = 9_000;

/// The seeded database after every kind of mutation, index fresh.
fn mutated(layout: Layout) -> Database {
    let mut db = generate_dblp(&DblpConfig {
        n_papers: N_PAPERS as usize,
        n_authors: N_AUTHORS as usize,
        seed: 0x101dec,
        ..Default::default()
    });
    // Raw inserts: NULL foreign keys, and references to a paper that is not
    // there. They join nothing. The rebuild picks the layout.
    db.insert("write", vec![8_000.into(), Value::Null, 3.into()])
        .unwrap();
    db.insert(
        "paper",
        vec![8_001.into(), "data orphan".into(), Value::Null],
    )
    .unwrap();
    db.insert("write", vec![8_002.into(), 1.into(), LATE_PAPER.into()])
        .unwrap();
    db.insert("cite", vec![8_003.into(), LATE_PAPER.into(), 2.into()])
        .unwrap();
    db.build_text_index_with(layout);

    // Ingests, each reachable from older rows in both cite orientations.
    for i in 0..20 {
        let pid = 1_000 + i;
        db.ingest("author", vec![pid.into(), format!("ingrid data{i}").into()])
            .unwrap();
        let title = format!("query data keyword search {i}");
        db.ingest("paper", vec![pid.into(), title.into(), (i % 10).into()])
            .unwrap();
        db.ingest("write", vec![pid.into(), pid.into(), pid.into()])
            .unwrap();
        db.ingest(
            "write",
            vec![(2_000 + i).into(), (i % N_AUTHORS).into(), pid.into()],
        )
        .unwrap();
        db.ingest(
            "cite",
            vec![pid.into(), pid.into(), (i * 7 % N_PAPERS).into()],
        )
        .unwrap();
        db.ingest(
            "cite",
            vec![(2_000 + i).into(), (i * 5 % N_PAPERS).into(), pid.into()],
        )
        .unwrap();
    }
    // 5 % deletes, on both sides of the foreign keys.
    for pid in (0..N_PAPERS).step_by(20) {
        db.delete("paper", &pid.into()).unwrap();
    }
    for wid in (0..200).step_by(20) {
        db.delete("write", &wid.into()).unwrap();
    }
    db.delete("author", &7.into()).unwrap();
    // Re-ingest primary keys deleted above: their referencing rows join
    // again, now to the new rows.
    db.ingest(
        "paper",
        vec![40.into(), "data query reborn".into(), 1.into()],
    )
    .unwrap();
    db.ingest("author", vec![7.into(), "ingrid reborn".into()])
        .unwrap();
    // The paper the dangling write and cite were waiting for.
    db.ingest(
        "paper",
        vec![LATE_PAPER.into(), "late data search".into(), 2.into()],
    )
    .unwrap();
    db
}

/// Every (edge, live referenced row): the reverse-FK index against a scan
/// of the referencing table for the row's key.
fn assert_reverse_index_matches_scan(db: &Database, what: &str) {
    let mut chained = 0;
    for (ei, e) in db.schema_graph().edges().iter().enumerate() {
        for (rid, row) in db.table(e.to).iter() {
            let indexed: BTreeSet<RowId> = db.referencing_rows(ei, rid).collect();
            let scanned: BTreeSet<RowId> = db
                .scan_eq(e.from, e.fk_column, &row[e.pk_column])
                .into_iter()
                .collect();
            assert_eq!(indexed, scanned, "{what}: edge {ei}, referenced {rid:?}");
            chained += indexed.len();
        }
    }
    assert!(chained > 500, "{what}: only {chained} references checked");
}

/// Every generated CN of every query: pooled ≡ plain as result sets.
fn assert_evaluators_agree(db: &Database, what: &str) {
    let queries: [&[&str]; 4] = [
        &["data", "query"],
        &["ingrid", "search"],
        &["reborn", "data"],
        &["late", "ingrid", "keyword"],
    ];
    let mut schema_edges_joined = BTreeSet::new();
    let mut results = 0;
    for keywords in queries {
        let ts = TupleSets::build(db, keywords).unwrap();
        let oracle = MaskOracle::from_tuplesets(&ts);
        let cns = CnGenerator::new(db.schema_graph(), &oracle, CnGenConfig::default()).generate();
        assert!(!cns.is_empty(), "{what}: {keywords:?} generates no CN");
        let mut scratch = EvalScratch::new();
        scratch.begin_query();
        for cn in &cns {
            let stats = ExecStats::new();
            let mut plain = evaluate_cn(db, cn, &ts, &stats);
            let mut pooled = evaluate_cn_pooled(db, cn, &ts, &mut scratch, &stats);
            plain.sort();
            pooled.sort();
            assert_eq!(
                plain,
                pooled,
                "{what}: {keywords:?}, CN {}",
                cn.display(db, keywords)
            );
            if !plain.is_empty() {
                // (edge, which end is a free node): both orientations of
                // both `cite` edges must come up with results to compare.
                for e in &cn.edges {
                    for end in [e.a, e.b] {
                        if cn.nodes[end].mask == 0 {
                            schema_edges_joined.insert((e.schema_edge, e.from_side_is(end)));
                        }
                    }
                }
            }
            results += plain.len();
        }
    }
    assert!(results > 1_000, "{what}: only {results} results compared");
    let n_edges = db.schema_graph().edges().len();
    assert!(
        (0..n_edges).all(|ei| schema_edges_joined.contains(&(ei, true))),
        "{what}: a referencing free node per schema edge, got {schema_edges_joined:?}"
    );
    let paper = db.table_id("paper").unwrap();
    assert!(
        db.schema_graph()
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.to == paper)
            .all(|(ei, _)| schema_edges_joined.contains(&(ei, false))),
        "{what}: a referenced free paper per edge into it, got {schema_edges_joined:?}"
    );
}

#[test]
fn index_joins_match_hash_joins_through_every_mutation() {
    for layout in [Layout::Plain, Layout::Blocks] {
        let mut db = mutated(layout);
        for stage in ["ingested", "committed", "merged", "rebuilt"] {
            match stage {
                "committed" => drop(db.commit_index()),
                "merged" => drop(db.merge_index()),
                // built once over the same rows: the same index and answers
                "rebuilt" => db.build_text_index_with(layout),
                _ => {}
            }
            let what = format!("{layout:?}/{stage}");
            assert_reverse_index_matches_scan(&db, &what);
            assert_evaluators_agree(&db, &what);
        }
    }
}

#[test]
fn the_mutations_move_join_partners_as_values_say() {
    let db = mutated(Layout::Plain);
    let (write, cite, paper, author) = (
        db.table_id("write").unwrap(),
        db.table_id("cite").unwrap(),
        db.table_id("paper").unwrap(),
        db.table_id("author").unwrap(),
    );
    let edges = db.schema_graph().edges();
    let edge = |from, to, nth: usize| {
        (0..edges.len())
            .filter(|&ei| edges[ei].from == from && edges[ei].to == to)
            .nth(nth)
            .unwrap()
    };
    let refs = |ei, table, pk: i64| -> usize {
        let row = db.table(table).lookup_pk(&pk.into()).expect("live row");
        db.referencing_rows(ei, row).count()
    };
    // the late paper adopted the dangling write and the dangling citation
    assert_eq!(refs(edge(write, paper, 0), paper, LATE_PAPER), 1);
    assert_eq!(refs(edge(cite, paper, 0), paper, LATE_PAPER), 1);
    // the reborn rows took over what referenced their predecessors
    assert!(refs(edge(write, paper, 0), paper, 40) >= 1);
    assert!(refs(edge(write, author, 0), author, 7) >= 1);
    // a deleted row is not found at all
    assert!(db.table(paper).lookup_pk(&20.into()).is_none());
}
