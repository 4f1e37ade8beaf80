//! Integration: the row-id-join CN evaluator ≡ the hash-join reference.
//!
//! `pexec::evaluate_cn_pooled` joins along the database's FK index, which
//! resolved every foreign key to a row id in both directions;
//! `eval::evaluate_cn` + `relational::join::hash_join` is the independent
//! by-value reference. On
//! a seeded DBLP that has been through everything that can move a join
//! partner — ingests, 5 % deletes, a delete followed by a re-ingest of the
//! same primary key, NULL foreign keys, and a dangling foreign key left by
//! a raw `insert` — the two must return the same result set on **every**
//! generated CN, before and after a `commit` and a rebuild. The FK index
//! itself is checked against by-value models — `scan_eq` for the
//! referencing rows of a row, `lookup_pk` for the row a referencing row
//! points at — maintained and rebuilt, and once more on a table created
//! after the build. `explore::object_summary`, which walks
//! the same index, is checked against its by-value, scanning definition.

use kwdb::common::Value;
use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::explore::object_summary;
use kwdb::relational::{Database, ExecStats, RowId, TableId, TupleId};
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
fn mutated() -> Database {
    let mut db = generate_dblp(&DblpConfig {
        n_papers: N_PAPERS as usize,
        n_authors: N_AUTHORS as usize,
        seed: 0x101dec,
        ..Default::default()
    });
    // Raw inserts: NULL foreign keys, and references to a paper that is not
    // there. They join nothing.
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
    db.build_text_index();

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

/// Every (edge, live referenced row): the reverse direction of the FK index
/// against a scan of the referencing table for the row's key. Every (edge,
/// live referencing row): the forward direction against `lookup_pk` of the
/// row's FK value — NULL, dangling and deleted targets included, which both
/// resolve to nothing.
fn assert_fk_index_matches_values(db: &Database, what: &str) {
    let mut chained = 0;
    let (mut resolved, mut unresolved) = (0, 0);
    for (ei, e) in db.schema_graph().edges().iter().enumerate() {
        for (rid, row) in db.table(e.from).iter() {
            let by_value = db.table(e.to).lookup_pk(&row[e.fk_column]);
            assert_eq!(
                db.referenced_row(ei, rid),
                by_value,
                "{what}: edge {ei}, referencing {rid:?}"
            );
            match by_value {
                Some(_) => resolved += 1,
                None => unresolved += 1,
            }
        }
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
    assert_eq!(resolved, chained, "{what}: the two directions disagree");
    assert!(unresolved >= 2, "{what}: no NULL or partnerless reference");
}

/// Every generated CN of every query: pooled ≡ plain as result sets.
/// Returns the (schema edge, free node is its referencing end) pairs that
/// CNs with results joined over, and the tables of their keyword nodes.
fn compare_evaluators(db: &Database, what: &str) -> (BTreeSet<(usize, bool)>, BTreeSet<TableId>) {
    let queries: [&[&str]; 4] = [
        &["data", "query"],
        &["ingrid", "search"],
        &["reborn", "data"],
        &["late", "ingrid", "keyword"],
    ];
    let mut schema_edges_joined = BTreeSet::new();
    let mut keyword_tables = BTreeSet::new();
    let mut results = 0;
    for keywords in queries {
        let ts = TupleSets::build(db, keywords).unwrap();
        let oracle = MaskOracle::from_tuplesets(&ts);
        let cns = CnGenerator::new(db.schema_graph(), &oracle, CnGenConfig::default()).generate();
        assert!(!cns.is_empty(), "{what}: {keywords:?} generates no CN");
        let mut scratch = EvalScratch::new();
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
                keyword_tables.extend(cn.nodes.iter().filter(|n| n.mask != 0).map(|n| n.table));
            }
            results += plain.len();
        }
    }
    assert!(results > 1_000, "{what}: only {results} results compared");
    (schema_edges_joined, keyword_tables)
}

fn assert_evaluators_agree(db: &Database, what: &str) {
    let (schema_edges_joined, _) = compare_evaluators(db, what);
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
    let mut db = mutated();
    for stage in ["ingested", "committed", "rebuilt"] {
        match stage {
            "committed" => db.commit_index(),
            // built once over the same rows: the same index and answers
            "rebuilt" => db.build_text_index(),
            _ => {}
        }
        assert_fk_index_matches_values(&db, stage);
        assert_evaluators_agree(&db, stage);
    }
}

#[test]
fn the_mutations_move_join_partners_as_values_say() {
    let db = mutated();
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

    // The same moves, forward. Raw-inserted rows are the last of the seed:
    // write 8000 (NULL aid), paper 8001 (NULL cid), write 8002 and cite 8003
    // (dangling until the late paper came).
    let row = |table, pk: i64| db.table(table).lookup_pk(&pk.into()).expect("live row");
    let late = row(paper, LATE_PAPER);
    assert_eq!(
        db.referenced_row(edge(write, author, 0), row(write, 8_000)),
        None
    );
    assert_eq!(
        db.referenced_row(edge(write, paper, 0), row(write, 8_002)),
        Some(late)
    );
    assert_eq!(
        db.referenced_row(edge(cite, paper, 0), row(cite, 8_003)),
        Some(late)
    );
    // paper 20 was deleted and stays dead; paper 40 was deleted and reborn
    let reborn = row(paper, 40);
    let (mut to_dead, mut to_reborn) = (0, 0);
    for (w, values) in db.table(write).iter() {
        let target = db.referenced_row(edge(write, paper, 0), w);
        if values[2] == 20.into() {
            assert_eq!(target, None, "a tombstoned target");
            to_dead += 1;
        }
        if values[2] == 40.into() {
            assert_eq!(target, Some(reborn), "the row that took the key over");
            to_reborn += 1;
        }
    }
    assert!(to_dead >= 1 && to_reborn >= 1, "{to_dead} / {to_reborn}");
}

/// `object_summary` as it was before it read the FK index: outgoing hops by
/// `lookup_pk` of the FK value, incoming hops by a scan of the referencing
/// table, which is where "referencing rows in row order" comes from.
fn object_summary_by_value(db: &Database, seeds: &[TupleId], l: usize) -> Vec<TupleId> {
    let mut out: Vec<TupleId> = Vec::new();
    let mut frontier = std::collections::VecDeque::new();
    let visit = |t: TupleId, out: &mut Vec<TupleId>| {
        let new = out.len() < l && !out.contains(&t);
        if new {
            out.push(t);
        }
        new
    };
    for &t in seeds {
        if visit(t, &mut out) {
            frontier.push_back(t);
        }
    }
    while let Some(t) = frontier.pop_front() {
        let mut hop = db.fk_neighbors(t);
        for e in db.schema_graph().edges().iter().filter(|e| e.to == t.table) {
            let pk = db.table(t.table).get(t.row, e.pk_column);
            let referencing = db.scan_eq(e.from, e.fk_column, pk);
            hop.extend(referencing.into_iter().map(|r| TupleId::new(e.from, r)));
        }
        for n in hop {
            if visit(n, &mut out) {
                frontier.push_back(n);
            }
        }
    }
    out
}

#[test]
fn object_summaries_read_the_index_in_the_order_a_scan_would() {
    // Ingested rows sit at the head of their chains, so the index hands
    // referencing rows back newest first; the summary promises row order.
    let db = mutated();
    let mut unsorted_chains = 0;
    for (ei, e) in db.schema_graph().edges().iter().enumerate() {
        for (rid, _) in db.table(e.to).iter() {
            let chain: Vec<RowId> = db.referencing_rows(ei, rid).collect();
            unsorted_chains += usize::from(chain.windows(2).any(|w| w[0] > w[1]));
        }
    }
    assert!(
        unsorted_chains > 10,
        "only {unsorted_chains} chains out of row order"
    );
    let mut compared = 0;
    for t in db.tables() {
        let rows: Vec<RowId> = t.iter().map(|(rid, _)| rid).collect();
        // the oldest rows, and the ingested and reborn ones at the end
        for &rid in rows.iter().step_by(9).chain(rows.iter().rev().take(12)) {
            let seed = TupleId::new(t.id, rid);
            for l in [1, 4, 15, 60] {
                let summary = object_summary(&db, &[seed], l);
                assert_eq!(
                    summary,
                    object_summary_by_value(&db, &[seed], l),
                    "seed {seed:?}, l = {l}"
                );
                compared += summary.len();
            }
        }
    }
    assert!(compared > 5_000, "only {compared} summary tuples compared");
    // several seeds, one of them twice
    let paper = db.table_id("paper").unwrap();
    let author = db.table_id("author").unwrap();
    let seeds = [
        TupleId::new(paper, db.table(paper).lookup_pk(&40.into()).unwrap()),
        TupleId::new(author, db.table(author).lookup_pk(&7.into()).unwrap()),
        TupleId::new(paper, db.table(paper).lookup_pk(&40.into()).unwrap()),
        TupleId::new(
            paper,
            db.table(paper).lookup_pk(&LATE_PAPER.into()).unwrap(),
        ),
    ];
    assert_eq!(
        object_summary(&db, &seeds, 30),
        object_summary_by_value(&db, &seeds, 30)
    );
}

#[test]
fn a_table_created_after_the_build_is_indexed_in_both_directions() {
    use kwdb::relational::{ColumnType, TableBuilder};
    let mut db = mutated();
    db.create_table(
        TableBuilder::new("note")
            .column("nid", ColumnType::Int)
            .column("pid", ColumnType::Int)
            .column("body", ColumnType::Text)
            .primary_key("nid")
            .foreign_key("pid", "paper"),
    )
    .unwrap();
    assert!(db.is_index_fresh());
    for (nid, pid) in [(1, 40.into()), (2, LATE_PAPER.into()), (3, Value::Null)] {
        db.ingest("note", vec![nid.into(), pid, "ingrid note".into()])
            .unwrap();
    }
    // its target dies, and comes back under the same key in a new slot
    db.delete("paper", &40.into()).unwrap();
    assert_fk_index_matches_values(&db, "note/deleted");
    db.ingest(
        "paper",
        vec![40.into(), "data query reborn twice".into(), 1.into()],
    )
    .unwrap();
    assert_fk_index_matches_values(&db, "note/reborn");
    let (note, paper) = (db.table_id("note").unwrap(), db.table_id("paper").unwrap());
    let edges = db.schema_graph().edges();
    let np = edges.iter().position(|e| e.from == note).unwrap();
    let targets: Vec<Option<RowId>> = (0..3).map(|n| db.referenced_row(np, RowId(n))).collect();
    let live = |pk: i64| db.table(paper).lookup_pk(&pk.into());
    assert_eq!(targets, vec![live(40), live(LATE_PAPER), None]);
    // `note` has one foreign key, so it is never a free node; as a keyword
    // node it is the referencing side the tuple set probes from
    let (_, keyword_tables) = compare_evaluators(&db, "note");
    assert!(keyword_tables.contains(&note));
}
