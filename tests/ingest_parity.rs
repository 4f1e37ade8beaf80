//! Integration: incremental ingest ≡ batch rebuild.
//!
//! The incremental path's core promise is that building an index over N
//! rows, then `ingest`ing M more and `delete`ing some through the engine,
//! answers every query exactly like a one-shot build over the rows that
//! are left. These tests state that as a property over a deterministic
//! pseudo-random DBLP workload and check it for top-k results, facet
//! distributions, posting lists and exact per-term statistics — plus an
//! add/remove round trip on `TermIndex` alone, generation counters,
//! plan-cache keying by mask signature, and the typed stale-index errors.

use kwdb::engine::{
    DeleteKey, IngestRecord, MutableEngine, RelationalConfig, RelationalEngine, SearchRequest,
};
use kwdb::relational::database::dblp_schema;
use kwdb::relational::index::{tuple_key, Posting};
use kwdb::relational::schema::{ColumnType, TableBuilder};
use kwdb::relational::{Database, Row, RowId, TableId, TupleId};
use kwdb_common::index::{TermIndex, TermStats};
use kwdb_common::{FacetSpec, KwdbError, Rng, Value};
use std::collections::BTreeMap;

/// Deterministic workload: every row the test DB will ever hold, in
/// insertion order. FK targets always precede their referrers, so any
/// prefix is FK-closed and the suffix can be ingested incrementally.
fn workload(
    n_conf: usize,
    n_authors: usize,
    n_papers: usize,
    seed: u64,
) -> Vec<(&'static str, Row)> {
    const WORDS: &[&str] = &[
        "keyword",
        "search",
        "database",
        "graph",
        "xml",
        "ranking",
        "index",
        "join",
        "stream",
        "query",
        "top",
        "candidate",
        "network",
        "spark",
        "discover",
    ];
    let mut rng = Rng::seed_from_u64(seed);
    let mut rows: Vec<(&str, Row)> = Vec::new();
    for c in 0..n_conf {
        rows.push((
            "conference",
            vec![
                (c as i64).into(),
                format!("conf{} {}", c, WORDS[rng.gen_index(WORDS.len())]).into(),
                (2000 + (c % 10) as i64).into(),
            ],
        ));
    }
    for a in 0..n_authors {
        rows.push((
            "author",
            vec![
                (a as i64).into(),
                format!("author{} {}", a, WORDS[rng.gen_index(WORDS.len())]).into(),
            ],
        ));
    }
    for p in 0..n_papers {
        let title = format!(
            "{} {} {}",
            WORDS[rng.gen_index(WORDS.len())],
            WORDS[rng.gen_index(WORDS.len())],
            WORDS[rng.gen_index(WORDS.len())]
        );
        rows.push((
            "paper",
            vec![
                (p as i64).into(),
                title.into(),
                (rng.gen_index(n_conf) as i64).into(),
            ],
        ));
        rows.push((
            "write",
            vec![
                (p as i64).into(),
                (rng.gen_index(n_authors) as i64).into(),
                (p as i64).into(),
            ],
        ));
    }
    rows
}

/// One-shot reference: insert everything, batch-build the index.
fn built_in_one_pass(rows: &[(&str, Row)]) -> Database {
    let mut db = Database::new();
    dblp_schema(&mut db).unwrap();
    for (table, row) in rows {
        db.insert(table, row.clone()).unwrap();
    }
    db.build_text_index();
    db
}

/// Incremental path: batch-build over the first `n_base` rows, then ingest
/// the rest through the engine's mutation surface and commit.
fn build_incremental(
    rows: &[(&str, Row)],
    n_base: usize,
    cfg: RelationalConfig,
) -> RelationalEngine {
    let mut db = Database::new();
    dblp_schema(&mut db).unwrap();
    for (table, row) in &rows[..n_base] {
        db.insert(table, row.clone()).unwrap();
    }
    db.build_text_index();
    let engine = RelationalEngine::with_config(db, cfg);
    for (table, row) in &rows[n_base..] {
        engine
            .ingest(IngestRecord::Tuple {
                table: table.to_string(),
                values: row.clone(),
            })
            .unwrap();
    }
    engine.commit().unwrap();
    engine
}

fn queries() -> Vec<SearchRequest> {
    ["keyword search", "graph ranking", "spark database", "xml"]
        .into_iter()
        .map(|q| {
            SearchRequest::new(q)
                .k(10)
                .facet(FacetSpec::terms("conference.name", 100))
        })
        .collect()
}

/// Hits compared by (score, rendered tree): identical trees at identical
/// scores, in identical rank order.
fn hit_key(
    resp: &kwdb::engine::SearchResponse<kwdb::engine::RelationalHit>,
) -> Vec<(String, String)> {
    resp.hits
        .iter()
        .map(|h| (format!("{:.9}", h.score), h.rendered.clone()))
        .collect()
}

#[test]
fn ingest_matches_rebuild() {
    let rows = workload(4, 12, 40, 0xDB1);
    let n_base = rows.len() / 2;
    let ref_engine = RelationalEngine::new(built_in_one_pass(&rows));
    let inc_engine = build_incremental(&rows, n_base, Default::default());
    for req in queries() {
        let a = ref_engine.execute(&req).unwrap();
        let b = inc_engine.execute(&req).unwrap();
        assert_eq!(
            hit_key(&a),
            hit_key(&b),
            "top-k parity broke: query {:?}",
            req.query()
        );
        assert_eq!(
            a.facets,
            b.facets,
            "facet parity broke: query {:?}",
            req.query()
        );
    }
}

/// A term's postings as `(table, primary key, tf)`: row ids differ between
/// a database that deleted rows and one that never held them, primary keys
/// do not.
fn keyed(db: &Database, term: &str) -> Vec<(u32, String, u32)> {
    let ix = db.text_index().unwrap();
    ix.postings(term)
        .iter()
        .map(|p| {
            let t = db.table(p.tuple.table);
            let pk = t.schema.primary_key.unwrap();
            let key = t.get(p.tuple.row, pk).to_string();
            (p.tuple.table.0, key, p.tf)
        })
        .collect()
}

#[test]
fn term_stats_match_rebuild_exactly() {
    let rows = workload(3, 10, 30, 0x57A75);
    // Every fifth row goes, from the batch-built base and the ingested
    // tail alike: postings are removed from the middle of their lists.
    let gone = |i: usize| i % 5 == 2;
    let kept: Vec<(&str, Row)> = (rows.iter().enumerate())
        .filter(|&(i, _)| !gone(i))
        .map(|(_, r)| r.clone())
        .collect();
    let reference = built_in_one_pass(&kept);
    let engine = build_incremental(&rows, rows.len() / 3, Default::default());
    for (_, (table, row)) in rows.iter().enumerate().filter(|&(i, _)| gone(i)) {
        engine
            .delete(DeleteKey::TuplePk {
                table: table.to_string(),
                pk: row[0].clone(),
            })
            .unwrap();
    }
    let db = engine.database();
    let (ref_ix, inc_ix) = (reference.text_index().unwrap(), db.text_index().unwrap());
    assert_eq!(
        ref_ix.index_stats().postings,
        inc_ix.index_stats().postings,
        "deleted postings are gone, not hidden"
    );
    // A term whose every posting was deleted stays in the dictionary with
    // an empty list; the reference never saw it.
    assert!(ref_ix.terms().all(|t| inc_ix.sym(t).is_some()));
    for term in inc_ix.terms() {
        let a = ref_ix
            .sym(term)
            .map_or(TermStats::default(), |s| ref_ix.term_stats(s));
        let b = inc_ix.term_stats(inc_ix.sym(term).unwrap());
        assert_eq!(a, b, "TermStats diverged for {term:?}");
        assert_eq!(
            keyed(&reference, term),
            keyed(&db, term),
            "posting lists diverged for {term:?}"
        );
    }
}

/// One posting per tuple: a term in several text columns of one tuple is a
/// single posting whose `tf` sums the columns, the same after a batch build
/// and after `ingest`.
#[test]
fn a_term_in_several_columns_is_one_posting_with_the_summed_tf() {
    const WORDS: &[&str] = &["ibm", "thinkpad", "laptop", "business", "apple"];
    let mut rng = Rng::seed_from_u64(0xC015);
    let text = |rng: &mut Rng| {
        let words: Vec<&str> = (0..rng.gen_index(4)).map(|_| *rng.choose(WORDS)).collect();
        words.join(" ")
    };
    let mut rows: Vec<Row> = (0..40)
        .map(|id| {
            let (name, brand, description) = (text(&mut rng), text(&mut rng), text(&mut rng));
            vec![
                id.into(),
                name.into(),
                brand.into(),
                500.into(),
                description.into(),
            ]
        })
        .collect();
    rows.push(vec![
        40.into(),
        "ibm thinkpad".into(),
        "ibm".into(),
        900.into(),
        "ibm business laptop".into(),
    ]);
    let products = |rows: &[Row]| {
        let mut db = Database::new();
        db.create_table(
            TableBuilder::new("product")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("brand", ColumnType::Text)
                .column("price", ColumnType::Int)
                .column("description", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        for row in rows {
            db.insert("product", row.clone()).unwrap();
        }
        db.build_text_index();
        db
    };
    let batch = products(&rows);
    let mut ingested = products(&rows[..20]);
    for row in &rows[20..] {
        ingested.ingest("product", row.clone()).unwrap();
    }
    let ix = batch.text_index().unwrap();
    for term in WORDS {
        let postings = ix.postings(term);
        assert_eq!(postings, ingested.text_index().unwrap().postings(term));
        assert!(
            postings
                .iter()
                .zip(postings.iter().skip(1))
                .all(|(a, b)| a.tuple < b.tuple),
            "{term}: one posting per tuple"
        );
        for p in postings {
            let tf = batch
                .tuple_tokens(p.tuple)
                .iter()
                .filter(|t| t == term)
                .count();
            assert_eq!(p.tf as usize, tf, "{term} in {:?}", p.tuple);
        }
    }
    let last = TupleId::new(TableId(0), RowId(40));
    let ibm: Vec<Posting> = ix
        .postings("ibm")
        .iter()
        .filter(|p| p.tuple == last)
        .collect();
    assert_eq!(ibm, [Posting { tuple: last, tf: 3 }]);
}

#[test]
fn deletes_match_a_database_never_holding_the_rows() {
    let rows = workload(3, 10, 24, 0xDE1);
    // Reference: a database that never held the last 4 papers (and their
    // write rows — the tail of the workload, which is FK-closed).
    let keep = rows.len() - 8;
    let reference = built_in_one_pass(&rows[..keep]);
    let ref_engine = RelationalEngine::new(reference);

    // Incremental: hold everything, then delete those papers through the
    // engine (write rows first: no cascade).
    let engine = RelationalEngine::new(built_in_one_pass(&rows));
    for (table, row) in rows[keep..].iter().rev() {
        engine
            .delete(DeleteKey::TuplePk {
                table: table.to_string(),
                pk: row[0].clone(),
            })
            .unwrap();
    }
    for req in queries() {
        let a = ref_engine.execute(&req).unwrap();
        let b = engine.execute(&req).unwrap();
        assert_eq!(hit_key(&a), hit_key(&b), "deleted rows leaked into results");
        assert_eq!(a.facets, b.facets, "deleted rows leaked into facet counts");
    }
}

#[test]
fn term_index_add_remove_round_trip() {
    // Property check on the index core alone: pseudo-random adds (repeats
    // coalesce) and document removals against a sorted-coalesced model,
    // every list and its exact stats checked after every step.
    type Model = BTreeMap<String, BTreeMap<(u32, u32), u32>>;
    let mut rng = Rng::seed_from_u64(0x5E9);
    let mut ix: TermIndex<Posting> = TermIndex::new();
    let mut model: Model = BTreeMap::new();
    let posting = |(table, row): (u32, u32), tf| Posting {
        tuple: TupleId::new(TableId(table), RowId(row)),
        tf,
    };
    let check = |ix: &TermIndex<Posting>, model: &Model| {
        for (term, occs) in model {
            let want: Vec<Posting> = occs.iter().map(|(&k, &tf)| posting(k, tf)).collect();
            let sym = ix.sym(term).unwrap();
            assert_eq!(ix.postings(sym), want, "term {term:?}");
            let stats = TermStats {
                df: occs.len() as u64,
                total_tf: occs.values().map(|&tf| tf as u64).sum(),
            };
            assert_eq!(ix.term_stats(sym), stats, "stats of {term:?}");
        }
        let stored: usize = model.values().map(BTreeMap::len).sum();
        assert_eq!(ix.posting_count(), stored);
    };
    let mut removed_total = 0;
    for _ in 0..400 {
        let term = format!("t{}", rng.gen_index(12));
        let doc = (rng.gen_index(3) as u32, rng.gen_index(12) as u32);
        if rng.gen_bool(0.25) {
            let tuple = TupleId::new(TableId(doc.0), RowId(doc.1));
            let removed = ix.remove_key(&term, tuple_key(tuple));
            let gone = model.get_mut(&term).map_or(0, |occs| {
                let before = occs.len();
                occs.retain(|&key, _| key != doc);
                before - occs.len()
            });
            assert_eq!(removed, gone, "removed count");
            removed_total += removed;
        } else {
            ix.add(&term, posting(doc, 1));
            *model.entry(term).or_default().entry(doc).or_default() += 1;
        }
        check(&ix, &model);
    }
    assert!(removed_total > 10, "the removals hit: {removed_total}");
}

#[test]
fn mask_signature_keys_the_plan_cache() {
    let mut rows = workload(3, 8, 20, 0x9E4);
    // Result cache off: every query below must reach the planner.
    let cfg = RelationalConfig {
        result_cache: kwdb_common::CacheConfig::disabled(),
        ..Default::default()
    };
    let engine = build_incremental(&rows, rows.len() - 2, cfg);
    let req = SearchRequest::new("keyword search").k(5);
    let ingest = |table: &'static str, values: Row| {
        engine
            .ingest(IngestRecord::Tuple {
                table: table.into(),
                values,
            })
            .unwrap();
    };
    let rebuilt = |rows: &[(&'static str, Row)]| {
        RelationalEngine::with_config(built_in_one_pass(rows), cfg)
            .execute(&req)
            .unwrap()
    };

    let first = engine.execute(&req).unwrap();
    assert_eq!(first.stats.cache_misses, 1);
    assert_eq!(engine.execute(&req).unwrap().stats.cache_hits, 1);

    // A mutation that leaves the non-empty (table, mask) sets as they were
    // — a tuple matching neither keyword — reuses the plan, on new data.
    let g0 = MutableEngine::generation(&engine);
    rows.push(("author", vec![1000.into(), "nobody in particular".into()]));
    ingest("author", rows.last().unwrap().1.clone());
    assert!(MutableEngine::generation(&engine) > g0);
    let same = engine.execute(&req).unwrap();
    assert_eq!((same.stats.cache_hits, same.stats.cache_misses), (1, 0));
    assert_eq!(hit_key(&same), hit_key(&rebuilt(&rows)));

    // One that makes a new set non-empty — conference names hold a single
    // workload word, so conference^{keyword,search} was empty — replans.
    rows.push((
        "conference",
        vec![1000.into(), "keyword search venue".into(), 2024.into()],
    ));
    ingest("conference", rows.last().unwrap().1.clone());
    let replanned = engine.execute(&req).unwrap();
    assert_eq!(
        (replanned.stats.cache_hits, replanned.stats.cache_misses),
        (0, 1)
    );
    assert_eq!(hit_key(&replanned), hit_key(&rebuilt(&rows)));
    assert_ne!(hit_key(&replanned), hit_key(&same), "the new tuple ranks");
}

#[test]
fn stale_and_unbuilt_indexes_surface_typed_errors() {
    // Never built: typed error, not a panic or empty result.
    let mut db = Database::new();
    dblp_schema(&mut db).unwrap();
    db.insert("author", vec![1.into(), "Widom".into()]).unwrap();
    let engine = RelationalEngine::new(db);
    assert_eq!(
        engine
            .execute(&SearchRequest::new("widom").k(3))
            .unwrap_err(),
        KwdbError::IndexNotBuilt
    );
    // Ingest through the engine requires a built index, too.
    assert!(matches!(
        engine.ingest(IngestRecord::Tuple {
            table: "author".into(),
            values: vec![2.into(), "Ullman".into()],
        }),
        Err(KwdbError::IndexNotBuilt)
    ));

    // Built, then mutated out-of-band (raw insert): stale, with both
    // generations named.
    let mut db = Database::new();
    dblp_schema(&mut db).unwrap();
    db.insert("author", vec![1.into(), "Widom".into()]).unwrap();
    db.build_text_index();
    let indexed = db.generation();
    db.insert("author", vec![2.into(), "Ullman".into()])
        .unwrap();
    let engine = RelationalEngine::new(db);
    match engine.execute(&SearchRequest::new("widom").k(3)) {
        Err(KwdbError::IndexStale {
            indexed: i,
            current,
        }) => {
            assert_eq!(i, indexed);
            assert_eq!(current, indexed + 1);
        }
        other => panic!("expected IndexStale, got {other:?}"),
    }
}

#[test]
fn commit_bumps_the_generation_and_changes_no_answer() {
    let rows = workload(2, 6, 10, 0xC0);
    let engine = build_incremental(&rows, rows.len() - 4, Default::default());
    let before: Vec<_> = queries()
        .iter()
        .map(|req| hit_key(&engine.execute(req).unwrap()))
        .collect();
    let g0 = MutableEngine::generation(&engine);
    let outcome = engine.commit().unwrap();
    assert_eq!(outcome.generation, g0 + 1, "commit is a generation event");
    assert_eq!(outcome.generation, MutableEngine::generation(&engine));
    for (req, want) in queries().iter().zip(&before) {
        let after = engine.execute(req).unwrap();
        assert_eq!(
            after.stats.result_cache_hits, 0,
            "the bump re-keys the cache"
        );
        assert_eq!(&hit_key(&after), want, "commit changed {:?}", req.query());
    }
    // Deleting an unknown pk is a typed per-row error, not state damage.
    let err = engine
        .delete(DeleteKey::TuplePk {
            table: "author".into(),
            pk: Value::from(10_000_i64),
        })
        .unwrap_err();
    assert!(matches!(err, KwdbError::UnknownObject(_)));
    assert_eq!(outcome.generation, MutableEngine::generation(&engine));
}
