//! Integration: incremental ingest ≡ batch rebuild.
//!
//! The generational architecture's core promise is that the *incremental*
//! path — build an index over N rows, then `ingest` M more through the
//! engine and `commit` — answers every query exactly like a one-shot
//! build over all N+M rows. These tests state that as a property over a
//! deterministic pseudo-random DBLP workload and check it for top-k
//! results, facet distributions, and per-term statistics — plus the
//! seal/merge round-trip
//! on `SegmentedIndex` alone, tombstone visibility, generation counters,
//! plan-cache keying by mask signature, and the typed stale-index errors.

use kwdb::engine::{
    DeleteKey, IngestRecord, MutableEngine, RelationalConfig, RelationalEngine, SearchRequest,
};
use kwdb::relational::database::dblp_schema;
use kwdb::relational::{Database, Row};
use kwdb_common::index::SegmentedIndex;
use kwdb_common::{FacetSpec, KwdbError, Rng, Value};
use kwdb_graph::NodeId;
use std::collections::{BTreeMap, BTreeSet};

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
fn ingest_matches_rebuild_across_layouts_and_workers() {
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

#[test]
fn term_stats_match_rebuild_exactly() {
    let rows = workload(3, 10, 30, 0x57A75);
    let reference = built_in_one_pass(&rows);
    let engine = build_incremental(&rows, rows.len() / 3, Default::default());
    let db = engine.database();
    let (ref_ix, inc_ix) = (reference.text_index().unwrap(), db.text_index().unwrap());
    assert_eq!(ref_ix.term_count(), inc_ix.term_count());
    for term in ref_ix.terms() {
        let (a, b) = (
            ref_ix.term_stats(ref_ix.sym(term).unwrap()),
            inc_ix.term_stats(inc_ix.sym(term).unwrap()),
        );
        assert_eq!(a, b, "TermStats diverged for {term:?}");
        assert_eq!(
            ref_ix.postings(term).to_vec(),
            inc_ix.postings(term).to_vec(),
            "posting lists diverged for {term:?}"
        );
    }
}

#[test]
fn delete_then_merge_matches_a_database_never_holding_the_rows() {
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
        assert_eq!(hit_key(&a), hit_key(&b), "tombstones leaked into results");
        assert_eq!(a.facets, b.facets, "tombstones leaked into facet counts");
    }
    // Merge compaction purges tombstones without changing any answer.
    engine.merge().unwrap();
    for req in queries() {
        assert_eq!(
            hit_key(&ref_engine.execute(&req).unwrap()),
            hit_key(&engine.execute(&req).unwrap()),
            "merge changed results"
        );
    }
    let segs = engine.segment_counts();
    assert!(segs.sealed <= 1, "merge leaves at most one sealed segment");
}

#[test]
fn segmented_index_seal_merge_round_trip() {
    // Property check on the index core alone: pseudo-random adds, deletes,
    // commits, merges — the visible postings always equal the model.
    let mut rng = Rng::seed_from_u64(0x5E9);
    let mut ix: SegmentedIndex<NodeId> = SegmentedIndex::new();
    let mut model: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    let mut dead: BTreeSet<u32> = BTreeSet::new();
    let check = |ix: &SegmentedIndex<NodeId>,
                 model: &BTreeMap<String, BTreeSet<u32>>,
                 dead: &BTreeSet<u32>| {
        for (term, ids) in model {
            let want: Vec<NodeId> = ids
                .iter()
                .filter(|id| !dead.contains(id))
                .map(|&id| NodeId(id))
                .collect();
            assert_eq!(ix.postings_str(term).to_vec(), want, "term {term:?}");
        }
    };
    for round in 0..200u32 {
        let term = format!("t{}", rng.gen_index(12));
        let id = rng.gen_index(64) as u32;
        // The engines' contract: a (term, key) pair is added at most once
        // while live (tuple ids / node ids are never reused), and a
        // tombstoned key is never resurrected before the purging merge.
        if !dead.contains(&id) && !model.get(&term).is_some_and(|ids| ids.contains(&id)) {
            ix.add(&term, NodeId(id));
            model.entry(term).or_default().insert(id);
        }
        if rng.gen_bool(0.15) {
            let victim = rng.gen_index(64) as u32;
            ix.delete_key(victim as u64);
            dead.insert(victim);
        }
        if rng.gen_bool(0.2) {
            ix.commit();
        }
        if rng.gen_bool(0.05) {
            let before = ix.merges();
            ix.merge();
            assert!(ix.merges() >= before, "merge counter is monotonic");
            assert!(ix.segment_counts().sealed <= 1, "merge fully compacts");
            assert!(ix.tombstones().is_empty(), "merge clears tombstones");
            // Deleted keys are physically gone; resurrect them in the model.
            for (term, ids) in &mut model {
                ids.retain(|id| !dead.contains(id));
                let _ = term;
            }
            dead.clear();
        }
        if round % 10 == 0 {
            check(&ix, &model, &dead);
        }
    }
    check(&ix, &model, &dead);
    // After a final merge, per-term stats are exact again.
    ix.merge();
    for (term, ids) in &model {
        let live = ids.iter().filter(|id| !dead.contains(id)).count() as u64;
        if let Some(sym) = ix.sym(term) {
            assert_eq!(
                ix.term_stats(sym).df,
                live,
                "df exact after merge: {term:?}"
            );
        } else {
            assert_eq!(live, 0);
        }
    }
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
fn commit_reports_generation_and_segments() {
    let rows = workload(2, 6, 10, 0xC0);
    let engine = build_incremental(&rows, rows.len() - 4, Default::default());
    let outcome = engine.commit().unwrap();
    assert_eq!(outcome.generation, MutableEngine::generation(&engine));
    assert_eq!(outcome.segments.realtime, 0, "commit seals realtime");
    assert!(outcome.segments.sealed >= 1);
    assert_eq!(engine.segment_counts(), outcome.segments);
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
