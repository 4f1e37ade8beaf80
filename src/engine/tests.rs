use super::*;
use kwdb_common::{CacheConfig, KwdbError};
use kwdb_datasets::{generate_dblp, DblpConfig};
use kwdb_relational::database::dblp_schema;
use kwdb_relational::{Database, RowId};
use kwdb_relsearch::pexec::EvalScratch;
use std::time::Duration;

#[test]
fn relational_engine_end_to_end() {
    let db = generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    });
    let engine = RelationalEngine::new(db);
    let resp = engine
        .execute(&SearchRequest::new("data query").k(5))
        .unwrap();
    assert!(!resp.hits.is_empty());
    assert!(!resp.truncated());
    assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));
    assert!(resp.hits[0].rendered.contains('('));
    let db = engine.database();
    for hit in &resp.hits {
        let tuples: Vec<String> = hit.tuples.iter().map(|&t| db.format_tuple(t)).collect();
        assert_eq!(hit.rendered, tuples.join(" ⋈ "));
    }
    assert!(resp.stats.candidates_generated > 0);
    assert_eq!(resp.stats.cache_misses, 1);
    assert!(resp.stats.operators.tuples_scanned > 0);
}

#[test]
fn relational_engine_empty_and_unmatched() {
    let db = generate_dblp(&DblpConfig::default());
    let engine = RelationalEngine::new(db);
    let empty = engine.execute(&SearchRequest::new("").k(5)).unwrap();
    assert!(empty.hits.is_empty() && !empty.truncated());
    let unmatched = engine
        .execute(&SearchRequest::new("zzzzqqq data").k(5))
        .unwrap();
    assert!(unmatched.hits.is_empty() && !unmatched.truncated());
}

#[test]
fn unbounded_k_returns_every_hit_without_sizing_anything_by_k() {
    let db = generate_dblp(&DblpConfig {
        n_papers: 20,
        n_authors: 10,
        ..Default::default()
    });
    let engine = RelationalEngine::new(db);
    let all = |k| {
        let req = SearchRequest::new("data").k(k).caching(false);
        engine.execute(&req).unwrap()
    };
    let (unbounded, bounded) = (all(usize::MAX), all(1_000_000));
    assert!(!bounded.hits.is_empty());
    assert_eq!(hit_key(&unbounded), hit_key(&bounded));
    assert!(!unbounded.truncated());
}

#[test]
fn engine_shares_database_arc() {
    let db = Arc::new(generate_dblp(&DblpConfig {
        n_papers: 40,
        n_authors: 20,
        ..Default::default()
    }));
    let engine = RelationalEngine::new(Arc::clone(&db));
    // the caller keeps full access to the shared database
    assert_eq!(engine.database().table_count(), db.table_count());
    let resp = engine
        .execute(&SearchRequest::new("data query").k(3))
        .unwrap();
    assert!(!resp.hits.is_empty());
}

#[test]
fn engines_over_one_database_share_its_corpus_statistics() {
    use kwdb_common::KwdbError;
    use kwdb_relsearch::ResultScorer;
    let db = Arc::new(generate_dblp(&DblpConfig {
        n_papers: 40,
        n_authors: 20,
        ..Default::default()
    }));
    let (a, b) = (
        RelationalEngine::new(Arc::clone(&db)),
        RelationalEngine::new(Arc::clone(&db)),
    );
    // A per-query scorer reads the index's counts, not the tuples: over a
    // row the index has not seen it is the index's typed error, and a
    // term's weight is the formula over the index's two numbers.
    let mut stale = (*db).clone();
    stale
        .insert("author", vec![9_001.into(), "Raw Row".into()])
        .unwrap();
    assert!(matches!(
        ResultScorer::from_index(&stale),
        Err(KwdbError::IndexStale { .. })
    ));
    let ix = db.text_index().unwrap();
    let per_query = ResultScorer::from_index(&*db).unwrap();
    for term in ix.terms() {
        let want = kwdb_rank::tfidf::idf(ix.doc_count(), ix.postings(term).len());
        assert_eq!(per_query.idf(term).to_bits(), want.to_bits(), "{term}");
    }

    // Every term's idf and the average length, as bits: the same for both
    // engines and equal to a scan's.
    let mut terms: Vec<String> = ix.terms().map(str::to_string).collect();
    terms.extend(["newcomer".to_string(), "nosuchterm".to_string()]);
    let bits = |s: &ResultScorer| -> Vec<u64> {
        let idfs = terms.iter().map(|t| s.idf(t).to_bits());
        idfs.chain([s.avg_len().to_bits()]).collect()
    };
    let of = |e: &RelationalEngine| bits(&ResultScorer::from_index(e.database()).unwrap());
    let scanned = bits(&ResultScorer::new(Arc::clone(&db)));
    assert_eq!(of(&a), of(&b));
    assert_eq!(of(&a), scanned);

    // A mutation through one engine copies on write: that engine weighs
    // with the new counts, the other keeps the old.
    a.ingest_tuple("author", vec![9_000.into(), "Zyx Newcomer".into()])
        .unwrap();
    assert_ne!(of(&a), of(&b));
    assert_eq!(of(&a), bits(&ResultScorer::new(a.database())));
    assert_eq!(of(&b), scanned);
}

#[test]
fn cn_plan_cache_hits_on_repeat() {
    let db = generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    });
    // Result cache off: this test watches the *plan* cache, and a
    // repeat query must reach the planner to exercise it.
    let engine = RelationalEngine::with_config(
        db,
        RelationalConfig {
            result_cache: CacheConfig::disabled(),
            ..Default::default()
        },
    );
    let req = SearchRequest::new("data query").k(3);
    let first = engine.execute(&req).unwrap();
    assert_eq!((first.stats.cache_hits, first.stats.cache_misses), (0, 1));
    let second = engine.execute(&req).unwrap();
    assert_eq!((second.stats.cache_hits, second.stats.cache_misses), (1, 0));
    // keyword order must not defeat the cache
    let third = engine
        .execute(&SearchRequest::new("query data").k(3))
        .unwrap();
    assert_eq!(third.stats.cache_hits, 1);
}

#[test]
fn engines_sharing_a_label_sum_their_eviction_counts() {
    // Two engines under `engine="relational"` on one registry, as a catalog
    // holding two relational databases attaches them, each with one-entry caches:
    // every store but an engine's first evicts, and both eviction counters
    // must read the two engines' sum.
    let registry = Arc::new(kwdb_obs::MetricsRegistry::new());
    let db = Arc::new(generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    }));
    let cfg = RelationalConfig {
        max_cache_entries: 1,
        result_cache: CacheConfig {
            max_entries: 1,
            stripes: 1,
            ..CacheConfig::default()
        },
        ..Default::default()
    };
    let queries = [
        "data",
        "data query",
        "query",
        "xml search",
        "data xml",
        "search",
    ];
    let (mut result_evictions, mut plan_evictions) = (0, 0);
    for _ in 0..2 {
        let engine = RelationalEngine::with_config(Arc::clone(&db), cfg)
            .with_registry(Arc::clone(&registry));
        let (mut stored, mut planned) = (0, 0);
        for q in queries {
            let stats = engine.execute(&SearchRequest::new(q).k(3)).unwrap().stats;
            stored += stats.result_cache_misses;
            planned += stats.cache_misses;
        }
        assert!(
            stored > 2 && planned > 2,
            "each engine evicts from both caches"
        );
        result_evictions += stored - 1;
        plan_evictions += planned - 1;
    }
    let read = |family| registry.counter_value(family, &[("engine", "relational")]);
    use kwdb_obs::families::{PLAN_CACHE_EVICTIONS, RESULT_CACHE_EVICTIONS};
    assert_eq!(read(RESULT_CACHE_EVICTIONS), result_evictions);
    assert_eq!(read(PLAN_CACHE_EVICTIONS), plan_evictions);
}

#[test]
fn graph_search_all_semantics() {
    let g = kwdb_datasets::graphs::generate_graph(&Default::default());
    // Result cache off: the repeat DistinctRoot query below must reach
    // the BLINKS index cache to observe its hit counter.
    let engine = GraphEngine::new(g).with_result_cache(CacheConfig::disabled());
    let run = |sem| {
        engine
            .execute(&SearchRequest::new("kw0 kw1").k(3).semantics(sem))
            .unwrap()
    };
    let exact = run(GraphSemantics::SteinerExact);
    let banks = run(GraphSemantics::Banks);
    let droot = run(GraphSemantics::DistinctRoot);
    assert!(!exact.hits.is_empty());
    assert!(!banks.hits.is_empty());
    assert!(!droot.hits.is_empty());
    assert!(
        banks.hits[0].cost >= exact.hits[0].cost - 1e-9,
        "DPBF is optimal"
    );
    assert!(droot.hits[0].cost >= exact.hits[0].cost - 1e-9);
    // second DistinctRoot query reuses the cached index
    let again = run(GraphSemantics::DistinctRoot);
    assert_eq!(again.stats.cache_hits, 1);
}

#[test]
fn spark_scoring_mode_works() {
    let db = generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    });
    let resp = RelationalEngine::new(db)
        .execute(
            &SearchRequest::new("data query")
                .k(5)
                .scoring(Scoring::Spark),
        )
        .unwrap();
    assert!(!resp.hits.is_empty());
    assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));
}

#[test]
fn xml_search_ranks_small_results_first() {
    let tree = kwdb_datasets::generate_bib_xml(&Default::default());
    let resp = XmlEngine::from_tree(tree)
        .execute(&SearchRequest::new("data query").k(10))
        .unwrap();
    if resp.hits.len() >= 2 {
        assert!(resp.hits[0].score >= resp.hits[1].score);
    }
}

#[test]
fn zero_deadline_truncates_without_panicking() {
    let db = generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    });
    let engine = RelationalEngine::new(db);
    let req = SearchRequest::new("data query")
        .k(5)
        .budget(Budget::unlimited().with_timeout(Duration::ZERO));
    let resp = engine.execute(&req).unwrap();
    assert!(resp.truncated());
    assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));
}

#[test]
fn trait_objects_dispatch_all_engines() {
    let db = generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    });
    let g = kwdb_datasets::graphs::generate_graph(&Default::default());
    let tree = kwdb_datasets::generate_bib_xml(&Default::default());
    let engines: Vec<(&str, Arc<dyn Engine>)> = vec![
        ("relational", Arc::new(RelationalEngine::new(db))),
        ("graph", Arc::new(GraphEngine::new(g))),
        ("xml", Arc::new(XmlEngine::from_tree(tree))),
    ];
    for (kind, engine) in engines {
        let resp = engine
            .execute(&SearchRequest::new("data query").k(3))
            .unwrap();
        for hit in &resp.hits {
            assert_eq!(hit.kind(), kind);
            assert!(hit.score().is_finite());
        }
    }
}

/// A 60-paper DBLP: its conference names are single venue words.
fn dblp() -> Database {
    generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    })
}

/// Hits as (score, rendered tree), in rank order.
fn hit_key(resp: &SearchResponse<RelationalHit>) -> Vec<(String, String)> {
    (resp.hits.iter())
        .map(|h| (format!("{:.9}", h.score), h.rendered.clone()))
        .collect()
}

#[test]
fn mask_signature_keys_the_plan_cache() {
    // Result cache off: every query below must reach the planner.
    let cfg = RelationalConfig {
        result_cache: CacheConfig::disabled(),
        ..Default::default()
    };
    let engine = RelationalEngine::with_config(dblp(), cfg);
    let req = SearchRequest::new("data query").k(5);
    let ingest = |table: &str, values: Row| {
        let record = IngestRecord::Tuple {
            table: table.into(),
            values,
        };
        engine.ingest(record).unwrap();
    };
    // The engine's rows, indexed by one batch build.
    let rebuilt = || {
        let mut db = (*engine.database()).clone();
        db.build_text_index();
        RelationalEngine::with_config(db, cfg)
            .execute(&req)
            .unwrap()
    };

    let first = engine.execute(&req).unwrap();
    assert_eq!(first.stats.cache_misses, 1);
    assert_eq!(engine.execute(&req).unwrap().stats.cache_hits, 1);

    // A mutation that leaves the non-empty (table, mask) sets as they were
    // — a tuple matching neither keyword — reuses the plan, on new data.
    let g0 = MutableEngine::generation(&engine);
    ingest("author", vec![1000.into(), "nobody in particular".into()]);
    assert!(MutableEngine::generation(&engine) > g0);
    let same = engine.execute(&req).unwrap();
    assert_eq!((same.stats.cache_hits, same.stats.cache_misses), (1, 0));
    assert_eq!(hit_key(&same), hit_key(&rebuilt()));

    // One that makes a new set non-empty — conference^{data,query} was
    // empty — replans.
    let venue = vec![1000.into(), "data query venue".into(), 2024.into()];
    ingest("conference", venue);
    let replanned = engine.execute(&req).unwrap();
    let s = &replanned.stats;
    assert_eq!((s.cache_hits, s.cache_misses), (0, 1));
    assert_eq!(hit_key(&replanned), hit_key(&rebuilt()));
    assert_ne!(hit_key(&replanned), hit_key(&same), "the new tuple ranks");
}

#[test]
fn stale_and_unbuilt_indexes_surface_typed_errors() {
    // Never built: typed error, not a panic or empty result.
    let mut db = Database::new();
    dblp_schema(&mut db).unwrap();
    db.insert("author", vec![1.into(), "Widom".into()]).unwrap();
    let engine = RelationalEngine::new(db);
    let widom = SearchRequest::new("widom").k(3);
    assert_eq!(
        engine.execute(&widom).unwrap_err(),
        KwdbError::IndexNotBuilt
    );
    // Ingest through the engine requires a built index, too.
    let record = IngestRecord::Tuple {
        table: "author".into(),
        values: vec![2.into(), "Ullman".into()],
    };
    assert!(matches!(
        engine.ingest(record),
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
    match engine.execute(&widom) {
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
    let engine = RelationalEngine::new(dblp());
    let queries = ["data query", "xml search", "data"].map(|q| {
        SearchRequest::new(q)
            .k(10)
            .facet(FacetSpec::terms("conference.name", 100))
    });
    let before: Vec<_> = (queries.iter())
        .map(|req| hit_key(&engine.execute(req).unwrap()))
        .collect();
    let g0 = MutableEngine::generation(&engine);
    let outcome = engine.commit().unwrap();
    assert_eq!(outcome.generation, g0 + 1, "commit is a generation event");
    assert_eq!(outcome.generation, MutableEngine::generation(&engine));
    for (req, want) in queries.iter().zip(&before) {
        let after = engine.execute(req).unwrap();
        let hits = after.stats.result_cache_hits;
        assert_eq!(hits, 0, "the bump re-keys the cache");
        assert_eq!(&hit_key(&after), want, "commit changed {:?}", req.query());
    }
    // Deleting an unknown pk is a typed per-row error, not state damage.
    let err = (engine.delete(DeleteKey::TuplePk {
        table: "author".into(),
        pk: Value::from(10_000_i64),
    }))
    .unwrap_err();
    assert!(matches!(err, KwdbError::UnknownObject(_)));
    assert_eq!(outcome.generation, MutableEngine::generation(&engine));
}

/// The DBLP shape of the benchmark's cold top-k workload, at 4 000 papers.
fn benchmark_dblp() -> Database {
    generate_dblp(&DblpConfig {
        n_conferences: 40,
        n_authors: 1_333,
        n_papers: 4_000,
        authors_per_paper: 2.2,
        citations_per_paper: 1.5,
        seed: 0xdb19,
    })
}

/// A computed query's tuple sets take its pooled scratch's row array, write
/// each matched row's position there, and must hand it back with every
/// entry unmatched however the query ends, or the next query's build reads
/// stale entries as keyword masks. One engine, so one pool and one scratch,
/// runs every way a query can end, interleaved with plain queries, and the
/// pooled array is checked after each: unmatched, and — every query here
/// matches rows and ends `Ok` — the recycled array, never a lost one (it
/// only grows). Every plain answer equals a fresh engine's.
#[test]
fn the_row_array_is_unmatched_after_every_way_a_query_ends() {
    let db = Arc::new(benchmark_dblp());
    let uncached = RelationalConfig {
        result_cache: CacheConfig::disabled(),
        ..Default::default()
    };
    let engine = RelationalEngine::with_config(Arc::clone(&db), uncached);
    let pooled = std::cell::Cell::new(0);
    let unmatched = |what: &str| {
        assert_eq!(engine.scratch.idle(), 1, "{what}: one pooled scratch");
        let scratch = engine.scratch.checkout(EvalScratch::new);
        let entries = scratch.unmatched_rows();
        let entries = entries.unwrap_or_else(|| panic!("{what} left rows matched"));
        assert!(entries >= pooled.get().max(1), "{what} lost the row array");
        pooled.set(entries);
    };
    let key = |resp: &SearchResponse<RelationalHit>| -> Vec<(u64, String)> {
        (resp.hits.iter())
            .map(|h| (h.score.to_bits(), h.rendered.clone()))
            .collect()
    };
    let plain = |text: &str| {
        let req = SearchRequest::new(text).k(10);
        let resp = engine.execute(&req).unwrap();
        let fresh = RelationalEngine::with_config(Arc::clone(&db), uncached);
        assert_eq!(key(&resp), key(&fresh.execute(&req).unwrap()), "{text}");
        assert!(!resp.hits.is_empty() && !resp.truncated(), "{text}");
        unmatched(text);
    };
    let within = |d: Duration| Budget::unlimited().with_timeout(d);

    plain("data query");
    // A keyword the index does not hold: the sets built for the other one
    // do not cover the query.
    let absent = engine.execute(&SearchRequest::new("zzzzqqq data")).unwrap();
    assert!(absent.hits.is_empty() && absent.stats.candidates_generated == 0);
    unmatched("an absent keyword");
    plain("widom xml");
    // Six first names: every keyword matches, but no author holds two, so
    // no tree of at most five tuples covers them all.
    let names = "jennifer serge michael david hector rakesh";
    let no_cn = engine.execute(&SearchRequest::new(names)).unwrap();
    assert!(no_cn.hits.is_empty() && !no_cn.truncated());
    assert_eq!(no_cn.stats.candidates_generated, 0);
    unmatched("no CN");
    plain("stream index");
    // A candidate cap below the CN count.
    let capped = SearchRequest::new("graph ranking")
        .k(10)
        .budget(Budget::unlimited().with_max_candidates(2));
    let capped = engine.execute(&capped).unwrap();
    assert!(capped.stats.candidates_generated > 2);
    assert_eq!(
        capped.truncation,
        Some(TruncationReason::CandidateCapReached)
    );
    unmatched("a candidate cap");
    plain("jennifer data");
    // A deadline that passes inside a join: these three title words join
    // for about 70 ms in a release build. The first request plans them.
    let late = |text| {
        SearchRequest::new(text)
            .k(10)
            .budget(within(Duration::from_millis(10)))
    };
    engine.execute(&late("mining system keyword")).unwrap();
    unmatched("a deadline");
    let cut = engine.execute(&late("mining system keyword")).unwrap();
    assert_eq!(cut.truncation, Some(TruncationReason::DeadlineExceeded));
    assert!(cut.stats.cns_evaluated > 0 && cut.stats.operators.rows_output > 0);
    unmatched("a deadline inside a join");
    plain("xml keyword");
    // A faceted, refined request, and the same under SPARK's scoring.
    let faceted = SearchRequest::new("data query")
        .k(10)
        .facet(FacetSpec::terms("conference.name", 5))
        .facet(FacetSpec::terms("author.name", 5))
        .refine(Refinement::Term {
            attr: "conference.name".into(),
            value: db.table_by_name("conference").unwrap().row(RowId(0))[1].to_string(),
        });
    let refined = engine.execute(&faceted).unwrap();
    assert!(refined.facets_exact && !refined.facets[0].values.is_empty());
    unmatched("a faceted, refined request");
    engine.execute(&faceted.scoring(Scoring::Spark)).unwrap();
    unmatched("a SPARK request");
    plain("data query");
    // A deadline already gone by when the sets are built.
    engine
        .execute(&late("data query").budget(within(Duration::ZERO)))
        .unwrap();
    unmatched("an expired deadline");
    plain("widom xml");
}
