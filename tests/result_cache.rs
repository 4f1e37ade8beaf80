//! Contract of the generation-keyed result cache across all three engines.
//!
//! The guarantees under test: a cache-on engine returns bit-identical hits
//! to a cache-off engine; a
//! mutation (ingest, delete, commit) makes the next identical query
//! recompute with zero explicit invalidation; a thundering herd on a cold
//! key computes exactly once; truncated (budget-constrained) responses
//! never enter or consult the cache; and per-query stats label every
//! response with the consult outcome.

use kwdb::common::{Budget, CacheConfig, FacetSpec};
use kwdb::datasets::{self, generate_dblp, DblpConfig};
use kwdb::engine::{
    Engine, GraphEngine, IngestRecord, MutableEngine, RelationalConfig, RelationalEngine,
    SearchRequest, XmlEngine,
};
use kwdb::obs::{families, MetricsRegistry, TraceLevel};
use std::sync::Arc;

fn dblp() -> kwdb::relational::Database {
    generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    })
}

fn engine_with(cache: CacheConfig) -> RelationalEngine {
    RelationalEngine::with_config(
        dblp(),
        RelationalConfig {
            result_cache: cache,
            ..Default::default()
        },
    )
}

fn faceted(q: &str) -> SearchRequest {
    SearchRequest::new(q)
        .k(5)
        .facet(FacetSpec::terms("conference.name", 10))
}

/// Render hits in a comparable form (scores + rendered trees).
fn fingerprint(resp: &kwdb::engine::SearchResponse<kwdb::engine::RelationalHit>) -> String {
    resp.hits
        .iter()
        .map(|h| format!("{:.6}|{}", h.score, h.rendered))
        .collect::<Vec<_>>()
        .join("\n")
}

// ---- parity: cached results are the computed results ---------------------

/// The cache is checked against the computed answer on one engine.
#[test]
fn cache_on_equals_cache_off() {
    let queries = ["data query", "xml search data", "query"];
    let cold = engine_with(CacheConfig::disabled());
    let warm = engine_with(CacheConfig::default());
    for q in queries {
        let req = faceted(q);
        let reference = cold.execute(&req).unwrap();
        let miss = warm.execute(&req).unwrap();
        let hit = warm.execute(&req).unwrap();
        assert_eq!(
            (miss.stats.result_cache_hits, miss.stats.result_cache_misses),
            (0, 1),
            "{q:?}: first consult is a miss"
        );
        assert_eq!(
            (hit.stats.result_cache_hits, hit.stats.result_cache_misses),
            (1, 0),
            "{q:?}: repeat is a hit"
        );
        assert_eq!(
            (
                reference.stats.result_cache_hits,
                reference.stats.result_cache_misses
            ),
            (0, 0),
            "disabled cache reports no consult"
        );
        for (label, resp) in [("miss", &miss), ("hit", &hit)] {
            assert_eq!(
                fingerprint(resp),
                fingerprint(&reference),
                "{q:?}: {label} response must equal cache-off"
            );
            assert_eq!(resp.facets, reference.facets, "{label} facets");
            assert_eq!(resp.facets_exact, reference.facets_exact);
            assert!(resp.truncation.is_none());
        }
    }
}

#[test]
fn keyword_order_does_not_defeat_the_cache() {
    let engine = engine_with(CacheConfig::default());
    engine
        .execute(&SearchRequest::new("data query").k(5))
        .unwrap();
    let reordered = engine
        .execute(&SearchRequest::new("query data").k(5))
        .unwrap();
    assert_eq!(reordered.stats.result_cache_hits, 1);
    // …but a different k is a different entry
    let other_k = engine
        .execute(&SearchRequest::new("data query").k(3))
        .unwrap();
    assert_eq!(other_k.stats.result_cache_misses, 1);
}

#[test]
fn refinements_and_facets_key_separate_entries() {
    let engine = engine_with(CacheConfig::default());
    let base = faceted("data query");
    let overview = engine.execute(&base).unwrap();
    assert_eq!(overview.stats.result_cache_misses, 1);
    let top = overview.facets[0]
        .values
        .first()
        .expect("dblp queries produce conference counts")
        .value
        .clone();
    let drilled = engine
        .execute(&base.clone().refine(kwdb::relsearch::Refinement::Term {
            attr: "conference.name".into(),
            value: top,
        }))
        .unwrap();
    assert_eq!(
        drilled.stats.result_cache_misses, 1,
        "a drill-down is a distinct cached response"
    );
    // The drill-down replans nothing: refinements are outside the plan
    // cache key, so the planner reports a hit even on a result-cache miss.
    assert_eq!(drilled.stats.cache_hits, 1);
    let plain = engine
        .execute(&SearchRequest::new("data query").k(5))
        .unwrap();
    assert_eq!(
        plain.stats.result_cache_misses, 1,
        "dropping the facet list keys a third entry"
    );
}

#[test]
fn an_unknown_attribute_is_a_typed_error_even_beside_a_warm_entry() {
    // A hit resolves no facet spec, but it still checks that the attributes
    // exist: the same keywords with a facet or refinement the schema does
    // not have must fail as they would on a cold engine — before anything
    // is sampled, consulted or sealed — not be answered from a neighbouring
    // entry or come back with a facet silently dropped.
    let registry = Arc::new(MetricsRegistry::new());
    let engine = engine_with(CacheConfig::default()).with_registry(Arc::clone(&registry));
    let warm = faceted("data query");
    engine.execute(&warm).unwrap();
    assert_eq!(engine.execute(&warm).unwrap().stats.result_cache_hits, 1);
    let sealed = registry.flight().appended();

    let bad_facet = warm.clone().facet(FacetSpec::terms("conference.nope", 3));
    let bad_refinement = warm.clone().refine(kwdb::relsearch::Refinement::Term {
        attr: "nope.name".into(),
        value: "VLDB".into(),
    });
    let malformed = SearchRequest::new("data query").facet(FacetSpec::terms("conference", 3));
    for (req, names) in [
        (&bad_facet, "conference.nope"),
        (&bad_refinement, "nope"),
        (&malformed, "table.column"),
    ] {
        let err = engine.execute(req).unwrap_err();
        assert!(
            matches!(
                err,
                kwdb_common::KwdbError::UnknownObject(_) | kwdb_common::KwdbError::InvalidQuery(_)
            ),
            "typed error, got {err:?}"
        );
        assert!(err.to_string().contains(names), "{err} names {names:?}");
    }
    // the empty query takes the early return, not the evaluate body
    assert!(engine
        .execute(&SearchRequest::new("").facet(FacetSpec::terms("conference.nope", 3)))
        .is_err());
    assert_eq!(
        registry.flight().appended(),
        sealed,
        "a rejected request seals nothing"
    );
    assert_eq!(engine.execute(&warm).unwrap().stats.result_cache_hits, 1);
}

// ---- staleness: mutation is the only invalidation protocol ---------------

#[test]
fn ingest_delete_and_commit_invalidate_immediately() {
    let mut db = kwdb::relational::Database::new();
    kwdb::relational::database::dblp_schema(&mut db).unwrap();
    db.insert("author", vec![1.into(), "Jennifer Widom".into()])
        .unwrap();
    db.build_text_index();
    let engine = RelationalEngine::new(db);
    let req = SearchRequest::new("widom").k(10);

    let before = engine.execute(&req).unwrap();
    assert_eq!(before.hits.len(), 1);
    assert_eq!(engine.execute(&req).unwrap().stats.result_cache_hits, 1);

    // Ingest: the next identical query recomputes and sees the new row.
    engine
        .ingest(IngestRecord::Tuple {
            table: "author".into(),
            values: vec![2.into(), "Widom Junior".into()],
        })
        .unwrap();
    let after_ingest = engine.execute(&req).unwrap();
    assert_eq!(
        after_ingest.stats.result_cache_misses, 1,
        "generation bump must invalidate without any explicit call"
    );
    assert_eq!(after_ingest.hits.len(), 2, "new row visible immediately");

    // Commit bumps the generation too, so it re-keys every entry.
    engine.execute(&req).unwrap(); // warm the post-ingest entry
    MutableEngine::commit(&engine).unwrap();
    let after_commit = engine.execute(&req).unwrap();
    assert_eq!(after_commit.stats.result_cache_misses, 1);
    assert_eq!(after_commit.hits.len(), 2);

    // Delete: the deleted row disappears from the very next query.
    engine
        .delete_tuple("author", &kwdb::common::Value::from(2))
        .unwrap();
    let after_delete = engine.execute(&req).unwrap();
    assert_eq!(after_delete.stats.result_cache_misses, 1);
    assert_eq!(after_delete.hits.len(), 1, "deleted row gone immediately");
}

#[test]
fn xml_engine_caches_repeat_queries() {
    let engine = XmlEngine::from_tree(datasets::generate_bib_xml(&Default::default()));
    let req = SearchRequest::new("data query").k(10);
    let first = engine.execute(&req).unwrap();
    assert_eq!(first.stats.result_cache_misses, 1);
    let second = engine.execute(&req).unwrap();
    assert_eq!(second.stats.result_cache_hits, 1);
    assert_eq!(
        format!("{:?}", first.hits),
        format!("{:?}", second.hits),
        "cached XML hits identical"
    );
}

// ---- singleflight --------------------------------------------------------

#[test]
fn thundering_herd_on_a_cold_key_computes_exactly_once() {
    let engine = Arc::new(engine_with(CacheConfig::default()));
    let n_threads = 8;
    let barrier = Arc::new(std::sync::Barrier::new(n_threads));
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    engine
                        .execute(&SearchRequest::new("data query").k(5))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let misses: u64 = responses.iter().map(|r| r.stats.result_cache_misses).sum();
    let hits: u64 = responses.iter().map(|r| r.stats.result_cache_hits).sum();
    assert_eq!(misses, 1, "exactly one thread computes");
    assert_eq!(hits, n_threads as u64 - 1, "everyone else is served");
    let first = &responses[0];
    for r in &responses[1..] {
        assert_eq!(fingerprint(r), fingerprint(first));
    }
}

// ---- bypasses ------------------------------------------------------------

#[test]
fn constrained_budgets_bypass_the_cache_entirely() {
    let engine = engine_with(CacheConfig::default());
    let req = SearchRequest::new("data query").k(5);
    engine.execute(&req).unwrap(); // warm the unlimited-budget entry

    // A candidate-capped twin must not be handed the complete cached
    // answer — and must not overwrite the entry with a truncated one.
    let capped = engine
        .execute(
            &req.clone()
                .budget(Budget::unlimited().with_max_candidates(1)),
        )
        .unwrap();
    assert_eq!(
        (
            capped.stats.result_cache_hits,
            capped.stats.result_cache_misses
        ),
        (0, 0),
        "constrained budget never consults"
    );
    assert!(capped.truncated());

    // Zero-deadline: same story for wall-clock budgets.
    let deadline = engine
        .execute(
            &req.clone()
                .budget(Budget::unlimited().with_timeout(std::time::Duration::ZERO)),
        )
        .unwrap();
    assert_eq!(
        (
            deadline.stats.result_cache_hits,
            deadline.stats.result_cache_misses
        ),
        (0, 0)
    );
    assert!(deadline.truncated());

    // The unlimited entry survived both bypasses intact.
    let again = engine.execute(&req).unwrap();
    assert_eq!(again.stats.result_cache_hits, 1);
    assert!(!again.truncated());
}

#[test]
fn traced_requests_bypass_and_keep_their_trace() {
    let engine = engine_with(CacheConfig::default());
    let req = SearchRequest::new("data query").k(5);
    engine.execute(&req).unwrap(); // warm
    let traced = engine
        .execute(&req.clone().trace(TraceLevel::Phases))
        .unwrap();
    assert_eq!(
        (
            traced.stats.result_cache_hits,
            traced.stats.result_cache_misses
        ),
        (0, 0),
        "a traced query must actually execute to produce its trace"
    );
    assert!(traced.trace.is_some());
    // And a cached hit never carries a trace.
    let hit = engine.execute(&req).unwrap();
    assert_eq!(hit.stats.result_cache_hits, 1);
    assert!(hit.trace.is_none());
}

#[test]
fn per_request_opt_out_skips_the_cache() {
    let engine = engine_with(CacheConfig::default());
    let req = SearchRequest::new("data query").k(5);
    engine.execute(&req).unwrap(); // warm
    let opted_out = engine.execute(&req.clone().caching(false)).unwrap();
    assert_eq!(
        (
            opted_out.stats.result_cache_hits,
            opted_out.stats.result_cache_misses
        ),
        (0, 0)
    );
    assert_eq!(engine.execute(&req).unwrap().stats.result_cache_hits, 1);
}

/// The query frame is shared by all three engines, so its accounting must
/// be identical behind `Arc<dyn Engine>`: every request — early return,
/// bypass, miss, or hit — seals exactly one flight record, stamps the
/// consult outcome on its own stats, and the registry totals are the sum of
/// those stamps.
#[test]
fn every_engine_seals_once_and_stamps_the_consult_outcome() {
    let regs: Vec<_> = (0..3).map(|_| Arc::new(MetricsRegistry::new())).collect();
    let graph = datasets::graphs::generate_graph(&Default::default());
    let tree = datasets::generate_bib_xml(&Default::default());
    let engines: Vec<(&str, &str, Arc<dyn Engine>)> = vec![
        (
            "relational",
            "data query",
            Arc::new(RelationalEngine::new(dblp()).with_registry(Arc::clone(&regs[0]))),
        ),
        (
            "graph",
            "kw0 kw1",
            Arc::new(GraphEngine::new(graph).with_registry(Arc::clone(&regs[1]))),
        ),
        (
            "xml",
            "data query",
            Arc::new(XmlEngine::from_tree(tree).with_registry(Arc::clone(&regs[2]))),
        ),
    ];
    for ((name, query, engine), reg) in engines.into_iter().zip(&regs) {
        let req = SearchRequest::new(query).k(5);
        let zero_deadline = Budget::unlimited().with_timeout(std::time::Duration::ZERO);
        let sequence = [
            ("empty query", SearchRequest::new("").k(5), (0, 0)),
            ("zero deadline", req.clone().budget(zero_deadline), (0, 0)),
            ("traced", req.clone().trace(TraceLevel::Full), (0, 0)),
            ("caching off", req.clone().caching(false), (0, 0)),
            ("cold", req.clone(), (0, 1)),
            ("repeat", req.clone(), (1, 0)),
        ];
        let mut responses = Vec::new();
        for (i, (label, request, want)) in sequence.iter().enumerate() {
            let resp = engine.execute(request).unwrap();
            assert_eq!(
                (resp.stats.result_cache_hits, resp.stats.result_cache_misses),
                *want,
                "{name}: {label}"
            );
            assert_eq!(
                reg.flight().appended(),
                i as u64 + 1,
                "{name}: {label} seals exactly one flight record"
            );
            responses.push(resp);
        }
        assert!(responses[0].hits.is_empty() && !responses[0].truncated());
        assert!(responses[1].hits.is_empty() && responses[1].truncated());
        assert!(responses[2].trace.is_some() && responses[5].trace.is_none());
        assert_eq!(
            (
                reg.counter_family_total(families::RESULT_CACHE_HITS),
                reg.counter_family_total(families::RESULT_CACHE_MISSES)
            ),
            (1, 1),
            "{name}: registry totals are the sum of the per-query stamps"
        );
        let (cold, repeat) = (&responses[4], &responses[5]);
        assert!(!cold.hits.is_empty(), "{name}: {query:?} must match");
        assert_eq!(
            format!("{:?}", repeat.hits),
            format!("{:?}", cold.hits),
            "{name}: a hit serves the computed hits"
        );
        assert_eq!(repeat.facets, cold.facets);
        assert_eq!(repeat.facets_exact, cold.facets_exact);
        assert!(repeat.truncation.is_none());
    }
}

// ---- query cleaning ------------------------------------------------------

/// A misspelled query is searched — and cached — as its clean form, and the
/// cleaning model follows the data: a term ingested after the model was
/// first built is corrected to from the next generation on.
#[test]
fn cleaned_queries_share_the_clean_entry_and_track_ingested_vocabulary() {
    let mut db = kwdb::relational::Database::new();
    kwdb::relational::database::dblp_schema(&mut db).unwrap();
    db.insert("author", vec![1.into(), "Jennifer Widom".into()])
        .unwrap();
    db.insert("author", vec![2.into(), "Serge Abiteboul".into()])
        .unwrap();
    db.build_text_index();
    let engine = RelationalEngine::with_config(
        db,
        RelationalConfig {
            clean_queries: true,
            ..Default::default()
        },
    );

    let clean = engine.execute(&SearchRequest::new("widom").k(5)).unwrap();
    assert_eq!(clean.hits.len(), 1);
    assert_eq!(clean.stats.result_cache_misses, 1);
    let dirty = engine.execute(&SearchRequest::new("widmo").k(5)).unwrap();
    assert_eq!(fingerprint(&dirty), fingerprint(&clean));
    assert_eq!(
        dirty.stats.result_cache_hits, 1,
        "the misspelling keys the clean form's entry"
    );

    // "stonebraker" enters the vocabulary after the model was built.
    engine
        .ingest(IngestRecord::Tuple {
            table: "author".into(),
            values: vec![3.into(), "Michael Stonebraker".into()],
        })
        .unwrap();
    let ingested = engine
        .execute(&SearchRequest::new("stonebraker").k(5))
        .unwrap();
    assert_eq!(ingested.hits.len(), 1);
    let dirty = engine
        .execute(&SearchRequest::new("stonebrakr").k(5))
        .unwrap();
    assert_eq!(
        fingerprint(&dirty),
        fingerprint(&ingested),
        "the cleaning model must see vocabulary ingested after it was built"
    );
    assert_eq!(dirty.stats.result_cache_hits, 1);
}

// ---- budgets bound the cache itself --------------------------------------

#[test]
fn byte_budget_bounds_the_cache_under_many_distinct_queries() {
    // A deliberately tiny budget: distinct queries must evict rather than
    // grow the cache without bound.
    let engine = engine_with(CacheConfig {
        max_bytes: 4 << 10,
        max_entries: 16,
        ..Default::default()
    });
    let queries = ["data", "query", "xml", "search", "data query", "xml data"];
    for round in 0..3 {
        for (i, q) in queries.iter().enumerate() {
            let k = 1 + (round + i) % 9;
            engine.execute(&SearchRequest::new(*q).k(k)).unwrap();
        }
    }
    // Nothing to assert beyond liveness here — the strict bound is proven
    // at the cache-unit level — but a warmed small cache must still serve.
    let resp = engine
        .execute(&SearchRequest::new("data query").k(1))
        .unwrap();
    assert_eq!(
        resp.stats.result_cache_hits + resp.stats.result_cache_misses,
        1,
        "cache still consulted after heavy eviction traffic"
    );
}
