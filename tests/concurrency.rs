//! Concurrency contract of the owned engines and the dispatcher.
//!
//! The ownership refactor promises: every engine is `Send + Sync` (checked
//! at compile time below), one shared engine instance serves many threads,
//! the CN plan cache generates each plan exactly once under a thundering
//! herd, per-query stats are race-free, and concurrent dispatch returns
//! results identical to serial execution.

use kwdb::common::text::parse_query;
use kwdb::common::{Budget, CacheConfig, QueryStats};
use kwdb::datasets::{self, generate_dblp, DblpConfig};
use kwdb::dispatch::{Catalog, Dispatcher};
use kwdb::engine::{
    Engine, GraphEngine, GraphSemantics, RelationalConfig, RelationalEngine, SearchRequest,
    XmlEngine,
};
use kwdb::relsearch::TupleSets;
use std::sync::Arc;

// ---- compile-time thread-safety contract --------------------------------

const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<RelationalEngine>();
    assert_send_sync::<GraphEngine>();
    assert_send_sync::<XmlEngine>();
    assert_send_sync::<Arc<dyn Engine>>();
    assert_send_sync::<Catalog>();
    assert_send_sync::<Dispatcher>();
};

fn dblp() -> kwdb::relational::Database {
    generate_dblp(&DblpConfig {
        n_papers: 80,
        n_authors: 40,
        ..Default::default()
    })
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register("dblp", RelationalEngine::new(dblp()));
    c.register(
        "social",
        GraphEngine::new(datasets::graphs::generate_graph(&Default::default())),
    );
    c.register(
        "bib",
        XmlEngine::from_tree(datasets::generate_bib_xml(&Default::default())),
    );
    c
}

// ---- trait-object dispatch ----------------------------------------------

#[test]
fn catalog_dispatches_all_three_models_through_the_trait() {
    let c = catalog();
    let cases = [
        ("dblp", "data query", "relational"),
        ("social", "kw0 kw1", "graph"),
        ("bib", "data query", "xml"),
    ];
    for (name, query, kind) in cases {
        let resp = c.execute(name, &SearchRequest::new(query).k(3)).unwrap();
        assert!(!resp.hits.is_empty(), "{name}: no hits");
        assert!(resp.hits.iter().all(|h| h.kind() == kind), "{name}");
        assert!(
            resp.hits.windows(2).all(|w| w[0].score() >= w[1].score()),
            "{name}: hits must come back ranked through the trait too"
        );
    }
    let err = c
        .execute("missing", &SearchRequest::new("x"))
        .unwrap_err()
        .to_string();
    assert!(err.contains("missing"));
}

// ---- CN plan cache under a thundering herd ------------------------------

#[test]
fn cn_plan_cache_generates_exactly_once_under_contention() {
    // Result cache off: this herd must contend on the *plan* cache, not be
    // absorbed by the response cache one level up.
    let engine = Arc::new(RelationalEngine::with_config(
        dblp(),
        RelationalConfig {
            result_cache: CacheConfig::disabled(),
            ..Default::default()
        },
    ));
    let n_threads = 8;
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|i| {
                let engine = Arc::clone(&engine);
                // half the threads phrase the query in reverse order: the
                // cache key is the sorted term set, so they must share a plan
                let query = if i % 2 == 0 {
                    "data query"
                } else {
                    "query data"
                };
                scope.spawn(move || engine.execute(&SearchRequest::new(query).k(5)).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let misses: u64 = responses.iter().map(|r| r.stats.cache_misses).sum();
    let hits: u64 = responses.iter().map(|r| r.stats.cache_hits).sum();
    assert_eq!(misses, 1, "exactly one thread may generate the plan");
    assert_eq!(
        hits,
        n_threads as u64 - 1,
        "every other thread must reuse it"
    );

    // identical plans ⇒ identical CN counts and identical ranked results
    let first = &responses[0];
    for r in &responses[1..] {
        assert_eq!(
            r.stats.candidates_generated,
            first.stats.candidates_generated
        );
        assert_eq!(
            format!("{:?}", r.hits),
            format!("{:?}", first.hits),
            "all threads must see the same ranked hits"
        );
    }
}

// ---- per-query stats are race-free --------------------------------------

#[test]
fn graph_engine_counters_do_not_bleed_across_threads() {
    // Pre-refactor the BLINKS counters were engine-level `Cell`s; two
    // concurrent queries would have added into the same counters. Now each
    // query gets its own: N identical queries must report identical,
    // serial-equal counts.
    // Result cache off: every thread must actually run the search to
    // report its own counters.
    let engine = Arc::new(
        GraphEngine::new(datasets::graphs::generate_graph(&Default::default()))
            .with_result_cache(CacheConfig::disabled()),
    );
    let req = SearchRequest::new("kw0 kw1")
        .k(3)
        .semantics(GraphSemantics::DistinctRoot);
    // warm the shared BLINKS index so every thread measures only the search
    let serial = engine.execute(&req).unwrap();
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (engine, req) = (Arc::clone(&engine), req.clone());
                scope.spawn(move || engine.execute(&req).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &responses {
        assert_eq!(
            r.stats.operators.sorted_accesses,
            serial.stats.operators.sorted_accesses
        );
        assert_eq!(
            r.stats.operators.random_accesses,
            serial.stats.operators.random_accesses
        );
        assert_eq!(format!("{:?}", r.hits), format!("{:?}", serial.hits));
    }
}

// ---- pre/post-refactor ground truth -------------------------------------

#[test]
fn blinks_stats_match_pre_refactor_values() {
    // Captured on the seeded default graph before the Cell → per-query
    // stats refactor: the counter totals are part of the observable
    // contract and must not drift.
    let engine = GraphEngine::new(datasets::graphs::generate_graph(&Default::default()));
    let resp = engine
        .execute(
            &SearchRequest::new("kw0 kw1")
                .k(3)
                .semantics(GraphSemantics::DistinctRoot),
        )
        .unwrap();
    assert_eq!(resp.stats.operators.sorted_accesses, 58);
    assert_eq!(resp.stats.operators.random_accesses, 116);
    let costs: Vec<f64> = resp.hits.iter().map(|t| t.cost).collect();
    assert_eq!(costs, vec![5.0, 5.0, 5.0]);

    // `Banks` is served by the same evaluator: the same accesses, counted
    // when the request computes rather than hitting `DistinctRoot`'s entry.
    let banks = engine
        .execute(
            &SearchRequest::new("kw0 kw1")
                .k(3)
                .semantics(GraphSemantics::Banks)
                .caching(false),
        )
        .unwrap();
    assert_eq!(banks.stats.operators.sorted_accesses, 58);
    assert_eq!(banks.stats.operators.random_accesses, 116);
    assert_eq!(banks.stats.operators.tuples_scanned, 0);
    let dpbf = engine
        .execute(
            &SearchRequest::new("kw0 kw1")
                .k(3)
                .semantics(GraphSemantics::SteinerExact),
        )
        .unwrap();
    assert_eq!(dpbf.stats.operators.tuples_scanned, 212);
}

// ---- the dispatcher stress test -----------------------------------------

/// A deterministic mixed batch: relational, graph (all three semantics),
/// and XML requests, some with candidate-cap budgets (deterministic, unlike
/// wall-clock deadlines), some against an unknown engine.
fn mixed_batch(n: usize) -> Vec<(String, SearchRequest)> {
    let rel_queries = ["data query", "query data", "xml search", "data", "xml data"];
    let graph_queries = ["kw0 kw1", "kw1 kw2", "kw0 kw2", "kw0 kw1 kw2"];
    let xml_queries = ["data query", "xml data", "search"];
    let mut batch = Vec::with_capacity(n);
    for i in 0..n {
        let budget = match i % 3 {
            0 => Budget::unlimited(),
            1 => Budget::unlimited().with_max_candidates(4),
            _ => Budget::unlimited().with_max_candidates(64),
        };
        let (name, req) = match i % 4 {
            0 => (
                "dblp",
                SearchRequest::new(rel_queries[i % rel_queries.len()]).k(1 + i % 7),
            ),
            1 => {
                let sem = match i % 3 {
                    0 => GraphSemantics::SteinerExact,
                    1 => GraphSemantics::Banks,
                    _ => GraphSemantics::DistinctRoot,
                };
                (
                    "social",
                    SearchRequest::new(graph_queries[i % graph_queries.len()])
                        .k(1 + i % 5)
                        .semantics(sem),
                )
            }
            2 => (
                "bib",
                SearchRequest::new(xml_queries[i % xml_queries.len()]).k(1 + i % 9),
            ),
            _ => {
                if i % 16 == 3 {
                    ("nope", SearchRequest::new("data"))
                } else {
                    (
                        "dblp",
                        SearchRequest::new(rel_queries[(i / 4) % rel_queries.len()]).k(3),
                    )
                }
            }
        };
        batch.push((name.to_string(), req.budget(budget)));
    }
    batch
}

#[test]
fn concurrent_dispatch_is_identical_to_serial() {
    // Result caching off on every request: a warm cache would turn the
    // concurrent pass into cache serving (operator totals would collapse).
    let dispatcher = Dispatcher::with_workers(catalog(), 8);
    let batch: Vec<_> = (mixed_batch(64).into_iter())
        .map(|(name, req)| (name, req.caching(false)))
        .collect();

    let serial = dispatcher.execute_serial(&batch);
    let concurrent = dispatcher.execute_concurrent(&batch);

    assert_eq!(serial.responses.len(), concurrent.responses.len());
    for (i, (s, c)) in serial
        .responses
        .iter()
        .zip(concurrent.responses.iter())
        .enumerate()
    {
        match (s, c) {
            (Ok(s), Ok(c)) => {
                assert_eq!(
                    format!("{:?}", s.hits),
                    format!("{:?}", c.hits),
                    "request {i}: hits diverge between serial and concurrent"
                );
                assert_eq!(s.truncation, c.truncation, "request {i}");
            }
            (Err(se), Err(ce)) => assert_eq!(se.to_string(), ce.to_string(), "request {i}"),
            _ => panic!("request {i}: serial and concurrent disagree on success"),
        }
    }

    // deterministic operator counters must merge to the same totals
    // (cache hit/miss split differs: the serial run warms caches in order,
    // concurrent threads race for them — but hits + misses is invariant)
    assert_eq!(
        serial.totals.operators.tuples_scanned,
        concurrent.totals.operators.tuples_scanned
    );
    assert_eq!(
        serial.totals.operators.sorted_accesses,
        concurrent.totals.operators.sorted_accesses
    );
    assert_eq!(
        serial.totals.candidates_generated,
        concurrent.totals.candidates_generated
    );
    assert_eq!(
        serial.totals.cache_hits + serial.totals.cache_misses,
        concurrent.totals.cache_hits + concurrent.totals.cache_misses
    );
    assert_eq!(serial.responses.iter().filter(|r| r.is_err()).count(), 4);
}

#[test]
fn one_shared_engine_serves_eight_threads_times_fifty_queries() {
    // The headline stress case: a single relational engine instance,
    // shared, hammered by 8 workers × 50+ queries, checked hit-for-hit
    // against the serial run.
    // Both dispatchers share one database but get their own cold engine,
    // so the concurrent run can't coast on the serial run's warm plan cache.
    let db = Arc::new(dblp());
    let dispatcher_for = |db: &Arc<kwdb::relational::Database>| {
        let mut c = Catalog::new();
        c.register("dblp", RelationalEngine::new(Arc::clone(db)));
        Dispatcher::with_workers(c, 8)
    };

    let queries = [
        "data query",
        "xml search",
        "query data",
        "xml data",
        "search data",
    ];
    // Caching off: every one of the 400 queries must reach the planner for
    // the plan-cache accounting below to be exhaustive.
    let batch: Vec<(String, SearchRequest)> = (0..400)
        .map(|i| {
            (
                "dblp".to_string(),
                SearchRequest::new(queries[i % queries.len()])
                    .k(1 + i % 6)
                    .caching(false),
            )
        })
        .collect();

    let serial = dispatcher_for(&db).execute_serial(&batch);
    let concurrent = dispatcher_for(&db).execute_concurrent(&batch);
    for (s, c) in serial.responses.iter().zip(concurrent.responses.iter()) {
        let (s, c) = (s.as_ref().unwrap(), c.as_ref().unwrap());
        assert_eq!(format!("{:?}", s.hits), format!("{:?}", c.hits));
        assert_eq!(s.truncation, c.truncation);
    }
    // A plan is keyed by the query's mask signature — which (table, mask)
    // tuple sets are non-empty, for how many keywords — so queries share
    // one when those agree, whatever their words. Even with 8 threads
    // racing on a cold cache, each distinct signature must be generated
    // exactly once.
    let signatures: std::collections::HashSet<_> = queries
        .iter()
        .map(|q| {
            let ts = TupleSets::build(&db, &parse_query(q)).unwrap();
            (ts.keys(), ts.n_keywords())
        })
        .collect();
    assert_eq!(serial.totals.cache_misses, signatures.len() as u64);
    assert_eq!(concurrent.totals.cache_misses, signatures.len() as u64);
    assert_eq!(
        concurrent.totals.cache_hits + concurrent.totals.cache_misses,
        400
    );
}

// ---- merged totals ------------------------------------------------------

#[test]
fn dispatch_totals_equal_sum_of_response_stats() {
    let dispatcher = Dispatcher::with_workers(catalog(), 4);
    let batch = mixed_batch(24);
    let out = dispatcher.execute_concurrent(&batch);
    let mut by_hand = QueryStats::new();
    for r in out.successes() {
        by_hand.merge(&r.stats);
    }
    assert_eq!(
        out.totals.operators.tuples_scanned,
        by_hand.operators.tuples_scanned
    );
    assert_eq!(
        out.totals.candidates_generated,
        by_hand.candidates_generated
    );
    assert_eq!(out.totals.cache_hits, by_hand.cache_hits);
    assert_eq!(out.totals.phases.total(), by_hand.phases.total());
}
