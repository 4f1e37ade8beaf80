//! Integration tests for the unified budgeted/instrumented search API:
//! budget exhaustion must return partial, sorted, truncated results on all
//! three engines, and a deadline holds inside each executor's loop within a
//! stated bound; repeated queries must hit the CN plan cache; empty and
//! unmatched queries must come back empty through the new API.

use kwdb::common::{Budget, CacheConfig, TruncationReason};
use kwdb::datasets::{self, generate_dblp, BibConfig, DblpConfig};
use kwdb::engine::{
    GraphEngine, GraphSemantics, RelationalConfig, RelationalEngine, SearchRequest, XmlEngine,
};
use kwdb::graph::graph::{from_database, EdgeWeighting};
use kwdb::relational::ExecStats;
use kwdb::relsearch::cn::{CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::pexec::{evaluate, EvalScratch};
use kwdb::relsearch::score::Scoring;
use kwdb::relsearch::topk::TopKQuery;
use kwdb::relsearch::{ResultScorer, TupleSets};
use kwdb::xml::XmlIndex;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn dblp() -> kwdb::relational::Database {
    generate_dblp(&DblpConfig {
        n_papers: 80,
        n_authors: 40,
        ..Default::default()
    })
}

#[test]
fn relational_budget_exhaustion_truncates_sorted() {
    let engine = RelationalEngine::new(dblp());
    let req = SearchRequest::new("data query")
        .k(5)
        .budget(Budget::unlimited().with_timeout(Duration::ZERO));
    let resp = engine.execute(&req).unwrap();
    assert!(resp.truncated(), "zero deadline must truncate");
    assert!(
        resp.hits.windows(2).all(|w| w[0].score >= w[1].score),
        "truncated hits must still be sorted"
    );

    // candidate cap: a handful of slices yields partial-but-sorted results
    let req = SearchRequest::new("data query")
        .k(5)
        .budget(Budget::unlimited().with_max_candidates(3));
    let resp = engine.execute(&req).unwrap();
    assert!(resp.truncated());
    assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));

    // an unconstrained run of the same query is a superset-or-equal
    let full = engine
        .execute(&SearchRequest::new("data query").k(5))
        .unwrap();
    assert!(!full.truncated());
    assert!(full.hits.len() >= resp.hits.len());
}

#[test]
fn graph_budget_exhaustion_truncates_all_semantics() {
    let engine = GraphEngine::new(datasets::graphs::generate_graph(&Default::default()));
    for sem in [
        GraphSemantics::SteinerExact,
        GraphSemantics::Banks,
        GraphSemantics::DistinctRoot,
    ] {
        let req = SearchRequest::new("kw0 kw1")
            .k(3)
            .semantics(sem)
            .budget(Budget::unlimited().with_timeout(Duration::ZERO));
        let resp = engine.execute(&req).unwrap();
        assert!(resp.truncated(), "{sem:?}: zero deadline must truncate");
        assert!(
            resp.hits.windows(2).all(|w| w[0].cost <= w[1].cost),
            "{sem:?}: truncated hits must stay cost-sorted"
        );
        // must not panic, and an unlimited run still works afterwards
        let full = engine
            .execute(&SearchRequest::new("kw0 kw1").k(3).semantics(sem))
            .unwrap();
        assert!(!full.truncated());
        assert!(!full.hits.is_empty());
    }
}

#[test]
fn xml_budget_exhaustion_truncates_sorted() {
    let tree = datasets::generate_bib_xml(&Default::default());
    let ix = XmlIndex::build(&tree);
    let engine = XmlEngine::new(tree, ix);
    let req = SearchRequest::new("data query")
        .k(10)
        .budget(Budget::unlimited().with_timeout(Duration::ZERO));
    let resp = engine.execute(&req).unwrap();
    assert!(resp.truncated(), "zero deadline must truncate");
    assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));

    let full = engine
        .execute(&SearchRequest::new("data query").k(10))
        .unwrap();
    assert!(!full.truncated());
}

#[test]
fn repeated_query_hits_cn_cache_and_is_faster_to_plan() {
    // Result cache off: the repeat must re-execute to time the cached-plan
    // phase rather than skip the planner entirely.
    let engine = RelationalEngine::with_config(
        dblp(),
        kwdb::engine::RelationalConfig {
            result_cache: kwdb::common::CacheConfig::disabled(),
            ..Default::default()
        },
    );
    let req = SearchRequest::new("data query").k(5);
    let first = engine.execute(&req).unwrap();
    let second = engine.execute(&req).unwrap();
    assert_eq!(first.stats.cache_misses, 1);
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(second.stats.cache_hits, 1);
    assert_eq!(second.stats.cache_misses, 0);
    assert_eq!(
        first.stats.candidates_generated,
        second.stats.candidates_generated
    );
    // identical results either way
    let s1: Vec<f64> = first.hits.iter().map(|h| h.score).collect();
    let s2: Vec<f64> = second.hits.iter().map(|h| h.score).collect();
    assert_eq!(s1, s2);
    // the cached plan phase must not be slower than generation by more
    // than a trivial margin (it does no CN generation work at all)
    assert!(
        second.stats.phases.plan <= first.stats.phases.plan + Duration::from_millis(1),
        "cached plan {:?} vs generated {:?}",
        second.stats.phases.plan,
        first.stats.phases.plan
    );
}

#[test]
fn swapped_keywords_do_not_reuse_a_plan_with_swapped_masks() {
    // CN masks are positional: bit i is keyword i. "rakesh" matches only
    // author names and "crowdsourcing" only paper titles, so a plan cached
    // for one order would swap the masks of the other; the engine sorts the
    // keywords, so both orders plan (and answer) as one.
    let db = std::sync::Arc::new(generate_dblp(&DblpConfig {
        n_papers: 200,
        n_authors: 60,
        ..Default::default()
    }));
    let engine_for = |db: &std::sync::Arc<kwdb::relational::Database>| {
        RelationalEngine::with_config(
            std::sync::Arc::clone(db),
            kwdb::engine::RelationalConfig {
                result_cache: kwdb::common::CacheConfig::disabled(),
                ..Default::default()
            },
        )
    };
    let scores = |engine: &RelationalEngine, query: &str, k: usize| -> Vec<f64> {
        let resp = engine.execute(&SearchRequest::new(query).k(k)).unwrap();
        resp.hits.iter().map(|h| h.score).collect()
    };
    let engine = engine_for(&db);
    let forward = scores(&engine, "rakesh crowdsourcing", 5);
    assert!(!forward.is_empty(), "the fixture must answer the query");
    for k in [5, 3] {
        assert_eq!(
            scores(&engine, "crowdsourcing rakesh", k),
            scores(&engine_for(&db), "crowdsourcing rakesh", k),
            "k={k}: a warm engine must answer like a fresh one"
        );
    }
    assert_eq!(scores(&engine, "crowdsourcing rakesh", 5), forward);
}

#[test]
fn empty_and_unmatched_queries_are_empty_through_new_api() {
    let engine = RelationalEngine::new(dblp());
    for q in ["", "   ", "zzzzqqqxw"] {
        let resp = engine.execute(&SearchRequest::new(q).k(5)).unwrap();
        assert!(resp.hits.is_empty(), "query {q:?}");
        assert!(!resp.truncated(), "query {q:?}");
    }

    let gengine = GraphEngine::new(datasets::graphs::generate_graph(&Default::default()));
    for q in ["", "zzzzqqqxw kw0"] {
        let resp = gengine.execute(&SearchRequest::new(q).k(3)).unwrap();
        assert!(resp.hits.is_empty(), "query {q:?}");
    }

    let tree = datasets::generate_bib_xml(&Default::default());
    let ix = XmlIndex::build(&tree);
    let xengine = XmlEngine::new(tree, ix);
    for q in ["", "zzzzqqqxw data"] {
        let resp = xengine.execute(&SearchRequest::new(q).k(5)).unwrap();
        assert!(resp.hits.is_empty(), "query {q:?}");
    }
}

#[test]
fn stats_phases_are_populated() {
    let engine = RelationalEngine::new(dblp());
    let resp = engine
        .execute(&SearchRequest::new("data query").k(5))
        .unwrap();
    let p = resp.stats.phases;
    assert!(p.total() >= p.evaluate);
    assert!(p.total() == p.parse + p.build + p.plan + p.evaluate + p.facets);
    assert!(resp.stats.candidates_generated > 0);
}

#[test]
fn keyword_count_limit_is_an_error_not_a_panic() {
    // One paper whose title holds 33 distinct words: a query over the first
    // n of them has one answer, the single-node full-mask network.
    let words: Vec<String> = (0..33).map(|i| format!("w{i}x")).collect();
    let mut db = kwdb::relational::Database::new();
    kwdb::relational::database::dblp_schema(&mut db).unwrap();
    db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
        .unwrap();
    db.insert(
        "paper",
        vec![10.into(), words.join(" ").as_str().into(), 1.into()],
    )
    .unwrap();
    db.build_text_index();
    let engine = RelationalEngine::new(db);
    for n in [31, 32] {
        let resp = engine
            .execute(&SearchRequest::new(words[..n].join(" ")).k(5))
            .unwrap();
        assert_eq!(resp.hits.len(), 1, "{n} keywords: the paper matches");
        assert!(!resp.truncated());
    }
    let err = engine
        .execute(&SearchRequest::new(words.join(" ")).k(5))
        .unwrap_err();
    assert!(
        matches!(err, kwdb::common::KwdbError::InvalidQuery(_)),
        "33 keywords: {err:?}"
    );
    // The engine is still serviceable after the refusal.
    let resp = engine
        .execute(&SearchRequest::new(words[..2].join(" ")).k(5))
        .unwrap();
    assert_eq!(resp.hits.len(), 1);
}

/// A hub node whose content holds `n` distinct words, with two plain
/// neighbours: a query over the first `m` words has the hub as its best root.
fn hub_graph(n: usize) -> (kwdb::graph::DataGraph, Vec<String>, kwdb::graph::NodeId) {
    let words: Vec<String> = (0..n).map(|i| format!("w{i}x")).collect();
    let mut g = kwdb::graph::DataGraph::new();
    let hub = g.add_node("paper", &words.join(" "));
    let a = g.add_node("author", "alice");
    let b = g.add_node("author", "bob");
    g.add_edge(hub, a, 1.0);
    g.add_edge(hub, b, 2.0);
    (g, words, hub)
}

#[test]
fn graph_keyword_count_limits_are_errors_and_the_limit_itself_answers() {
    let (g, words, hub) = hub_graph(33);
    let engine = GraphEngine::new(g);
    let is_invalid =
        |r: kwdb::common::Result<_>| matches!(r, Err(kwdb::common::KwdbError::InvalidQuery(_)));
    let request = |n: usize, sem| SearchRequest::new(words[..n].join(" ")).k(2).semantics(sem);

    // Distinct-root requests — `Banks` is an alias of `DistinctRoot` — keep
    // no mask over the keywords, so they have no limit.
    for n in [31, 32, 33] {
        for sem in [GraphSemantics::Banks, GraphSemantics::DistinctRoot] {
            let resp = engine.execute(&request(n, sem)).unwrap();
            assert_eq!(resp.hits.len(), 2, "{n} keywords: hub, then alice");
            assert_eq!((resp.hits[0].root, resp.hits[0].rank_cost), (hub, 0.0));
            assert_eq!(resp.hits[1].rank_cost, n as f64);
            for t in &resp.hits {
                t.validate(&engine.graph(), &words[..n]).unwrap();
            }
        }
    }

    // DPBF's state space is 2^keywords per node. 16 is accepted — one node
    // matching all of them is the 3^16-merge worst case, so cap the run —
    // and 17 is refused before any state is built.
    let capped = request(16, GraphSemantics::SteinerExact)
        .budget(Budget::unlimited().with_max_candidates(64));
    assert!(engine.execute(&capped).unwrap().truncated());
    let resp = engine
        .execute(&request(4, GraphSemantics::SteinerExact))
        .unwrap();
    assert_eq!((resp.hits[0].root, resp.hits[0].cost), (hub, 0.0));
    assert!(is_invalid(
        engine.execute(&request(17, GraphSemantics::SteinerExact))
    ));

    // The engine is still serviceable after the refusals.
    let resp = engine.execute(&request(2, GraphSemantics::Banks)).unwrap();
    assert_eq!(resp.hits[0].root, hub);
}

#[test]
fn expired_deadline_stops_the_executor_at_its_first_checkpoint() {
    let db = dblp();
    let keywords = ["data", "query"];
    let ts = TupleSets::build(&db, &keywords).unwrap();
    let oracle = MaskOracle::from_tuplesets(&ts);
    let cns = CnGenerator::new(db.schema_graph(), &oracle, CnGenConfig::default()).generate();
    let scorer = ResultScorer::new(&db);
    let q = TopKQuery {
        db: &db,
        ts: &ts,
        cns: &cns,
        scorer: &scorer,
        keywords: &keywords,
    };
    // A budget that expired before the executor started: the first ticket
    // fails the deadline check, so nothing is evaluated.
    let budget = Budget::unlimited().with_timeout(Duration::ZERO);
    let (stats, scratch) = (ExecStats::new(), &mut EvalScratch::new());
    let out = evaluate(&q, 5, Scoring::Monotone, &stats, &budget, scratch, &[]);
    assert_eq!(out.truncation, Some(TruncationReason::DeadlineExceeded));
    assert_eq!(out.cns_evaluated, 0);
    assert!(out.results.is_empty());
    assert_eq!(out.cns_pruned, cns.len() as u64);
}

/// The DBLP shape the benchmark's cold top-k workload runs on: `papers`
/// papers, a third as many authors.
fn benchmark_dblp(papers: usize) -> kwdb::relational::Database {
    generate_dblp(&DblpConfig {
        n_conferences: 40,
        n_authors: papers / 3,
        n_papers: papers,
        authors_per_paper: 2.2,
        citations_per_paper: 1.5,
        seed: 0xdb19,
    })
}

/// Run `f`, returning its result and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A deadline holds inside the work of one candidate, not only between
/// candidates: the relational executor polls it every few thousand rows a
/// join step scans or emits and every 256 rows it scores, DPBF at every
/// pop, BLINKS at every sorted access and SLCA at every anchor. Each is
/// held to 20 times a 10 ms deadline. Three title words on the 100 292-tuple
/// DBLP join tens of millions of rows unbounded, most of them in one CN, so
/// a deadline read only between CNs overran it by a factor of about a
/// hundred; the first request below checks that this profile does not
/// finish that join within the bound the second is held to.
#[test]
fn a_deadline_holds_inside_a_join_and_in_every_executor_loop() {
    let deadline = Duration::from_millis(10);
    let bound = 20 * deadline;
    let within = |what: &str, took: Duration| {
        assert!(
            took <= bound,
            "{what}: a {deadline:?} deadline returned after {took:?}"
        );
    };
    let budget = |d: Duration| Budget::unlimited().with_timeout(d);

    let engine = RelationalEngine::with_config(
        benchmark_dblp(20_000),
        RelationalConfig {
            result_cache: CacheConfig::disabled(),
            ..Default::default()
        },
    );
    let run = |d: Duration| {
        let req = SearchRequest::new("index schema stream")
            .k(10)
            .budget(budget(d));
        timed(|| engine.execute(&req).unwrap())
    };
    // With the bound itself as its deadline the query is still cut, so its
    // unbounded join outlasts the bound here. (This also plans the query:
    // the run below starts joining at once.)
    let (premise, _) = run(bound);
    assert_eq!(premise.truncation, Some(TruncationReason::DeadlineExceeded));
    let (resp, took) = run(deadline);
    within("relational", took);
    assert_eq!(resp.truncation, Some(TruncationReason::DeadlineExceeded));
    assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));

    // The graph engines over the data graph of a smaller DBLP. BLINKS
    // builds a keyword's distance list on its first read, in one pass the
    // deadline does not interrupt; an unbounded request builds them first,
    // so the budgeted ones are held to their sorted accesses alone.
    let (g, _) = from_database(&benchmark_dblp(8_000), EdgeWeighting::Uniform);
    let graph = GraphEngine::new(Arc::new(g)).with_result_cache(CacheConfig::disabled());
    let query = |semantics| {
        SearchRequest::new("index schema stream")
            .k(100)
            .semantics(semantics)
    };
    graph.execute(&query(GraphSemantics::Banks)).unwrap();
    for semantics in [
        GraphSemantics::SteinerExact,
        GraphSemantics::DistinctRoot,
        GraphSemantics::Banks,
    ] {
        let req = query(semantics).budget(budget(deadline));
        let (resp, took) = timed(|| graph.execute(&req).unwrap());
        within(&format!("{semantics:?}"), took);
        assert!(resp.hits.windows(2).all(|w| w[0].cost <= w[1].cost));
    }

    let xml = XmlEngine::from_tree(datasets::generate_bib_xml(&BibConfig {
        n_conferences: 100,
        n_journals: 50,
        papers_per_venue: 66,
        authors_per_paper: 2,
        seed: 0x0b1b,
    }))
    .with_result_cache(CacheConfig::disabled());
    let req = SearchRequest::new("index schema stream")
        .k(10)
        .budget(budget(deadline));
    let (resp, took) = timed(|| xml.execute(&req).unwrap());
    within("slca", took);
    assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));
}
