//! Contract of the observability layer end to end.
//!
//! The headline guarantee: with a registry attached, every execute path —
//! serial or concurrent, early-return or full pipeline — records exactly
//! once, so fleet-wide registry totals always equal the sum of the
//! per-query `QueryStats` the caller already holds. On top of that the
//! exporters must round-trip losslessly, traces must render only when
//! asked for, and truncation must carry its reason into both the response
//! and the `kwdb_queries_truncated_total` counter.

use kwdb::common::{Budget, CacheConfig, FacetSpec, Phase, TruncationReason};
use kwdb::datasets::{self, generate_dblp, DblpConfig};
use kwdb::dispatch::{Catalog, Dispatcher};
use kwdb::engine::{
    GraphEngine, GraphSemantics, Hit, RelationalConfig, RelationalEngine, Scoring, SearchRequest,
    SearchResponse, XmlEngine,
};
use kwdb::obs::{export, families, MetricsRegistry, TraceLevel};
use kwdb::Engine;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn dblp() -> kwdb::relational::Database {
    generate_dblp(&DblpConfig {
        n_papers: 80,
        n_authors: 40,
        ..Default::default()
    })
}

/// All three data models, every engine wired to the same registry.
///
/// The relational engine's result cache is pinned off: this suite
/// compares hits and asserts exact per-query counter and truncation totals
/// between serial and concurrent runs, which must not depend on what an
/// earlier request happened to leave in a cache.
fn catalog(registry: &Arc<MetricsRegistry>) -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "dblp",
        RelationalEngine::with_config(
            dblp(),
            RelationalConfig {
                result_cache: CacheConfig::disabled(),
                ..Default::default()
            },
        )
        .with_registry(Arc::clone(registry)),
    );
    c.register(
        "social",
        GraphEngine::new(datasets::graphs::generate_graph(&Default::default()))
            .with_result_cache(CacheConfig::disabled())
            .with_registry(Arc::clone(registry)),
    );
    c.register(
        "bib",
        XmlEngine::from_tree(datasets::generate_bib_xml(&Default::default()))
            .with_result_cache(CacheConfig::disabled())
            .with_registry(Arc::clone(registry)),
    );
    c
}

/// How many requests a [`Gated`] engine has started, shared by every engine
/// of one catalog.
#[derive(Default)]
struct Gate {
    started: Mutex<usize>,
    second: Condvar,
}

/// An engine that delegates every call, except that it holds the first
/// request its gate sees until a second one has started. The worker holding
/// the first cannot take the second, so a concurrent batch is served by at
/// least two workers however fast a query is. The hold is bounded: should
/// no second request ever start, the first goes on after the timeout and the
/// spread assertion fails instead of the test hanging.
struct Gated {
    inner: Arc<dyn Engine>,
    gate: Arc<Gate>,
}

impl Engine for Gated {
    fn execute(&self, req: &SearchRequest) -> kwdb::Result<SearchResponse<Hit>> {
        let gate = &self.gate;
        let mut started = gate.started.lock().unwrap();
        *started += 1;
        if *started == 1 {
            let timeout = Duration::from_secs(30);
            drop(gate.second.wait_timeout_while(started, timeout, |n| *n < 2));
        } else {
            drop(started);
            gate.second.notify_all();
        }
        self.inner.execute(req)
    }
}

/// `catalog` with every engine behind one [`Gate`].
fn gated(catalog: Catalog) -> Catalog {
    let gate = Arc::new(Gate::default());
    let mut out = Catalog::new();
    for name in catalog.names() {
        let inner = Arc::clone(catalog.get(name).unwrap());
        let gate = Arc::clone(&gate);
        out.register(name, Arc::new(Gated { inner, gate }) as Arc<dyn Engine>);
    }
    out
}

/// ≥100 mixed requests cycling engines, semantics, k, and candidate-cap
/// budgets. Deadlines are deliberately absent: candidate caps are checked
/// before the clock, so every request is deterministic and serial and
/// concurrent runs must agree hit for hit.
fn mixed_batch() -> Vec<(String, SearchRequest)> {
    let mut batch = Vec::new();
    for i in 0..120usize {
        let k = 1 + i % 5;
        let req = match i % 6 {
            0 => ("dblp", SearchRequest::new("data query").k(k)),
            1 => (
                "social",
                SearchRequest::new("kw0 kw1")
                    .k(k)
                    .semantics(GraphSemantics::SteinerExact),
            ),
            2 => (
                "social",
                SearchRequest::new("kw0 kw1")
                    .k(k)
                    .semantics(GraphSemantics::DistinctRoot),
            ),
            3 => (
                "social",
                SearchRequest::new("kw1 kw2")
                    .k(k)
                    .semantics(GraphSemantics::Banks),
            ),
            4 => ("bib", SearchRequest::new("data query").k(k)),
            // a capped request per cycle keeps the truncation families live
            _ => (
                "dblp",
                SearchRequest::new("query data")
                    .k(k)
                    .budget(Budget::unlimited().with_max_candidates(1 + (i % 3) as u64)),
            ),
        };
        batch.push((req.0.to_string(), req.1));
    }
    batch
}

/// Sum of one operator-counter's worth of work across responses.
fn operator_work(stats: &kwdb::common::QueryStats) -> u64 {
    let o = &stats.operators;
    o.tuples_scanned
        + o.join_probes
        + o.joins_executed
        + o.rows_output
        + o.sorted_accesses
        + o.random_accesses
}

#[test]
fn concurrent_registry_totals_equal_per_query_stat_sums_and_match_serial() {
    let batch = mixed_batch();
    assert!(batch.len() >= 100);

    let reg_serial = Arc::new(MetricsRegistry::new());
    let serial = Dispatcher::new(catalog(&reg_serial))
        .with_registry(Arc::clone(&reg_serial))
        .execute_serial(&batch);

    let reg_conc = Arc::new(MetricsRegistry::new());
    let concurrent = Dispatcher::with_workers(gated(catalog(&reg_conc)), 8)
        .with_registry(Arc::clone(&reg_conc))
        .execute_concurrent(&batch);

    // Every request succeeds, and concurrent output is hit-for-hit
    // identical to serial (same hits, same truncation verdicts).
    assert_eq!(serial.responses.len(), batch.len());
    assert_eq!(concurrent.responses.len(), batch.len());
    for (i, (s, c)) in serial
        .responses
        .iter()
        .zip(concurrent.responses.iter())
        .enumerate()
    {
        let (s, c) = (s.as_ref().unwrap(), c.as_ref().unwrap());
        assert_eq!(
            format!("{:?}", s.hits),
            format!("{:?}", c.hits),
            "request {i}: serial and concurrent hits diverge"
        );
        assert_eq!(
            s.truncation, c.truncation,
            "request {i}: truncation diverges"
        );
    }

    // Registry totals == sum of per-query QueryStats, for both runs.
    for (mode, reg, outcome) in [
        ("serial", &reg_serial, &serial),
        ("concurrent", &reg_conc, &concurrent),
    ] {
        let stats: Vec<_> = outcome.successes().map(|r| r.stats.clone()).collect();
        assert_eq!(
            reg.counter_family_total(families::QUERIES),
            stats.len() as u64,
            "{mode}: query count"
        );
        assert_eq!(
            reg.counter_family_total(families::OPERATORS),
            stats.iter().map(operator_work).sum::<u64>(),
            "{mode}: operator work"
        );
        assert_eq!(
            reg.counter_family_total(families::CANDIDATES),
            stats
                .iter()
                .map(|s| s.candidates_generated + s.candidates_pruned)
                .sum::<u64>(),
            "{mode}: candidates"
        );
        assert_eq!(
            reg.counter_family_total(families::PLAN_CACHE),
            stats
                .iter()
                .map(|s| s.cache_hits + s.cache_misses)
                .sum::<u64>(),
            "{mode}: plan-cache lookups"
        );
        let truncated = outcome
            .successes()
            .filter(|r| r.truncation.is_some())
            .count() as u64;
        assert!(truncated > 0, "{mode}: batch must exercise truncation");
        assert_eq!(
            reg.counter_family_total(families::TRUNCATED),
            truncated,
            "{mode}: truncated queries"
        );
        // every capped dblp request must report the candidate cap, not the
        // (unlimited) deadline
        for r in outcome.successes() {
            if let Some(reason) = r.truncation {
                assert_eq!(reason, TruncationReason::CandidateCapReached);
            }
        }
        // plan generations are cache misses seen by the relational engine
        assert_eq!(
            reg.counter_value(
                families::PLAN_CACHE_GENERATIONS,
                &[("engine", "relational")]
            ),
            reg.counter_value(
                families::PLAN_CACHE,
                &[("engine", "relational"), ("outcome", "miss")]
            ),
            "{mode}: one generation per miss"
        );
        // dispatcher-side accounting
        assert_eq!(
            reg.counter_family_total(families::DISPATCH_REQUESTS),
            batch.len() as u64,
            "{mode}: dispatched requests"
        );
        assert_eq!(
            reg.counter_value(families::DISPATCH_REQUESTS, &[("outcome", "ok")]),
            batch.len() as u64,
            "{mode}: all ok"
        );
        assert_eq!(
            reg.counter_family_total(families::DISPATCH_WORKER_REQUESTS),
            batch.len() as u64,
            "{mode}: per-worker counts sum to the batch"
        );
    }

    // Both registries agree on every deterministic counter: the same work
    // was done, only the interleaving differed.
    assert_eq!(
        reg_serial.counter_family_total(families::OPERATORS),
        reg_conc.counter_family_total(families::OPERATORS)
    );
    assert_eq!(
        reg_serial.counter_family_total(families::CANDIDATES),
        reg_conc.counter_family_total(families::CANDIDATES)
    );
    assert_eq!(
        reg_serial.counter_family_total(families::TRUNCATED),
        reg_conc.counter_family_total(families::TRUNCATED)
    );

    // in-flight gauge must return to zero once the batch drains
    assert_eq!(
        reg_conc.gauge(families::DISPATCH_INFLIGHT, &[]).get(),
        0,
        "inflight gauge must drain"
    );

    // concurrent run actually spread work over >1 worker
    let snap = reg_conc.snapshot();
    let workers_used = snap
        .counters
        .iter()
        .filter(|(id, v)| id.name == families::DISPATCH_WORKER_REQUESTS && *v > 0)
        .count();
    assert!(workers_used > 1, "expected >1 worker, got {workers_used}");
}

#[test]
fn prometheus_export_lists_every_live_family_with_labels() {
    let reg = Arc::new(MetricsRegistry::new());
    let catalog = catalog(&reg);
    let batch = mixed_batch();
    let out = Dispatcher::with_workers(catalog, 4)
        .with_registry(Arc::clone(&reg))
        .execute_concurrent(&batch[..12]);
    assert!(out.responses.iter().all(|r| r.is_ok()));

    let text = export::to_prometheus(&reg.snapshot());
    for family in [
        families::QUERIES,
        families::QUERY_LATENCY,
        families::PHASE_LATENCY,
        families::OPERATORS,
        families::CANDIDATES,
        families::PLAN_CACHE,
        families::DISPATCH_QUEUE_WAIT,
        families::DISPATCH_INFLIGHT,
        families::DISPATCH_REQUESTS,
        families::DISPATCH_WORKER_REQUESTS,
    ] {
        assert!(text.contains(family), "missing family {family}");
        assert!(
            text.contains(&format!("# TYPE {family}")),
            "missing TYPE for {family}"
        );
    }
    assert!(text.contains(r#"engine="relational""#));
    assert!(text.contains(r#"algorithm="dpbf""#) || text.contains(r#"algorithm="banks""#));
    assert!(text.contains(&format!("{}_bucket", families::QUERY_LATENCY)));
    assert!(text.contains(&format!("{}_count", families::QUERY_LATENCY)));
}

#[test]
fn json_snapshot_round_trips_exactly() {
    let reg = Arc::new(MetricsRegistry::new());
    let catalog = catalog(&reg);
    let batch = mixed_batch();
    let out = Dispatcher::new(catalog)
        .with_registry(Arc::clone(&reg))
        .execute_serial(&batch[..12]);
    assert!(out.responses.iter().all(|r| r.is_ok()));

    let snap = reg.snapshot();
    let rt = export::from_json(&export::to_json(&snap)).expect("round-trip parse");
    assert_eq!(rt, snap, "JSON export must round-trip losslessly");
}

#[test]
fn trace_off_is_absent_and_results_are_identical_across_levels() {
    let engine = RelationalEngine::new(dblp());
    let base = SearchRequest::new("data query").k(5);

    let off = engine
        .execute(&base.clone().trace(TraceLevel::Off))
        .unwrap();
    assert!(off.trace.is_none(), "TraceLevel::Off must attach no trace");

    let full = engine
        .execute(&base.clone().trace(TraceLevel::Full))
        .unwrap();
    assert!(full.trace.is_some());
    assert_eq!(
        format!("{:?}", off.hits),
        format!("{:?}", full.hits),
        "tracing must not change results"
    );

    let phases = engine
        .execute(&base.trace(TraceLevel::Phases))
        .unwrap()
        .trace
        .expect("Phases level attaches a trace");
    let full = full.trace.unwrap();
    // Full adds events on top of the phase spans Phases already has.
    assert!(full.render_text().len() >= phases.render_text().len());
}

#[test]
fn relational_and_graph_traces_render_phases_and_events() {
    let rel = RelationalEngine::new(dblp());
    let resp = rel
        .execute(
            &SearchRequest::new("data query")
                .k(3)
                .trace(TraceLevel::Full),
        )
        .unwrap();
    let trace = resp.trace.expect("full trace");
    let text = trace.render_text();
    for needle in ["parse", "plan", "evaluate", "plan cache"] {
        assert!(
            text.contains(needle),
            "relational trace missing {needle:?}:\n{text}"
        );
    }
    let json = trace.to_json();
    assert!(
        json.trim_start().starts_with('{'),
        "trace JSON must be an object"
    );
    assert!(json.contains("plan"), "trace JSON must carry the spans");

    let graph = GraphEngine::new(datasets::graphs::generate_graph(&Default::default()));
    let resp = graph
        .execute(
            &SearchRequest::new("kw0 kw1")
                .k(3)
                .semantics(GraphSemantics::SteinerExact)
                .trace(TraceLevel::Full),
        )
        .unwrap();
    let text = resp.trace.expect("graph trace").render_text();
    assert!(
        text.contains("evaluate"),
        "graph trace missing evaluate:\n{text}"
    );
}

/// One clock times a query: for a traced request on every engine path, the
/// spans are the phases the path ran, in [`Phase`] order, each span's
/// duration is that phase's `stats.phases` slot bit for bit, and the trace
/// total is the phase sum.
#[test]
fn trace_spans_are_the_stats_phase_timings_on_every_engine_path() {
    use Phase::{Build, Evaluate, Facets, Parse, Plan};
    fn check<H>(path: &str, resp: SearchResponse<H>, expected: &[Phase]) {
        let trace = resp.trace.expect("a traced request carries its trace");
        let names: Vec<&str> = trace.phases.iter().map(|s| s.name.as_str()).collect();
        let want: Vec<&str> = expected.iter().map(|p| p.name()).collect();
        assert_eq!(names, want, "{path}: span names");
        let mut spans = Duration::ZERO;
        for (span, &phase) in trace.phases.iter().zip(expected) {
            assert_eq!(
                span.duration, resp.stats.phases[phase],
                "{path}: the {} span and its stats slot",
                span.name
            );
            spans += span.duration;
        }
        let stats_total = resp.stats.phases.total();
        assert_eq!(spans, stats_total, "{path}: every timed phase has a span");
        assert_eq!(trace.total, stats_total, "{path}: the trace total");
    }
    let traced = |q: &str| SearchRequest::new(q).k(3).trace(TraceLevel::Full);

    let rel = RelationalEngine::new(dblp());
    let full = [Parse, Build, Plan, Evaluate, Facets];
    check(
        "relational",
        rel.execute(&traced("data query")).unwrap(),
        &full,
    );
    let faceted = traced("data query").facet(FacetSpec::terms("conference.name", 10));
    check("relational faceted", rel.execute(&faceted).unwrap(), &full);
    let uncovered = rel.execute(&traced("data zqxwvy")).unwrap();
    assert!(uncovered.hits.is_empty());
    check("relational uncovered keyword", uncovered, &[Parse, Build]);
    let spark = traced("data query").scoring(Scoring::Spark);
    check("relational spark", rel.execute(&spark).unwrap(), &full);

    let graph = GraphEngine::new(datasets::graphs::generate_graph(&Default::default()));
    for (semantics, expected) in [
        (GraphSemantics::SteinerExact, &[Parse, Evaluate][..]),
        (GraphSemantics::DistinctRoot, &[Parse, Build, Evaluate][..]),
    ] {
        let req = traced("kw0 kw1").semantics(semantics);
        check(
            &format!("graph {semantics:?}"),
            graph.execute(&req).unwrap(),
            expected,
        );
    }

    let xml = XmlEngine::from_tree(datasets::generate_bib_xml(&Default::default()));
    let resp = xml.execute(&traced("data query")).unwrap();
    check("xml", resp, &[Parse, Build, Evaluate, Facets]);
}

#[test]
fn candidate_cap_truncation_reports_reason_and_counts_in_registry() {
    let reg = Arc::new(MetricsRegistry::new());
    // one CN considered per budget ticket: the cap verdict is
    // machine-independent
    let engine = RelationalEngine::new(dblp()).with_registry(Arc::clone(&reg));
    let resp = engine
        .execute(
            &SearchRequest::new("data query")
                .k(5)
                .budget(Budget::unlimited().with_max_candidates(1)),
        )
        .unwrap();
    assert!(resp.truncated());
    assert_eq!(resp.truncation, Some(TruncationReason::CandidateCapReached));
    assert_eq!(
        reg.counter_value(
            families::TRUNCATED,
            &[
                ("engine", "relational"),
                ("algorithm", "parallel_cn"),
                ("reason", "candidate_cap"),
            ]
        ),
        1
    );
}

#[test]
fn tiny_plan_cache_evicts_and_reports_size() {
    let reg = Arc::new(MetricsRegistry::new());
    let engine = RelationalEngine::with_config(
        dblp(),
        RelationalConfig {
            max_cache_entries: 1,
            ..Default::default()
        },
    )
    .with_registry(Arc::clone(&reg));

    // One keyword, then two: the mask signatures differ whatever the data
    // holds. A repeat of the second at another `k` (a result-cache miss)
    // shares its plan.
    engine.execute(&SearchRequest::new("data").k(3)).unwrap();
    engine
        .execute(&SearchRequest::new("data query").k(3))
        .unwrap();
    engine
        .execute(&SearchRequest::new("data query").k(4))
        .unwrap();

    assert_eq!(
        reg.counter_value(
            families::PLAN_CACHE_GENERATIONS,
            &[("engine", "relational")]
        ),
        2,
        "two distinct mask signatures, two generations"
    );
    assert_eq!(
        reg.counter_value(families::PLAN_CACHE_EVICTIONS, &[("engine", "relational")]),
        1,
        "second insert must evict the first plan"
    );
    assert_eq!(
        reg.gauge(families::PLAN_CACHE_SIZE, &[("engine", "relational")])
            .get(),
        1,
        "cache stays at its cap"
    );
}
