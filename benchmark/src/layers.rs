//! Per-layer measurements of the traced run. Each layer is measured from
//! outside, by timing calls into its public functions:
//!
//! * *layer replay* — a sampled request is taken apart into the calls the
//!   engine makes for it (`parse_query`, `TupleSets::build`,
//!   `CnGenerator::generate`, `parallel_topk_*`, rendering, summaries), each
//!   under its own span and the request's id;
//! * *micro-measures* — small fixed loops over one layer's API (cache,
//!   hit path, ingest path, index layout);
//! * *registry facts* — counters the deployed shape already keeps.

use crate::gen::{harmonic_cdf, Cell, IngestGen, WriteOp};
use crate::harness::generate_cns;
use crate::metrics::{ratio, Values};
use crate::stats;
use crate::trace::Tracer;
use kwdb::common::index::Layout;
use kwdb::common::text::parse_query;
use kwdb::common::{Budget, CacheConfig, Rng, ScratchPool, ShardedCache, Value};
use kwdb::dispatch::{Catalog, Dispatcher};
use kwdb::engine::{RelationalEngine, SearchRequest};
use kwdb::explore::{object_summary, render_summary};
use kwdb::obs::{families, MetricsRegistry};
use kwdb::rank::CorpusStats;
use kwdb::relational::{Database, ExecStats, Row};
use kwdb::relsearch::facets::{resolve_facets, resolve_refinements, FacetRequest};
use kwdb::relsearch::pexec::{parallel_topk_budgeted, parallel_topk_faceted, EvalScratch};
use kwdb::relsearch::topk::{global_pipeline_counted, RankedResult, TopKQuery};
use kwdb::relsearch::tupleset::TermCache;
use kwdb::relsearch::{corpus_stats, ResultScorer, TupleSets};
use std::sync::Arc;
use std::time::Instant;

pub fn row_of(cells: &[Cell]) -> Row {
    cells
        .iter()
        .map(|c| match c {
            Cell::Int(i) => Value::from(*i),
            Cell::Text(s) => Value::from(s.as_str()),
        })
        .collect()
}

#[derive(Default)]
struct ReplaySums {
    requests: u64,
    execute_ns: u64,
    /// Time of the calls the engine's own execution is made of.
    layers_ns: u64,
    build: Vec<f64>,
    cached_build: Vec<f64>,
    generate: Vec<f64>,
    evaluate: Vec<f64>,
    evaluate_w1: Vec<f64>,
    global: Vec<f64>,
    facets: Vec<f64>,
    summary_ns: u64,
    summary_hits: u64,
    alternatives_ns: u64,
}

/// Time the replays may spend on the alternative evaluators (one worker,
/// global pipeline), which exist for the in-run ratios only: the global
/// pipeline takes seconds on a heavy query.
const ALTERNATIVES_BUDGET_NS: u64 = 1_000_000_000;

/// Replays relational requests layer by layer on the engine's own database
/// snapshot. Holds that snapshot: do not keep one across ingests (a held
/// snapshot turns the engine's next mutation into a full copy).
struct RelationalReplay<'e> {
    engine: &'e RelationalEngine,
    db: Arc<Database>,
    corpus: Arc<CorpusStats>,
    terms: TermCache,
    pool: ScratchPool<EvalScratch>,
    workers: usize,
    sums: ReplaySums,
}

impl<'e> RelationalReplay<'e> {
    fn new(engine: &'e RelationalEngine) -> Self {
        let db = engine.database();
        let corpus = Arc::new(corpus_stats(&db));
        RelationalReplay {
            engine,
            db,
            corpus,
            terms: TermCache::new(CacheConfig::default()),
            pool: ScratchPool::new(),
            workers: engine.resolved_workers(),
            sums: ReplaySums::default(),
        }
    }

    fn replay(&mut self, tracer: &mut Tracer, id: u64, req: &SearchRequest) {
        let us = |ns: u64| ns as f64 / 1e3;
        let db = &*self.db;
        let root = tracer.begin("replay", None, id);
        let (resp, execute_ns) = tracer.span("engine.execute", Some(root), id, || {
            self.engine.execute(&req.clone().caching(false))
        });
        let plan_was_cached = resp.is_ok_and(|r| r.stats.cache_hits == 1);
        let (keywords, parse_ns) = tracer.span("common.parse_query", Some(root), id, || {
            parse_query(req.query())
        });
        let (ts, build_ns) = tracer.span("relsearch.tupleset.build", Some(root), id, || {
            TupleSets::build(db, &keywords).expect("indexed database")
        });
        // first call fills the term cache, the timed one finds it warm
        let _ = TupleSets::build_cached(db, &keywords, &self.terms);
        let (_, cached_ns) = tracer.span("relsearch.tupleset.build_cached", Some(root), id, || {
            TupleSets::build_cached(db, &keywords, &self.terms).expect("indexed database")
        });
        self.sums.requests += 1;
        self.sums.execute_ns += execute_ns;
        self.sums.build.push(us(build_ns));
        self.sums.cached_build.push(us(cached_ns));
        let mut layers_ns = parse_ns + cached_ns;
        if ts.covers_all_keywords() {
            let (cns, generate_ns) = tracer.span("relsearch.cn.generate", Some(root), id, || {
                generate_cns(db, &ts)
            });
            self.sums.generate.push(us(generate_ns));
            if !plan_was_cached {
                layers_ns += generate_ns;
            }
            let scorer = ResultScorer::from_stats(Arc::clone(&self.db), Arc::clone(&self.corpus));
            let q = TopKQuery {
                db,
                ts: &ts,
                cns: &cns,
                scorer: &scorer,
                keywords: &keywords,
            };
            let k = req.k_value();
            let exec = ExecStats::new();
            let faceted = !req.facet_specs().is_empty() || !req.refinement_list().is_empty();
            let results: Vec<RankedResult> = if faceted {
                let facets = resolve_facets(db, req.facet_specs()).expect("known attributes");
                let refinements =
                    resolve_refinements(db, req.refinement_list()).expect("known attributes");
                let freq = FacetRequest {
                    facets: &facets,
                    refinements: &refinements,
                };
                let ((outcome, _counts), ns) =
                    tracer.span("relsearch.facets.evaluate", Some(root), id, || {
                        parallel_topk_faceted(
                            &q,
                            k,
                            &exec,
                            &Budget::unlimited(),
                            self.workers,
                            &self.pool,
                            &freq,
                        )
                    });
                self.sums.facets.push(us(ns));
                layers_ns += ns;
                outcome.results
            } else {
                let (outcome, ns) = tracer.span("relsearch.pexec.evaluate", Some(root), id, || {
                    parallel_topk_budgeted(
                        &q,
                        k,
                        &exec,
                        &Budget::unlimited(),
                        self.workers,
                        &self.pool,
                    )
                });
                self.sums.evaluate.push(us(ns));
                layers_ns += ns;
                if self.sums.alternatives_ns < ALTERNATIVES_BUDGET_NS {
                    let alt = tracer.begin("replay.alternatives", Some(root), id);
                    let (_, w1) = tracer.span("relsearch.pexec.evaluate_w1", Some(alt), id, || {
                        parallel_topk_budgeted(&q, k, &exec, &Budget::unlimited(), 1, &self.pool)
                    });
                    let (_, global) = tracer.span("relsearch.topk.global", Some(alt), id, || {
                        global_pipeline_counted(&q, k, &exec, &Budget::unlimited())
                    });
                    tracer.end(alt);
                    self.sums.evaluate_w1.push(us(w1));
                    self.sums.global.push(us(global));
                    self.sums.alternatives_ns += w1 + global;
                }
                outcome.results
            };
            let (_, render_ns) = tracer.span("engine.render", Some(root), id, || {
                results
                    .iter()
                    .map(|r| {
                        let parts: Vec<String> = r
                            .result
                            .tuples
                            .iter()
                            .map(|&t| db.format_tuple(t))
                            .collect();
                        parts.join(" ⋈ ")
                    })
                    .collect::<Vec<_>>()
            });
            layers_ns += render_ns;
            if req.summary_size() > 0 && !results.is_empty() {
                let (_, ns) = tracer.span("explore.summary", Some(root), id, || {
                    results
                        .iter()
                        .map(|r| {
                            render_summary(
                                db,
                                &object_summary(db, &r.result.tuples, req.summary_size()),
                            )
                        })
                        .collect::<Vec<_>>()
                });
                self.sums.summary_ns += ns;
                self.sums.summary_hits += results.len() as u64;
                layers_ns += ns;
            }
        }
        self.sums.layers_ns += layers_ns;
        tracer.end(root);
    }

    fn replayed(&self) -> u64 {
        self.sums.requests
    }

    fn report(mut self, values: &mut Values) {
        let s = &mut self.sums;
        if s.requests == 0 {
            return;
        }
        values.set(
            "engine.relational.execute_ms",
            s.execute_ns as f64 / 1e6 / s.requests as f64,
        );
        values.set(
            "engine.self_share",
            1.0 - ratio(s.layers_ns as f64, s.execute_ns as f64),
        );
        // Ratios of totals (the heavy requests are what they are about),
        // over the replays that ran the alternatives: those stop at their
        // budget, `evaluate` has a sample per replay.
        let total = |v: &[f64]| v.iter().sum::<f64>();
        values.set(
            "relsearch.pooled_vs_global_ratio",
            ratio(total(&s.evaluate_w1), total(&s.global)),
        );
        values.set(
            "relsearch.workersN_vs_1_ratio",
            ratio(
                total(&s.evaluate[..s.evaluate_w1.len()]),
                total(&s.evaluate_w1),
            ),
        );
        // medians last: they sort their samples in place
        values.set("relsearch.tupleset.build_us", stats::median(&mut s.build));
        values.set(
            "relsearch.tupleset.cached_build_us",
            stats::median(&mut s.cached_build),
        );
        values.set("relsearch.cn.generate_us", stats::median(&mut s.generate));
        values.set(
            "relsearch.pexec.evaluate_us",
            stats::median(&mut s.evaluate),
        );
        values.set(
            "relsearch.pexec.evaluate_w1_us",
            stats::median(&mut s.evaluate_w1),
        );
        values.set("relsearch.topk.global_us", stats::median(&mut s.global));
        values.set("relsearch.facets.evaluate_us", stats::median(&mut s.facets));
        values.set(
            "explore.summary.us_per_hit",
            ratio(s.summary_ns as f64 / 1e3, s.summary_hits as f64),
        );
    }
}

/// Wall-clock cap on the layer replays of one run.
const REPLAY_BUDGET_S: f64 = 3.0;

/// Everything the traced run of a relational workload measures after its
/// load: the layer replays of the sampled requests (capped at
/// [`REPLAY_BUDGET_S`]), the index facts, the hit-path twins warmed with
/// `warm` queries, the cache micro-measure and the registry facts. Returns
/// how many requests were replayed.
pub fn relational_traced(
    values: &mut Values,
    tracer: &mut Tracer,
    engine: &RelationalEngine,
    registry: &MetricsRegistry,
    sampled: &[(u64, SearchRequest)],
    warm: &[String],
    scale: impl Fn(usize) -> usize,
) -> u64 {
    let mut replayer = RelationalReplay::new(engine);
    let replaying = Instant::now();
    for (id, req) in sampled {
        if replaying.elapsed().as_secs_f64() > REPLAY_BUDGET_S {
            break;
        }
        replayer.replay(tracer, *id, req);
    }
    let replayed = replayer.replayed();
    let db = Arc::clone(&replayer.db);
    replayer.report(values);
    index_facts(values, &db);
    values.set(
        "index.segments_sealed",
        engine.segment_counts().sealed as f64,
    );
    hit_path(values, &db, warm, scale(4000));
    cache_micro(values, scale(200_000));
    registry_facts(values, registry);
    replayed
}

/// `common::cache` alone: a `ShardedCache` a quarter the size of its key
/// pool under Zipf keys — the larger-than-cache case the workloads cannot
/// reach with the engines' default 4 096-entry budget.
pub fn cache_micro(values: &mut Values, ctx_ops: usize) {
    const POOL: usize = 4096;
    let cfg = CacheConfig {
        max_entries: POOL / 4,
        ..CacheConfig::default()
    };
    let cache: ShardedCache<u64, u64> = ShardedCache::new(cfg);
    let n = ctx_ops;
    // misses: fresh keys, each a failed get plus an insert
    let t = Instant::now();
    for key in 0..n as u64 {
        if cache.get(&(key + POOL as u64)).is_none() {
            cache.insert(key + POOL as u64, key, 16);
        }
    }
    values.set(
        "cache.miss_insert_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
    );
    // hits: a resident working set
    let resident: Vec<u64> = (0..256).collect();
    for &key in &resident {
        cache.insert(key, key, 16);
    }
    let t = Instant::now();
    let mut found = 0u64;
    for i in 0..n {
        found += u64::from(cache.get(&resident[i % resident.len()]).is_some());
    }
    values.set("cache.get_hit_ns", t.elapsed().as_nanos() as f64 / n as f64);
    std::hint::black_box(found);
    // the mix: Zipf keys over a pool four times the capacity
    let cache: ShardedCache<u64, u64> = ShardedCache::new(cfg);
    let harmonic = harmonic_cdf(POOL);
    let mut rng = Rng::seed_from_u64(0xcac4e);
    let mut hits = 0u64;
    for _ in 0..n {
        let target = rng.gen_f64() * harmonic[POOL - 1];
        let key = harmonic.partition_point(|&c| c < target) as u64;
        if cache.get(&key).is_some() {
            hits += 1;
        } else {
            cache.insert(key, key, 16);
        }
    }
    values.set("cache.hit_ratio_zipf", hits as f64 / n as f64);
    values.set("cache.evictions", cache.stats().evictions as f64);
}

/// The hit path, layer by layer, on twin engines over one shared database:
/// `recorded` carries a registry (the deployed shape), `bare` does not.
fn hit_path(values: &mut Values, db: &Arc<Database>, queries: &[String], rounds: usize) {
    let registry = Arc::new(MetricsRegistry::new());
    let recorded =
        Arc::new(RelationalEngine::new(Arc::clone(db)).with_registry(Arc::clone(&registry)));
    let bare = RelationalEngine::new(Arc::clone(db));
    let mut catalog = Catalog::new();
    catalog.register(
        "twin",
        Arc::clone(&recorded) as Arc<dyn kwdb::engine::Engine>,
    );
    let dispatcher = Dispatcher::new(catalog).with_registry(registry);
    let requests: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::new(q.as_str()).k(10))
        .collect();
    for req in &requests {
        // a trace-sampled first execution is not stored: ask twice
        for _ in 0..2 {
            let _ = recorded.execute(req);
            let _ = bare.execute(req);
        }
    }
    let batches: Vec<Vec<(String, SearchRequest)>> = requests
        .iter()
        .map(|r| vec![("twin".to_string(), r.clone())])
        .collect();
    let (mut direct, mut nobody, mut dispatched) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..rounds {
        let req = &requests[i % requests.len()];
        let t = Instant::now();
        let r = recorded.execute(req);
        let ns = t.elapsed().as_nanos() as f64;
        if r.is_ok_and(|r| r.stats.result_cache_hits == 1) {
            direct.push(ns / 1e3);
        }
        let t = Instant::now();
        let r = bare.execute(req);
        let ns = t.elapsed().as_nanos() as f64;
        if r.is_ok_and(|r| r.stats.result_cache_hits == 1) {
            nobody.push(ns / 1e3);
        }
        let t = Instant::now();
        let out = dispatcher.execute_serial(&batches[i % batches.len()]);
        let ns = t.elapsed().as_nanos() as f64;
        if out.totals.result_cache_hits == 1 {
            dispatched.push(ns / 1e3);
        }
    }
    let hit = stats::median(&mut direct);
    let hit_bare = stats::median(&mut nobody);
    values.set("engine.hit_us", hit);
    values.set("engine.hit_bare_us", hit_bare);
    values.set("obs.record_overhead_ratio", ratio(hit, hit_bare));
    values.set(
        "dispatch.overhead_us",
        (stats::median(&mut dispatched) - hit).max(0.0),
    );
    let batch: Vec<(String, SearchRequest)> = requests
        .iter()
        .cycle()
        .take(32)
        .map(|r| ("twin".to_string(), r.clone()))
        .collect();
    let mut spawn: Vec<f64> = (0..(rounds / 40).max(5))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(dispatcher.execute_concurrent(&batch));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    values.set("dispatch.batch_spawn_us", stats::median(&mut spawn));
}

/// Size facts of the text index, and the same data re-encoded as blocks.
fn index_facts(values: &mut Values, db: &Database) {
    let ix = db.text_index().expect("indexed database");
    let plain = ix.index_stats();
    values.set("index.postings", plain.postings as f64);
    values.set("index.posting_bytes", plain.posting_bytes as f64);
    values.set(
        "index.bytes_per_tuple",
        ratio(plain.posting_bytes as f64, db.tuple_count() as f64),
    );
    if let Some(build) = plain.build {
        values.set("index.build_s", build.as_secs_f64());
    }
    let mut blocks = db.clone();
    blocks.set_posting_layout(Layout::Blocks);
    let encoded = blocks.text_index().expect("indexed database").index_stats();
    values.set(
        "index.blocks_bytes_ratio",
        ratio(encoded.posting_bytes as f64, plain.posting_bytes as f64),
    );
}

/// The write path below the dispatcher: `Database::ingest` alone, the
/// engine's `ingest_tuple` on a twin, one commit and one merge.
pub fn ingest_micro(values: &mut Values, db: &Database, gen: &IngestGen, papers: usize) {
    let mut gen = gen.clone();
    let ops: Vec<WriteOp> = (0..papers).flat_map(|_| gen.next_paper().1).collect();
    let ingests: Vec<(&'static str, Row)> = ops
        .iter()
        .filter_map(|op| match op {
            WriteOp::Ingest(table, cells) => Some((*table, row_of(cells))),
            WriteOp::DeletePaper(_) => None,
        })
        .collect();
    let mut raw = db.clone();
    let t = Instant::now();
    for (table, row) in &ingests {
        raw.ingest(table, row.clone()).expect("FK-valid stream");
    }
    let raw_us = t.elapsed().as_nanos() as f64 / 1e3 / ingests.len() as f64;
    values.set("relational.ingest_us", raw_us);
    let t = Instant::now();
    raw.commit_index();
    values.set("index.commit_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    raw.merge_index();
    values.set("index.merge_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(raw);
    let twin = RelationalEngine::new(db.clone()).with_registry(Arc::new(MetricsRegistry::new()));
    let t = Instant::now();
    for (table, row) in &ingests {
        twin.ingest_tuple(table, row.clone())
            .expect("FK-valid stream");
    }
    let engine_us = t.elapsed().as_nanos() as f64 / 1e3 / ingests.len() as f64;
    values.set("engine.ingest_overhead_ratio", ratio(engine_us, raw_us));
}

/// What the shared registry — attached to the dispatcher and every engine —
/// counted over the whole run.
pub fn registry_facts(values: &mut Values, registry: &MetricsRegistry) {
    let t = Instant::now();
    let snap = registry.snapshot();
    values.set("obs.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
    let hits = snap.counter_total(families::TUPLESET_CACHE_HITS) as f64;
    let misses = snap.counter_total(families::TUPLESET_CACHE_MISSES) as f64;
    values.set(
        "relsearch.tupleset.cache_hit_ratio",
        ratio(hits, hits + misses),
    );
    let gauge = |name: &str| -> f64 {
        snap.gauges
            .iter()
            .filter(|(id, _)| id.name == name)
            .map(|&(_, v)| v as f64)
            .sum()
    };
    values.set(
        "cache.result_entries",
        gauge(families::RESULT_CACHE_ENTRIES),
    );
    values.set("cache.result_bytes", gauge(families::RESULT_CACHE_BYTES));
    let mut wait = kwdb::obs::HistogramSnapshot::default();
    for (id, h) in &snap.histograms {
        if id.name == families::DISPATCH_QUEUE_WAIT {
            wait.merge(h);
        }
    }
    if wait.count > 0 {
        values.set("dispatch.queue_wait_p50_us", wait.p50() as f64 / 1e3);
    }
    values.set("obs.flight_records", registry.flight().appended() as f64);
    values.set("obs.flight_dropped", registry.flight().dropped() as f64);
}
