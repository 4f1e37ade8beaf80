//! Concurrent dispatch over a catalog of heterogeneous engines.
//!
//! A [`Catalog`] maps engine names to `Arc<dyn Engine>` — one relational
//! database, three data graphs, an XML corpus, whatever mix the deployment
//! serves. A [`Dispatcher`] then fans a batch of `(engine name, request)`
//! pairs out over a bounded pool of scoped worker threads, preserves input
//! order in the output, and merges every response's [`QueryStats`] into one
//! batch-level total.
//!
//! This is what the ownership refactor buys: engines are `Send + Sync` and
//! hold their data behind `Arc`s, so the same engine instance can serve
//! requests from many worker threads at once with no cloning and no
//! serialization beyond its own read-mostly caches.
//!
//! ```
//! use kwdb::dispatch::{Catalog, Dispatcher};
//! use kwdb::engine::{GraphEngine, RelationalEngine, SearchRequest};
//! use kwdb::datasets::{generate_dblp, DblpConfig};
//!
//! let mut catalog = Catalog::new();
//! catalog.register(
//!     "dblp",
//!     RelationalEngine::new(generate_dblp(&DblpConfig::default())),
//! );
//! catalog.register(
//!     "social",
//!     GraphEngine::new(kwdb::datasets::graphs::generate_graph(&Default::default())),
//! );
//!
//! let batch = vec![
//!     ("dblp".to_string(), SearchRequest::new("data query").k(3)),
//!     ("social".to_string(), SearchRequest::new("kw0 kw1").k(3)),
//! ];
//! let outcome = Dispatcher::new(catalog).execute_concurrent(&batch);
//! assert_eq!(outcome.responses.len(), 2);
//! ```

use crate::engine::{
    CommitOutcome, DeleteKey, Engine, Hit, IngestRecord, MutableEngine, SearchRequest,
    SearchResponse,
};
use kwdb_common::{KwdbError, QueryStats, Result};
use kwdb_obs::{families, Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A name → engine registry.
///
/// Engines are stored as `Arc<dyn Engine>`, so one engine instance can be
/// registered under several names, shared with callers outside the catalog,
/// and queried from any number of threads.
#[derive(Default, Clone)]
pub struct Catalog {
    engines: BTreeMap<String, Arc<dyn Engine>>,
    /// The subset of engines that also accept mutations. Entries here are
    /// always mirrored in `engines` (upcast), so every mutable engine is
    /// queryable under the same name.
    mutable: BTreeMap<String, Arc<dyn MutableEngine>>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register `engine` under `name`, replacing any previous entry. Accepts
    /// a concrete engine (moved in) or an `Arc<dyn Engine>` handle.
    pub fn register(&mut self, name: impl Into<String>, engine: impl IntoEngineHandle) {
        self.engines.insert(name.into(), engine.into_handle());
    }

    /// Register a mutable engine under `name`: queryable through the usual
    /// read surface *and* reachable by [`Catalog::ingest`] /
    /// [`Catalog::delete`] / [`Catalog::commit`]. Replaces any previous
    /// entry under the name.
    pub fn register_mutable(
        &mut self,
        name: impl Into<String>,
        engine: impl IntoMutableEngineHandle,
    ) {
        let name = name.into();
        let handle = engine.into_mutable_handle();
        self.engines
            .insert(name.clone(), Arc::clone(&handle) as Arc<dyn Engine>);
        self.mutable.insert(name, handle);
    }

    /// Look up an engine by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Engine>> {
        self.engines.get(name)
    }

    /// Resolve `name` to its mutation surface, with typed errors: a name
    /// absent from the whole catalog is [`KwdbError::UnknownObject`]; a name
    /// registered read-only is [`KwdbError::ReadOnly`].
    fn mutable_engine(&self, name: &str) -> Result<&Arc<dyn MutableEngine>> {
        match self.mutable.get(name) {
            Some(engine) => Ok(engine),
            None if self.engines.contains_key(name) => {
                Err(KwdbError::ReadOnly(format!("{name:?}")))
            }
            None => Err(KwdbError::UnknownObject(format!(
                "no engine named {name:?} in catalog (have: {:?})",
                self.names().collect::<Vec<_>>()
            ))),
        }
    }

    /// Ingest one record into the named engine.
    pub fn ingest(&self, name: &str, record: IngestRecord) -> Result<()> {
        self.mutable_engine(name)?.ingest(record)
    }

    /// Delete one document from the named engine.
    pub fn delete(&self, name: &str, key: DeleteKey) -> Result<()> {
        self.mutable_engine(name)?.delete(key)
    }

    /// Commit the named engine: a generation event.
    pub fn commit(&self, name: &str) -> Result<CommitOutcome> {
        self.mutable_engine(name)?.commit()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.engines.keys().map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.engines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Execute one request against the named engine.
    pub fn execute(&self, name: &str, req: &SearchRequest) -> Result<SearchResponse<Hit>> {
        match self.engines.get(name) {
            Some(engine) => engine.execute(req),
            None => Err(KwdbError::UnknownObject(format!(
                "no engine named {name:?} in catalog (have: {:?})",
                self.names().collect::<Vec<_>>()
            ))),
        }
    }
}

/// Everything `Catalog::register` accepts as an engine.
pub trait IntoEngineHandle {
    fn into_handle(self) -> Arc<dyn Engine>;
}

impl<E: Engine + 'static> IntoEngineHandle for E {
    fn into_handle(self) -> Arc<dyn Engine> {
        Arc::new(self)
    }
}

impl IntoEngineHandle for Arc<dyn Engine> {
    fn into_handle(self) -> Arc<dyn Engine> {
        self
    }
}

/// Everything `Catalog::register_mutable` accepts.
pub trait IntoMutableEngineHandle {
    fn into_mutable_handle(self) -> Arc<dyn MutableEngine>;
}

impl<E: MutableEngine + 'static> IntoMutableEngineHandle for E {
    fn into_mutable_handle(self) -> Arc<dyn MutableEngine> {
        Arc::new(self)
    }
}

impl IntoMutableEngineHandle for Arc<dyn MutableEngine> {
    fn into_mutable_handle(self) -> Arc<dyn MutableEngine> {
        self
    }
}

/// The outcome of a dispatched batch.
#[derive(Debug)]
pub struct DispatchOutcome {
    /// One entry per input request, in input order. `Err` entries are
    /// per-request failures (unknown engine name, parse errors …) — they
    /// never abort the rest of the batch.
    pub responses: Vec<Result<SearchResponse<Hit>>>,
    /// Every successful response's [`QueryStats`] merged into one total.
    pub totals: QueryStats,
}

impl DispatchOutcome {
    /// Successful responses, in input order, skipping failures.
    pub fn successes(&self) -> impl Iterator<Item = &SearchResponse<Hit>> {
        self.responses.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// How a batch was executed — the `mode` label of the queue-wait histogram.
#[derive(Clone, Copy)]
enum Mode {
    Serial,
    Concurrent,
}

/// The dispatcher's registry handles. Like the engines' (see
/// [`kwdb_obs::EngineInstruments`]), each is looked up once, the first time
/// the instrument is written, and kept: a dispatched request then costs
/// three atomic adds here, not three registry lookups and a formatted
/// worker label.
struct DispatchInstruments {
    registry: Arc<MetricsRegistry>,
    /// By [`Mode`].
    queue_wait: [OnceLock<Arc<Histogram>>; 2],
    /// ok, error.
    requests: [OnceLock<Arc<Counter>>; 2],
    /// One slot per worker of the pool.
    worker_requests: Vec<OnceLock<Arc<Counter>>>,
    inflight: OnceLock<Arc<Gauge>>,
}

impl DispatchInstruments {
    fn new(registry: Arc<MetricsRegistry>, workers: usize) -> Self {
        DispatchInstruments {
            registry,
            queue_wait: Default::default(),
            requests: Default::default(),
            worker_requests: (0..workers).map(|_| OnceLock::new()).collect(),
            inflight: OnceLock::new(),
        }
    }

    fn queue_wait(&self, mode: Mode) -> &Histogram {
        self.queue_wait[mode as usize].get_or_init(|| {
            let mode = match mode {
                Mode::Serial => "serial",
                Mode::Concurrent => "concurrent",
            };
            self.registry
                .histogram(families::DISPATCH_QUEUE_WAIT, &[("mode", mode)])
        })
    }

    fn requests(&self, ok: bool) -> &Counter {
        self.requests[usize::from(!ok)].get_or_init(|| {
            let outcome = if ok { "ok" } else { "error" };
            self.registry
                .counter(families::DISPATCH_REQUESTS, &[("outcome", outcome)])
        })
    }

    fn worker_requests(&self, worker: usize) -> &Counter {
        self.worker_requests[worker].get_or_init(|| {
            self.registry.counter(
                families::DISPATCH_WORKER_REQUESTS,
                &[("worker", &worker.to_string())],
            )
        })
    }

    fn inflight(&self) -> &Gauge {
        self.inflight
            .get_or_init(|| self.registry.gauge(families::DISPATCH_INFLIGHT, &[]))
    }
}

/// Fans batches of requests out over scoped worker threads.
///
/// With a [`MetricsRegistry`] attached ([`Dispatcher::with_registry`]),
/// every dispatched request is also recorded fleet-wide: queue wait
/// (`kwdb_dispatch_queue_wait_ns`), in-flight gauge
/// (`kwdb_dispatch_inflight`), outcome counts
/// (`kwdb_dispatch_requests_total`), and per-worker request counts
/// (`kwdb_dispatch_worker_requests_total`).
pub struct Dispatcher {
    catalog: Catalog,
    workers: usize,
    obs: Option<DispatchInstruments>,
}

impl Dispatcher {
    /// A dispatcher over `catalog` with one worker per available CPU
    /// (capped at 8).
    pub fn new(catalog: Catalog) -> Self {
        Self::with_workers(catalog, kwdb_common::available_cores().min(8))
    }

    /// A dispatcher with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(catalog: Catalog, workers: usize) -> Self {
        Dispatcher {
            catalog,
            workers: workers.max(1),
            obs: None,
        }
    }

    /// Record dispatch-level metrics into `registry`. This is independent
    /// of the engines' own registries: attach the same `Arc` to both to get
    /// one unified snapshot.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.obs = Some(DispatchInstruments::new(registry, self.workers));
        self
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Ingest one record into the named engine (see [`Catalog::ingest`]).
    /// Concurrent with query dispatch: engines snapshot their state per
    /// query, so in-flight requests see a consistent generation.
    pub fn ingest(&self, name: &str, record: IngestRecord) -> Result<()> {
        self.catalog.ingest(name, record)
    }

    /// Delete one document from the named engine.
    pub fn delete(&self, name: &str, key: DeleteKey) -> Result<()> {
        self.catalog.delete(name, key)
    }

    /// Commit the named engine (see [`Catalog::commit`]).
    pub fn commit(&self, name: &str) -> Result<CommitOutcome> {
        self.catalog.commit(name)
    }

    /// Execute the whole batch on the calling thread. The reference
    /// behavior `execute_concurrent` is tested against.
    pub fn execute_serial(&self, batch: &[(String, SearchRequest)]) -> DispatchOutcome {
        let started = Instant::now();
        let responses: Vec<_> = batch
            .iter()
            .map(|(name, req)| {
                let wait = started.elapsed();
                let mut resp = self.catalog.execute(name, req);
                Self::splice_queue_wait(&mut resp, wait);
                self.record_request(Mode::Serial, 0, wait, resp.is_ok());
                resp
            })
            .collect();
        Self::outcome(responses)
    }

    /// Execute the batch across scoped worker threads.
    ///
    /// Work is claimed from a shared atomic cursor, so long-running
    /// requests don't stall the queue behind them. Output order matches
    /// input order regardless of completion order, and per-request failures
    /// are reported in place rather than aborting the batch. With
    /// deterministic budgets (candidate caps, not wall-clock deadlines) the
    /// hits are identical to [`Dispatcher::execute_serial`].
    pub fn execute_concurrent(&self, batch: &[(String, SearchRequest)]) -> DispatchOutcome {
        if batch.is_empty() {
            return Self::outcome(Vec::new());
        }
        let workers = self.workers.min(batch.len());
        if workers == 1 {
            return self.execute_serial(batch);
        }
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<SearchResponse<Hit>>>>> =
            batch.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let next = &next;
            let slots = &slots;
            for worker in 0..workers {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((name, req)) = batch.get(i) else {
                        break;
                    };
                    let wait = started.elapsed();
                    let inflight = self.obs.as_ref().map(DispatchInstruments::inflight);
                    if let Some(g) = inflight {
                        g.inc();
                    }
                    let mut resp = self.catalog.execute(name, req);
                    if let Some(g) = inflight {
                        g.dec();
                    }
                    Self::splice_queue_wait(&mut resp, wait);
                    self.record_request(Mode::Concurrent, worker, wait, resp.is_ok());
                    *slots[i].lock().expect("result slot poisoned") = Some(resp);
                });
            }
        });
        let responses: Vec<_> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot filled before scope ends")
            })
            .collect();
        Self::outcome(responses)
    }

    /// Splice the time a request sat in the dispatch queue into its trace
    /// as a synthetic leading `queue_wait` span, so a traced query's span
    /// tree covers the full dispatch-to-response interval, not just engine
    /// time. No-op for untraced or failed requests.
    fn splice_queue_wait(resp: &mut Result<SearchResponse<Hit>>, wait: Duration) {
        if let Ok(r) = resp {
            if let Some(trace) = &mut r.trace {
                trace.prepend_span("queue_wait", wait);
            }
        }
    }

    /// Fold one dispatched request into the registry, if one is attached.
    fn record_request(&self, mode: Mode, worker: usize, wait: Duration, ok: bool) {
        let Some(obs) = &self.obs else { return };
        obs.queue_wait(mode).record_duration(wait);
        obs.requests(ok).inc();
        obs.worker_requests(worker).inc();
    }

    fn outcome(responses: Vec<Result<SearchResponse<Hit>>>) -> DispatchOutcome {
        let mut totals = QueryStats::new();
        for resp in responses.iter().filter_map(|r| r.as_ref().ok()) {
            totals.merge(&resp.stats);
        }
        DispatchOutcome { responses, totals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GraphEngine, GraphSemantics, RelationalEngine, XmlEngine};
    use kwdb_datasets::{generate_dblp, DblpConfig};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "dblp",
            RelationalEngine::new(generate_dblp(&DblpConfig {
                n_papers: 60,
                n_authors: 30,
                ..Default::default()
            })),
        );
        c.register(
            "social",
            GraphEngine::new(kwdb_datasets::graphs::generate_graph(&Default::default())),
        );
        c.register(
            "bib",
            XmlEngine::from_tree(kwdb_datasets::generate_bib_xml(&Default::default())),
        );
        c
    }

    #[test]
    fn unknown_engine_is_a_per_request_error() {
        let d = Dispatcher::with_workers(catalog(), 4);
        let batch = vec![
            ("dblp".to_string(), SearchRequest::new("data query").k(2)),
            ("nope".to_string(), SearchRequest::new("data").k(2)),
        ];
        let out = d.execute_concurrent(&batch);
        assert_eq!(out.responses.len(), 2);
        assert!(out.responses[0].is_ok());
        let err = out.responses[1].as_ref().unwrap_err().to_string();
        assert!(
            err.contains("nope"),
            "error names the missing engine: {err}"
        );
        assert_eq!(out.successes().count(), 1);
    }

    #[test]
    fn totals_merge_across_models() {
        let d = Dispatcher::with_workers(catalog(), 4);
        let batch = vec![
            ("dblp".to_string(), SearchRequest::new("data query").k(2)),
            (
                "social".to_string(),
                SearchRequest::new("kw0 kw1")
                    .k(2)
                    .semantics(GraphSemantics::DistinctRoot),
            ),
            ("bib".to_string(), SearchRequest::new("data query").k(2)),
        ];
        let out = d.execute_concurrent(&batch);
        assert!(out.responses.iter().all(|r| r.is_ok()));
        let by_hand = out
            .successes()
            .map(|r| r.stats.operators.tuples_scanned)
            .sum::<u64>();
        assert_eq!(out.totals.operators.tuples_scanned, by_hand);
        assert!(
            out.totals.operators.sorted_accesses > 0,
            "blinks + slca counted"
        );
    }

    #[test]
    fn queue_wait_span_leads_traced_responses() {
        let d = Dispatcher::with_workers(catalog(), 2);
        let batch = vec![
            (
                "dblp".to_string(),
                SearchRequest::new("data query")
                    .k(2)
                    .trace(kwdb_obs::TraceLevel::Phases),
            ),
            ("bib".to_string(), SearchRequest::new("data query").k(2)),
        ];
        let out = d.execute_concurrent(&batch);
        let trace = out.responses[0]
            .as_ref()
            .unwrap()
            .trace
            .as_ref()
            .expect("traced request keeps its trace through dispatch");
        assert_eq!(trace.phases[0].name, "queue_wait");
        assert_eq!(trace.phases[0].start, Duration::ZERO);
        assert!(
            trace.total >= trace.phases[0].duration,
            "queue wait counted into the trace total"
        );
        assert!(
            out.responses[1].as_ref().unwrap().trace.is_none(),
            "untraced requests stay untraced"
        );
    }

    #[test]
    fn empty_batch() {
        let d = Dispatcher::new(catalog());
        let out = d.execute_concurrent(&[]);
        assert!(out.responses.is_empty());
        assert_eq!(out.totals.operators.tuples_scanned, 0);
        assert_eq!(out.totals.cache_misses, 0);
    }

    #[test]
    fn mutations_route_through_the_catalog() {
        use crate::engine::IngestRecord;
        let mut c = Catalog::new();
        let mut db = kwdb_relational::Database::new();
        kwdb_relational::database::dblp_schema(&mut db).unwrap();
        db.build_text_index();
        c.register_mutable("live", RelationalEngine::new(db));
        c.register(
            "frozen",
            XmlEngine::from_tree(kwdb_datasets::generate_bib_xml(&Default::default())),
        );
        let d = Dispatcher::with_workers(c, 2);

        // Ingest, then query the same name: the row is immediately visible.
        d.ingest(
            "live",
            IngestRecord::Tuple {
                table: "author".into(),
                values: vec![1.into(), "Jennifer Widom".into()],
            },
        )
        .unwrap();
        let out = d.execute_concurrent(&[("live".to_string(), SearchRequest::new("widom").k(3))]);
        assert_eq!(out.responses[0].as_ref().unwrap().hits.len(), 1);
        let outcome = d.commit("live").unwrap();
        assert_eq!(outcome.generation, 2, "the ingest, then the commit");

        // Typed errors: read-only engine vs unknown name.
        let ro = d
            .ingest(
                "frozen",
                IngestRecord::Tuple {
                    table: "author".into(),
                    values: vec![2.into(), "X".into()],
                },
            )
            .unwrap_err();
        assert!(matches!(ro, KwdbError::ReadOnly(_)), "got {ro:?}");
        assert!(matches!(
            d.commit("nope").unwrap_err(),
            KwdbError::UnknownObject(_)
        ));

        assert!(d.catalog().get("live").is_some());
    }

    #[test]
    fn shared_engine_under_two_names() {
        let engine: Arc<dyn Engine> = Arc::new(RelationalEngine::new(generate_dblp(&DblpConfig {
            n_papers: 40,
            n_authors: 20,
            ..Default::default()
        })));
        let mut c = Catalog::new();
        c.register("a", Arc::clone(&engine));
        c.register("b", engine);
        assert_eq!(c.len(), 2);
        let d = Dispatcher::with_workers(c, 2);
        let batch = vec![
            ("a".to_string(), SearchRequest::new("data query").k(2)),
            ("b".to_string(), SearchRequest::new("data query").k(2)),
        ];
        let out = d.execute_concurrent(&batch);
        assert!(out.responses.iter().all(|r| r.is_ok()));
        // Same engine ⇒ the second query is answered by the shared result
        // cache: exactly one execution computed (and planned — one plan
        // miss, no plan hit, because the cached query never reaches the
        // planner), the other was a result-cache hit whether it raced the
        // leader (singleflight follower) or arrived after it.
        assert_eq!(out.totals.result_cache_misses, 1);
        assert_eq!(out.totals.result_cache_hits, 1);
        assert_eq!(out.totals.cache_misses, 1);
        assert_eq!(out.totals.cache_hits, 0);
        let a = &out.responses[0].as_ref().unwrap().hits;
        let b = &out.responses[1].as_ref().unwrap().hits;
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.score(), y.score());
        }
    }
}
