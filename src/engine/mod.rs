//! Unified one-call engines over the three data models.
//!
//! Every engine answers the same shape of request: a [`SearchRequest`]
//! (query string, `k`, an execution [`Budget`], a [`TraceLevel`], and
//! per-model knobs) goes in, a [`SearchResponse`] comes out — ranked hits,
//! the [`QueryStats`] observability record (per-phase timings, operator
//! counters, cache counters), a typed [`TruncationReason`] when the budget
//! cut the query short (so callers can tell a deadline from a candidate
//! cap), and a structured [`QueryTrace`] when the request asked for one.
//!
//! * [`RelationalEngine::execute`] — DISCOVER/SPARK candidate-network
//!   search: one executor, the request's [`Scoring`] model its parameter,
//!   with a per-engine CN plan cache keyed by schema fingerprint, the
//!   query's mask signature (which tuple sets are non-empty), and generator
//!   configuration (`relational.rs`).
//! * [`GraphEngine::execute`] — DPBF and distinct-root answers (BANKS and
//!   BLINKS, one evaluator) on an immutable data graph; the distinct-root
//!   evaluator reads the graph's own per-keyword distance lists, each
//!   built by the first request that queries its keyword (and shared by every
//!   engine over the same graph), and
//!   the searches' per-node arrays come from a pool of
//!   [`SearchScratch`](kwdb_graphsearch::SearchScratch)es, one checked out
//!   per computed query (`graph.rs`).
//! * [`XmlEngine::execute`] — SLCA with XBridge-style proximity ranking
//!   (`xml.rs`).
//!
//! All three run inside one query frame (`frame.rs`): trace sampling, the
//! parse phase, the early returns, the result-cache consult and the seal
//! are written once, and an engine supplies only its evaluate body.
//!
//! # One spelling per decision
//!
//! An engine **serves the data it is given**: the index arrives inside the
//! `Database` / `DataGraph` / `XmlIndex`, every posting list in it is a
//! sorted `Vec`, and no engine re-encodes its data. The relational scoring
//! model and the graph semantics are per-request ([`SearchRequest::scoring`],
//! [`SearchRequest::semantics`]). A result cache is switched off per engine
//! with [`CacheConfig::disabled`](kwdb_common::CacheConfig::disabled) or per
//! request with [`SearchRequest::caching`].
//!
//! # Observability
//!
//! Engines optionally carry a shared
//! [`MetricsRegistry`](kwdb_obs::MetricsRegistry) (`with_registry`): every
//! query then also folds its stats into the fleet-wide counters and latency
//! histograms under `engine × algorithm` labels — see [`kwdb_obs`]. The
//! engine keeps the handle of every instrument a sealed query writes to
//! ([`EngineInstruments`](kwdb_obs::EngineInstruments)), so recording a
//! query is atomic adds, not registry lookups.
//!
//! # Threading model
//!
//! Engines **own** their data behind an [`Arc`] (`Arc<Database>`,
//! `Arc<DataGraph>`, `Arc<(XmlTree, XmlIndex)>`), so every engine is
//! `'static`, `Send + Sync`, and can be stored in a long-lived registry and
//! queried from many threads at once — `execute` takes `&self` and all
//! per-query state (counters, heaps, cursors) lives on the query's own
//! stack. The relational engine's one lock is the `RwLock` around its
//! database handle (the database carries the text index its scorers weigh
//! keywords with); its caches are lock-striped
//! [`ShardedCache`](kwdb_common::ShardedCache)s. The graph
//! and XML engines hold no lock at all: their data never changes under them,
//! and a BLINKS distance list is a write-once `OnceLock` slot in the graph.
//!
//! # Generations and mutation
//!
//! Mutation is the relational engine's: [`RelationalEngine`] is the one
//! [`MutableEngine`], and a graph or a tree that has changed is a new
//! `DataGraph` / `XmlTree` handed to a new engine. `ingest`/`delete` apply a
//! change *and* maintain the index incrementally (each edits the touched
//! posting lists and their counts in place), and `commit` is a
//! generation event with no index work. Every successful mutation bumps a
//! monotonic **generation counter** which keys the result cache and
//! stamps the flight-recorder records, so cached answers and
//! diagnostics can never silently describe an older database. (The CN plan
//! cache needs no generation: a plan depends on the data only through which
//! tuple sets are non-empty, and that is its key.) A query holds the engine
//! state's read lock end to end and therefore always sees one consistent
//! generation; mutations copy-on-write when the data is shared
//! ([`Arc::make_mut`]), so handles returned earlier keep their snapshot.
//!
//! The [`Engine`] trait erases the per-model hit types into the [`Hit`]
//! enum so heterogeneous engines can live behind `Arc<dyn Engine>` in one
//! [`crate::dispatch::Catalog`] and be fanned out over threads by
//! [`crate::dispatch::Dispatcher`].
//!
//! The per-paradigm crates (`kwdb_graphsearch`, `kwdb_relsearch`,
//! `kwdb_xmlsearch`) stay borrow-based — the zero-copy escape hatch when
//! you hold the data on the stack and don't need to share the engine.

mod frame;
mod graph;
mod relational;
#[cfg(test)]
mod tests;
mod xml;

pub use graph::{GraphEngine, GraphSemantics};
pub use kwdb_relsearch::score::Scoring;
pub use relational::{RelationalConfig, RelationalEngine, RelationalHit, SegmentCounts};
pub use xml::{XmlEngine, XmlHit};

use kwdb_common::{Budget, FacetCounts, FacetSpec, QueryStats, Result, TruncationReason, Value};
use kwdb_graphsearch::AnswerTree;
use kwdb_obs::{QueryTrace, TraceLevel};
use kwdb_relational::Row;
use kwdb_relsearch::Refinement;
use std::sync::Arc;

/// A uniform search request accepted by all three engines.
///
/// Built fluently; every field has a sensible default:
///
/// ```
/// use kwdb::engine::SearchRequest;
/// use kwdb::common::Budget;
/// use std::time::Duration;
///
/// let req = SearchRequest::new("widom xml")
///     .k(5)
///     .budget(Budget::unlimited().with_timeout(Duration::from_millis(50)));
/// assert_eq!(req.query(), "widom xml");
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchRequest {
    query: String,
    k: usize,
    budget: Budget,
    scoring: Option<Scoring>,
    semantics: Option<GraphSemantics>,
    trace: TraceLevel,
    facets: Vec<FacetSpec>,
    refinements: Vec<Refinement>,
    summaries: usize,
    use_cache: bool,
}

impl SearchRequest {
    /// A request for `query` with `k = 10`, an unlimited budget, tracing
    /// off, no facets or refinements, and the default scoring/semantics.
    pub fn new(query: impl Into<String>) -> Self {
        SearchRequest {
            query: query.into(),
            k: 10,
            budget: Budget::unlimited(),
            scoring: None,
            semantics: None,
            trace: TraceLevel::Off,
            facets: Vec::new(),
            refinements: Vec::new(),
            summaries: 0,
            use_cache: true,
        }
    }

    /// Number of hits to return.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Execution budget (deadline and/or candidate cap).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The relational scoring model (default: [`Scoring::Monotone`]).
    pub fn scoring(mut self, scoring: Scoring) -> Self {
        self.scoring = Some(scoring);
        self
    }

    /// The graph answer semantics (default: [`GraphSemantics::Banks`], an
    /// alias of [`GraphSemantics::DistinctRoot`]).
    pub fn semantics(mut self, semantics: GraphSemantics) -> Self {
        self.semantics = Some(semantics);
        self
    }

    /// Ask for a structured [`QueryTrace`] on the response. The default
    /// [`TraceLevel::Off`] records nothing and costs nothing.
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Add one facet to count over the result multiset (relational engine;
    /// graph/XML engines ignore facets). Attributes are `"table.column"`;
    /// an unknown attribute fails the whole request with a typed error.
    pub fn facet(mut self, spec: FacetSpec) -> Self {
        self.facets.push(spec);
        self
    }

    /// Replace the full facet list (see [`facet`](Self::facet)).
    pub fn facets(mut self, specs: Vec<FacetSpec>) -> Self {
        self.facets = specs;
        self
    }

    /// Drill down: keep only results where some tuple of the refined table
    /// matches. Refinements compose as AND and are applied *before* ranking
    /// and facet counting — and they are deliberately not part of the CN
    /// plan-cache key, so a drill-down of a cached query replans nothing.
    pub fn refine(mut self, refinement: Refinement) -> Self {
        self.refinements.push(refinement);
        self
    }

    /// Attach a size-`l` object summary to every relational hit: the hit's
    /// tuples plus breadth-first FK-neighborhood context, `l` tuples total
    /// (`0`, the default, disables summaries).
    pub fn summaries(mut self, l: usize) -> Self {
        self.summaries = l;
        self
    }

    pub fn query(&self) -> &str {
        &self.query
    }

    pub fn k_value(&self) -> usize {
        self.k
    }

    pub fn facet_specs(&self) -> &[FacetSpec] {
        &self.facets
    }

    pub fn refinement_list(&self) -> &[Refinement] {
        &self.refinements
    }

    /// The requested per-hit summary size (`0` = summaries off).
    pub fn summary_size(&self) -> usize {
        self.summaries
    }

    /// Opt this one request in or out of the engines' result caches
    /// (default `true`). A request with caching off neither reads nor
    /// writes the cache — its stats report `result_cache` 0/0, exactly
    /// like a query against an engine whose cache is disabled.
    pub fn caching(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }
}

/// The uniform response: ranked hits plus the execution record.
///
/// `#[non_exhaustive]`: construct one via an engine's `execute` so response
/// fields can grow without breaking downstream code.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchResponse<H> {
    /// Ranked hits, best first. Sorted even when truncated.
    pub hits: Vec<H>,
    /// Per-phase timings, operator counters, candidate and cache counters.
    pub stats: QueryStats,
    /// Why the budget cut the query short — `None` when it ran to
    /// completion, otherwise `hits` is best-so-far.
    pub truncation: Option<TruncationReason>,
    /// The structured trace, when the request asked for one
    /// ([`SearchRequest::trace`]).
    pub trace: Option<QueryTrace>,
    /// One [`FacetCounts`] per requested facet, in request order — empty
    /// when the request carried no facets (or the engine has no facet
    /// support, i.e. graph/XML).
    pub facets: Vec<FacetCounts>,
    /// Whether `facets` covers the *full* result multiset exactly. `false`
    /// only when a deadline cut the count pass (a candidate cap bounds
    /// joins, and counting makes none); vacuously `true` for non-faceted
    /// queries.
    pub facets_exact: bool,
}

impl<H> SearchResponse<H> {
    /// `true` when the budget was exhausted and `hits` is best-so-far.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }

    /// Map every hit through `f`, keeping stats, truncation, and trace.
    /// This is how the typed per-engine responses become the erased
    /// [`SearchResponse<Hit>`] of the [`Engine`] trait.
    pub fn map<T>(self, f: impl FnMut(H) -> T) -> SearchResponse<T> {
        SearchResponse {
            hits: self.hits.into_iter().map(f).collect(),
            stats: self.stats,
            truncation: self.truncation,
            trace: self.trace,
            facets: self.facets,
            facets_exact: self.facets_exact,
        }
    }
}

/// A hit from *some* engine: the erased result type of [`Engine::execute`].
///
/// Each variant preserves the engine's full typed payload, so nothing is
/// lost by going through the trait — match to get it back.
#[derive(Debug, Clone)]
pub enum Hit {
    /// A joining tree of tuples from the relational engine.
    Relational(RelationalHit),
    /// An answer tree from the graph engine.
    Graph(AnswerTree),
    /// A ranked result subtree from the XML engine.
    Xml(XmlHit),
}

impl Hit {
    /// A uniform "higher is better" ranking value, non-increasing down a
    /// response's hits: the hit's score for relational/XML hits, the
    /// *negated* [`rank_cost`](AnswerTree::rank_cost) for graph hits (graph
    /// engines minimize the cost they rank by — the tree weight for DPBF,
    /// the distinct-root cost for BANKS and BLINKS).
    pub fn score(&self) -> f64 {
        match self {
            Hit::Relational(h) => h.score,
            Hit::Graph(t) => -t.rank_cost,
            Hit::Xml(h) => h.score,
        }
    }

    /// Which data model produced this hit: `"relational"`, `"graph"`, or
    /// `"xml"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Hit::Relational(_) => "relational",
            Hit::Graph(_) => "graph",
            Hit::Xml(_) => "xml",
        }
    }
}

/// A dynamically dispatchable search engine.
///
/// All three unified engines implement it, so heterogeneous engines can be
/// stored as `Arc<dyn Engine>` in a [`crate::dispatch::Catalog`] and
/// queried concurrently — the `Send + Sync` supertrait bound makes the
/// shareability requirement part of the contract, enforced at compile time.
pub trait Engine: Send + Sync {
    /// Execute a budgeted, instrumented search; hits come back erased as
    /// [`Hit`]s.
    fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<Hit>>;
}

/// A record accepted by [`MutableEngine::ingest`] — the erased counterpart
/// of the typed per-engine ingest methods, so mutation can be driven
/// through `Arc<dyn MutableEngine>` in a catalog.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum IngestRecord {
    /// One relational tuple: column values for a row of `table`.
    Tuple { table: String, values: Row },
}

/// What [`MutableEngine::delete`] removes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum DeleteKey {
    /// The row of `table` whose primary key equals `pk`.
    TuplePk { table: String, pk: Value },
}

/// Report of a [`MutableEngine::commit`]: the engine's generation after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The engine's data generation at commit time.
    pub generation: u64,
}

/// An engine that supports incremental mutation: `ingest`/`delete` apply a
/// change *and* maintain the index (no rebuild), `commit` is a generation
/// event. Every successful mutation bumps the engine's monotonic
/// [`generation`](Self::generation).
/// [`RelationalEngine`] implements it; the graph and XML engines serve
/// immutable data and do not.
pub trait MutableEngine: Engine {
    /// Ingest one record through the incremental path. Fails with a typed
    /// error when the record's shape doesn't fit this engine, when
    /// integrity checks (FKs, arity, types) reject it, or when the index
    /// was never built / has gone stale behind out-of-band mutations.
    fn ingest(&self, record: IngestRecord) -> Result<()>;

    /// Delete by key: tombstone the data and drop it from the index.
    fn delete(&self, key: DeleteKey) -> Result<()>;

    /// Bump the generation: every generation-keyed cache entry goes stale.
    fn commit(&self) -> Result<CommitOutcome>;

    /// The monotonic data generation: bumped by every successful mutation.
    fn generation(&self) -> u64;
}

// Compile-time proof that every engine (and a trait object of them) can be
// shared across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<RelationalEngine>();
    assert_send_sync::<GraphEngine>();
    assert_send_sync::<XmlEngine>();
    assert_send_sync::<Arc<dyn Engine>>();
};
