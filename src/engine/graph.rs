//! The graph engine: exact group Steiner trees (DPBF) and distinct-root
//! answers over a shared, immutable data graph, inside the shared query
//! frame. BANKS I and BLINKS rank a root by the same cost, `Σᵢ dist(root,
//! Sᵢ)`, so one evaluator serves both: BLINKS over the graph's own
//! per-keyword distance lists, each built by the first request that needs
//! it. BANKS' backward expansion stays in `kwdb_graphsearch` as the
//! reference the parity tests hold the lists to.

use super::frame::{field, run_query, trace_verdict, Answer, Evaluated, QueryFrame, ResultCache};
use super::{Engine, Hit, SearchRequest, SearchResponse};
use kwdb_common::{CacheConfig, Phase, QueryStats, Result, ScratchPool};
use kwdb_graph::DataGraph;
use kwdb_graphsearch::{blinks::Blinks, AnswerTree, Dpbf, SearchScratch};
use kwdb_obs::{record_index_stats, EngineInstruments, MetricsRegistry, TraceBuilder};
use std::sync::Arc;

/// Graph answer semantics selectable on a [`SearchRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSemantics {
    /// Exact group Steiner trees (DPBF).
    SteinerExact,
    /// BANKS' distinct-root answers: an alias of
    /// [`DistinctRoot`](Self::DistinctRoot), which ranks roots by the same
    /// cost; a `Banks` request returns exactly what a `DistinctRoot` one does.
    Banks,
    /// BLINKS: distinct-root via the node→keyword index and TA.
    DistinctRoot,
}

/// Keyword search on a data graph under the chosen semantics.
///
/// Owns its graph behind an `Arc` and never changes it: a graph that has
/// changed is a new [`DataGraph`] handed to a new engine (mutation is the
/// relational engine's — see [`MutableEngine`](super::MutableEngine)). The
/// underlying BANKS/DPBF/BLINKS engines are stateless (`&self`, per-query
/// counters returned with the results, per-node buffers checked out of a
/// pool) and the BLINKS distance lists are the graph's write-once slots, so
/// one `GraphEngine` serves concurrent queries without taking a lock, and
/// engines sharing one `Arc<DataGraph>` share its lists. A `SteinerExact`
/// request takes at most
/// [`dpbf::MAX_KEYWORDS`](kwdb_graphsearch::dpbf::MAX_KEYWORDS) keywords;
/// more is [`KwdbError::InvalidQuery`](kwdb_common::KwdbError::InvalidQuery).
/// A distinct-root request takes any number.
pub struct GraphEngine {
    g: Arc<DataGraph>,
    obs: Option<EngineInstruments>,
    /// Whole-response cache (see
    /// [`RelationalConfig::result_cache`](super::RelationalConfig::result_cache)
    /// for the shared semantics). The graph is immutable, so entries only
    /// ever age out through the LRU budget.
    result_cache: ResultCache<AnswerTree>,
    /// Dense per-node search buffers, one checked out per computed query.
    scratch: ScratchPool<SearchScratch>,
}

impl GraphEngine {
    /// Build an engine owning `g` (pass a `DataGraph` to move it in, or an
    /// `Arc<DataGraph>` to share it with other owners). The engine serves
    /// the keyword index the graph arrives with.
    pub fn new(g: impl Into<Arc<DataGraph>>) -> Self {
        GraphEngine {
            g: g.into(),
            obs: None,
            result_cache: ResultCache::new(CacheConfig::default()),
            scratch: ScratchPool::new(),
        }
    }

    /// Reconfigure (or disable, via [`CacheConfig::disabled`]) the result
    /// cache. On by default; any existing cached entries are dropped.
    pub fn with_result_cache(mut self, cfg: CacheConfig) -> Self {
        self.result_cache = ResultCache::new(cfg);
        self
    }

    /// Record every query into `registry`, and publish the graph keyword
    /// index's size figures up front.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        record_index_stats(&registry, "graph_keyword", &self.g.keyword_index_stats());
        self.obs = Some(EngineInstruments::new(
            registry,
            "graph",
            &["dpbf", "blinks"],
        ));
        self
    }

    /// A handle to the data graph this engine queries.
    pub fn graph(&self) -> Arc<DataGraph> {
        Arc::clone(&self.g)
    }

    /// Execute a [`SearchRequest`] under `req.semantics` (default
    /// distinct-root).
    pub fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<AnswerTree>> {
        let g = &*self.g;
        let budget = &req.budget;
        let steiner = req.semantics == Some(GraphSemantics::SteinerExact);
        let frame = QueryFrame {
            obs: self.obs.as_ref(),
            cache: &self.result_cache,
            engine: "graph",
            algorithm: if steiner { "dpbf" } else { "blinks" },
            // The graph never changes under the engine: generation 0, as
            // for XML.
            generation: 0,
            empty_facets: &|| Ok(Vec::new()),
            hit_bytes: graph_hit_bytes,
            keyword_order: true,
        };
        let run = |keywords: &[String],
                   stats: &mut QueryStats,
                   tb: &mut TraceBuilder|
         -> Result<Evaluated<AnswerTree>> {
            // DPBF keeps a keyword subset per state; BLINKS sums per-keyword
            // distances and keeps no mask.
            let limit = kwdb_graphsearch::dpbf::MAX_KEYWORDS;
            if steiner && keywords.len() > limit {
                return Err(kwdb_common::KwdbError::InvalidQuery(format!(
                    "{} keywords; a SteinerExact request takes at most {limit}",
                    keywords.len()
                )));
            }
            let mut scratch = self.scratch.checkout(SearchScratch::default);
            let (hits, truncation) = if steiner {
                tb.phase(Phase::Evaluate);
                let dpbf = Dpbf::new(g);
                let (r, truncation, work) =
                    dpbf.search_budgeted(keywords, req.k, budget, &mut scratch);
                stats.operators.tuples_scanned = work.states_popped as u64;
                tb.event("expansion", || {
                    vec![field("states_popped", work.states_popped)]
                });
                (r, truncation)
            } else {
                // The query's distance lists, built here if this is the
                // first request to read one: a miss when it built any.
                tb.phase(Phase::Build);
                let blinks = Blinks::new(g);
                let (lists, built) = blinks.distance_lists(keywords).unwrap_or_default();
                tb.event("node-keyword index", || {
                    vec![field("outcome", if built == 0 { "hit" } else { "miss" })]
                });
                tb.phase(Phase::Evaluate);
                if built == 0 {
                    stats.cache_hits = 1;
                } else {
                    stats.cache_misses = 1;
                    if let Some(obs) = frame.obs {
                        let build = tb.timings().build;
                        let lists = g.distance_list_stats().with_build(Some(build));
                        record_index_stats(obs.registry(), "graph_node2kw", &lists);
                    }
                }
                let (r, truncation, work) =
                    blinks.search_lists(&lists, req.k, budget, &mut scratch);
                stats.operators.sorted_accesses = work.sorted_accesses as u64;
                stats.operators.random_accesses = work.random_accesses as u64;
                tb.event("threshold algorithm", || {
                    vec![
                        field("sorted_accesses", work.sorted_accesses),
                        field("random_accesses", work.random_accesses),
                    ]
                });
                (r, truncation)
            };
            stats.candidates_generated = hits.len() as u64;
            trace_verdict(tb, truncation);
            Ok((Answer::unfaceted(hits), truncation))
        };
        run_query(&frame, req, |keywords, _| Ok(keywords), run)
    }
}

impl Engine for GraphEngine {
    fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<Hit>> {
        Ok(GraphEngine::execute(self, req)?.map(Hit::Graph))
    }
}

fn graph_hit_bytes(t: &AnswerTree) -> usize {
    t.edges.len() * 8 + t.matches.len() * 4 + 48
}
