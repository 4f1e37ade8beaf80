//! The graph engine: DPBF / BANKS / BLINKS over a shared, immutable data
//! graph, inside the shared query frame. BLINKS reads the graph's own
//! per-keyword distance lists, each built by the first request that needs it.

use super::frame::{field, run_query, trace_verdict, Answer, Evaluated, QueryFrame, ResultCache};
use super::{Engine, Hit, SearchRequest, SearchResponse};
use kwdb_common::{CacheConfig, QueryStats, Result, ScratchPool, Stopwatch};
use kwdb_graph::DataGraph;
use kwdb_graphsearch::{blinks::Blinks, AnswerTree, BanksI, Dpbf, SearchScratch};
use kwdb_obs::{record_index_stats, EngineInstruments, MetricsRegistry, TraceBuilder};
use std::sync::Arc;

/// Graph answer semantics selectable on a [`SearchRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSemantics {
    /// Exact group Steiner trees (DPBF).
    SteinerExact,
    /// BANKS backward search (distinct-root, approximate Steiner).
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
/// engines sharing one `Arc<DataGraph>` share its lists. A `Banks`
/// request takes at most
/// [`banks1::MAX_KEYWORDS`](kwdb_graphsearch::banks1::MAX_KEYWORDS) keywords
/// and a `SteinerExact` one
/// [`dpbf::MAX_KEYWORDS`](kwdb_graphsearch::dpbf::MAX_KEYWORDS); more is
/// [`KwdbError::InvalidQuery`](kwdb_common::KwdbError::InvalidQuery).
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
            &["dpbf", "banks", "blinks"],
        ));
        self
    }

    /// A handle to the data graph this engine queries.
    pub fn graph(&self) -> Arc<DataGraph> {
        Arc::clone(&self.g)
    }

    /// Execute a [`SearchRequest`] under `req.semantics` (default BANKS).
    pub fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<AnswerTree>> {
        let g = &*self.g;
        let budget = &req.budget;
        let semantics = req.semantics.unwrap_or(GraphSemantics::Banks);
        let frame = QueryFrame {
            obs: self.obs.as_ref(),
            cache: &self.result_cache,
            engine: "graph",
            algorithm: match semantics {
                GraphSemantics::SteinerExact => "dpbf",
                GraphSemantics::Banks => "banks",
                GraphSemantics::DistinctRoot => "blinks",
            },
            // The graph never changes under the engine: generation 0, as
            // for XML.
            generation: 0,
            empty_facets: &|| Ok(Vec::new()),
            hit_bytes: graph_hit_bytes,
        };
        let run = |keywords: &[String],
                   stats: &mut QueryStats,
                   sw: &mut Stopwatch,
                   tb: &mut TraceBuilder|
         -> Result<Evaluated<AnswerTree>> {
            let limit = match semantics {
                GraphSemantics::SteinerExact => kwdb_graphsearch::dpbf::MAX_KEYWORDS,
                GraphSemantics::Banks => kwdb_graphsearch::banks1::MAX_KEYWORDS,
                // BLINKS sums per-keyword distances; it keeps no mask.
                GraphSemantics::DistinctRoot => usize::MAX,
            };
            if keywords.len() > limit {
                return Err(kwdb_common::KwdbError::InvalidQuery(format!(
                    "{} keywords; a {semantics:?} request takes at most {limit}",
                    keywords.len()
                )));
            }
            let mut scratch = self.scratch.checkout(SearchScratch::default);
            let (hits, truncation) = match semantics {
                GraphSemantics::SteinerExact => {
                    tb.phase("evaluate");
                    let dpbf = Dpbf::new(g);
                    let (r, truncation, work) =
                        dpbf.search_budgeted(keywords, req.k, budget, &mut scratch);
                    stats.operators.tuples_scanned = work.states_popped as u64;
                    tb.event("expansion", || {
                        vec![field("states_popped", work.states_popped)]
                    });
                    (r, truncation)
                }
                GraphSemantics::Banks => {
                    tb.phase("evaluate");
                    let banks = BanksI::new(g);
                    let (r, truncation, work) =
                        banks.search_budgeted(keywords, req.k, budget, &mut scratch);
                    stats.operators.tuples_scanned = work.nodes_expanded as u64;
                    tb.event("expansion", || {
                        vec![
                            field("nodes_expanded", work.nodes_expanded),
                            field("nodes_relaxed", work.nodes_relaxed),
                        ]
                    });
                    (r, truncation)
                }
                GraphSemantics::DistinctRoot => {
                    // The query's distance lists, built here if this is the
                    // first request to read one: a miss when it built any.
                    tb.phase("build");
                    let blinks = Blinks::new(g);
                    let built = blinks
                        .distance_lists(keywords, &mut scratch)
                        .map_or(0, |(_, built)| built);
                    stats.phases.build = sw.lap();
                    if built == 0 {
                        stats.cache_hits = 1;
                    } else {
                        stats.cache_misses = 1;
                        if let Some(obs) = frame.obs {
                            let lists =
                                g.distance_list_stats().with_build(Some(stats.phases.build));
                            record_index_stats(obs.registry(), "graph_node2kw", &lists);
                        }
                    }
                    tb.event("node-keyword index", || {
                        vec![field("outcome", if built == 0 { "hit" } else { "miss" })]
                    });
                    tb.phase("evaluate");
                    let (r, truncation, work) =
                        blinks.search_budgeted(keywords, req.k, budget, &mut scratch);
                    stats.operators.sorted_accesses = work.sorted_accesses as u64;
                    stats.operators.random_accesses = work.random_accesses as u64;
                    tb.event("threshold algorithm", || {
                        vec![
                            field("sorted_accesses", work.sorted_accesses),
                            field("random_accesses", work.random_accesses),
                        ]
                    });
                    (r, truncation)
                }
            };
            stats.phases.evaluate = sw.lap();
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
