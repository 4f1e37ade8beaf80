//! The graph engine: DPBF / BANKS / BLINKS over a shared data graph, with
//! the BLINKS node→keyword index cached by generation, inside the shared
//! query frame.

use super::frame::{run_query, Answer, Evaluated, QueryFrame, ResultCache};
use super::{CommitOutcome, Engine, Hit, SearchRequest, SearchResponse};
use kwdb_common::{CacheConfig, QueryStats, Result, ScratchPool, Stopwatch};
use kwdb_graph::{DataGraph, NodeId};
use kwdb_graphsearch::{blinks::Blinks, AnswerTree, BanksI, Dpbf, SearchScratch};
use kwdb_obs::{
    record_generation, record_index_stats, EngineInstruments, MetricsRegistry, TraceBuilder,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

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

/// Keyword search on a data graph under the chosen semantics, with the
/// BLINKS node→keyword index built lazily and invalidated by generation.
///
/// Owns its graph behind an `Arc`; the underlying BANKS/DPBF/BLINKS
/// engines are stateless (`&self`, per-query counters returned with the
/// results, per-node buffers checked out of a pool), so one `GraphEngine`
/// serves concurrent queries. A `Banks` request takes at most
/// [`banks1::MAX_KEYWORDS`](kwdb_graphsearch::banks1::MAX_KEYWORDS) keywords
/// and a `SteinerExact` one
/// [`dpbf::MAX_KEYWORDS`](kwdb_graphsearch::dpbf::MAX_KEYWORDS); more is
/// [`KwdbError::InvalidQuery`](kwdb_common::KwdbError::InvalidQuery). Graph
/// mutations ([`add_node`](Self::add_node)/[`add_edge`](Self::add_edge))
/// bump the graph's generation; a cached BLINKS index whose build
/// generation lags by more than the **staleness bound** is rebuilt on the
/// next DistinctRoot query — within the bound it keeps serving, trading
/// bounded staleness for rebuild cost.
pub struct GraphEngine {
    g: RwLock<Arc<DataGraph>>,
    /// Full-vocabulary BLINKS index tagged with the graph generation it
    /// was built at; rebuilt lazily past the staleness bound.
    index: RwLock<Option<(u64, Arc<kwdb_graph::NodeKeywordIndex>)>>,
    /// How many generations the cached BLINKS index may lag before a
    /// DistinctRoot query rebuilds it. `0` (default) = any change rebuilds.
    staleness_bound: u64,
    obs: Option<EngineInstruments>,
    /// Cumulative keyword-index merges already published to the registry.
    merges_seen: AtomicU64,
    /// Generation-keyed whole-response cache (see
    /// [`RelationalConfig::result_cache`](super::RelationalConfig::result_cache)
    /// for the shared semantics).
    result_cache: ResultCache<AnswerTree>,
    /// Dense per-node search buffers, one checked out per computed query.
    scratch: ScratchPool<SearchScratch>,
}

impl GraphEngine {
    /// Build an engine owning `g` (pass a `DataGraph` to move it in, or an
    /// `Arc<DataGraph>` to share it with other owners). The engine serves
    /// the keyword-index layout the graph arrives in
    /// ([`DataGraph::set_keyword_index_layout`]).
    pub fn new(g: impl Into<Arc<DataGraph>>) -> Self {
        let g = g.into();
        let merges_seen = g.keyword_index_merges();
        GraphEngine {
            g: RwLock::new(g),
            index: RwLock::new(None),
            staleness_bound: 0,
            obs: None,
            merges_seen: AtomicU64::new(merges_seen),
            result_cache: ResultCache::new(CacheConfig::default()),
            scratch: ScratchPool::new(),
        }
    }

    /// Reconfigure (or disable, via [`CacheConfig::disabled`]) the
    /// generation-keyed result cache. On by default; any existing cached
    /// entries are dropped.
    pub fn with_result_cache(mut self, cfg: CacheConfig) -> Self {
        self.result_cache = ResultCache::new(cfg);
        self
    }

    /// Let DistinctRoot queries keep serving a BLINKS index up to `bound`
    /// generations stale instead of rebuilding on every graph change —
    /// answers may miss (or over-include) at most the last `bound`
    /// mutations' keywords, which is often acceptable while ingesting.
    pub fn with_staleness_bound(mut self, bound: u64) -> Self {
        self.staleness_bound = bound;
        self
    }

    /// Record every query into `registry`, and publish the graph keyword
    /// index's size figures, generation, and segment census up front.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        {
            let g = self.g.read().expect("graph state poisoned");
            record_index_stats(&registry, "graph_keyword", &g.keyword_index_stats());
            let segments = g.keyword_segment_counts();
            record_generation(
                &registry,
                "graph",
                g.generation(),
                segments.realtime,
                segments.sealed,
                0,
            );
        }
        self.obs = Some(EngineInstruments::new(
            registry,
            "graph",
            &["dpbf", "banks", "blinks"],
        ));
        self
    }

    /// A handle to the data graph this engine queries — a snapshot of the
    /// current generation (mutations copy-on-write).
    pub fn graph(&self) -> Arc<DataGraph> {
        Arc::clone(&self.g.read().expect("graph state poisoned"))
    }

    /// The graph's data generation (bumped by every node/edge added).
    pub fn generation(&self) -> u64 {
        self.g.read().expect("graph state poisoned").generation()
    }

    /// Add a node of `kind` with tokenized `content` — indexed into the
    /// keyword index's realtime segment immediately.
    pub fn add_node(&self, kind: &str, content: &str) -> NodeId {
        let mut g = self.g.write().expect("graph state poisoned");
        let id = Arc::make_mut(&mut g).add_node(kind, content);
        self.publish_generation(&g);
        id
    }

    /// Add an undirected edge of weight `w` between existing nodes.
    pub fn add_edge(&self, u: NodeId, v: NodeId, w: f64) {
        let mut g = self.g.write().expect("graph state poisoned");
        Arc::make_mut(&mut g).add_edge(u, v, w);
        self.publish_generation(&g);
    }

    /// Seal the keyword index's realtime segment into a compressed sealed
    /// segment.
    pub fn commit(&self) -> CommitOutcome {
        let mut g = self.g.write().expect("graph state poisoned");
        let segments = Arc::make_mut(&mut g).commit_keyword_index();
        self.publish_generation(&g);
        CommitOutcome {
            generation: g.generation(),
            segments,
        }
    }

    fn publish_generation(&self, g: &DataGraph) {
        let merges = g.keyword_index_merges();
        let seen = self.merges_seen.swap(merges, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            let reg = obs.registry();
            let segments = g.keyword_segment_counts();
            record_generation(
                reg,
                "graph",
                g.generation(),
                segments.realtime,
                segments.sealed,
                merges.saturating_sub(seen),
            );
        }
    }

    /// The BLINKS index for the current query: serve the cached one while
    /// it is within the staleness bound, else rebuild under the write lock
    /// (double-checked, so racing queries build once). Returns the index
    /// and whether it was a cache hit.
    fn blinks_index(
        &self,
        g: &DataGraph,
        blinks: &Blinks<'_>,
    ) -> (Arc<kwdb_graph::NodeKeywordIndex>, bool) {
        let generation = g.generation();
        let fresh_enough = |built: u64| generation.saturating_sub(built) <= self.staleness_bound;
        if let Some((built, ix)) = self.index.read().expect("blinks cache poisoned").as_ref() {
            if fresh_enough(*built) {
                return (Arc::clone(ix), true);
            }
        }
        let mut slot = self.index.write().expect("blinks cache poisoned");
        if let Some((built, ix)) = slot.as_ref() {
            if fresh_enough(*built) {
                return (Arc::clone(ix), true);
            }
        }
        let ix = Arc::new(blinks.build_full_index());
        *slot = Some((generation, Arc::clone(&ix)));
        (ix, false)
    }

    /// Execute a [`SearchRequest`] under `req.semantics` (default BANKS).
    pub fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<AnswerTree>> {
        // Snapshot the graph handle; the query runs against one generation
        // even if a mutation lands mid-flight (copy-on-write).
        let g = self.graph();
        let g = &*g;
        let budget = &req.budget;
        let semantics = req.semantics.unwrap_or(GraphSemantics::Banks);
        let segments = || g.keyword_segment_counts();
        let frame = QueryFrame {
            obs: self.obs.as_ref(),
            cache: &self.result_cache,
            engine: "graph",
            algorithm: match semantics {
                GraphSemantics::SteinerExact => "dpbf",
                GraphSemantics::Banks => "banks",
                GraphSemantics::DistinctRoot => "blinks",
            },
            workers: Cell::new(1),
            generation: g.generation(),
            segments: &segments,
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
                        vec![("states_popped".into(), work.states_popped.to_string())]
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
                        vec![("nodes_expanded".into(), work.nodes_expanded.to_string())]
                    });
                    (r, truncation)
                }
                GraphSemantics::DistinctRoot => {
                    tb.phase("build");
                    let blinks = Blinks::new(g);
                    let (ix, prebuilt) = self.blinks_index(g, &blinks);
                    if prebuilt {
                        stats.cache_hits = 1;
                    } else {
                        stats.cache_misses = 1;
                        if let Some(obs) = frame.obs {
                            record_index_stats(obs.registry(), "graph_node2kw", &ix.index_stats());
                        }
                    }
                    tb.event("node-keyword index", || {
                        vec![(
                            "outcome".into(),
                            if prebuilt { "hit" } else { "miss" }.into(),
                        )]
                    });
                    stats.phases.build = sw.lap();
                    tb.phase("evaluate");
                    let (r, truncation, work) =
                        blinks.search_budgeted(&ix, keywords, req.k, budget, &mut scratch);
                    stats.operators.sorted_accesses = work.sorted_accesses as u64;
                    stats.operators.random_accesses = work.random_accesses as u64;
                    tb.event("threshold algorithm", || {
                        vec![
                            ("sorted_accesses".into(), work.sorted_accesses.to_string()),
                            ("random_accesses".into(), work.random_accesses.to_string()),
                        ]
                    });
                    (r, truncation)
                }
            };
            stats.phases.evaluate = sw.lap();
            stats.candidates_generated = hits.len() as u64;
            tb.event("budget verdict", || {
                vec![(
                    "truncated".into(),
                    truncation.map_or("no".into(), |r| r.to_string()),
                )]
            });
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
