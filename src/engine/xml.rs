//! The XML engine: indexed SLCA plus XBridge-style proximity ranking over
//! an immutable tree, inside the shared query frame.

use super::frame::{field, run_query, trace_verdict, Answer, Evaluated, QueryFrame, ResultCache};
use super::{Engine, Hit, SearchRequest, SearchResponse};
use kwdb_common::{CacheConfig, QueryStats, Result, Stopwatch};
use kwdb_obs::{record_index_stats, EngineInstruments, MetricsRegistry, TraceBuilder};
use kwdb_xml::{XmlIndex, XmlTree};
use std::cell::Cell;
use std::sync::Arc;

/// A ranked XML hit: a result subtree root.
#[derive(Debug, Clone)]
pub struct XmlHit {
    pub root: kwdb_xml::NodeId,
    pub score: f64,
    pub label_path: String,
}

/// SLCA keyword search over an XML tree, ranked by XBridge-style keyword
/// proximity ([`kwdb_rank::proximity`], tutorial slides 158–160).
///
/// Owns the tree and its index together behind one `Arc`, so the engine is
/// `Send + Sync` and the index can never outlive or diverge from its tree.
pub struct XmlEngine {
    data: Arc<(XmlTree, XmlIndex)>,
    obs: Option<EngineInstruments>,
    /// Whole-response cache (see
    /// [`RelationalConfig::result_cache`](super::RelationalConfig::result_cache)
    /// for the shared semantics). The tree is immutable, so entries only ever
    /// age out through the LRU budget — generation is pinned to 0.
    result_cache: ResultCache<XmlHit>,
}

impl XmlEngine {
    /// Build an engine owning `tree` and its prebuilt `index` — in whatever
    /// posting layout the index was built with ([`XmlIndex::build_with`]).
    pub fn new(tree: XmlTree, index: XmlIndex) -> Self {
        Self::from_arc(Arc::new((tree, index)))
    }

    /// Build an engine from `tree` alone, constructing the index here in the
    /// default layout.
    pub fn from_tree(tree: XmlTree) -> Self {
        let index = XmlIndex::build(&tree);
        Self::new(tree, index)
    }

    /// Share an existing tree+index pair with other owners.
    pub fn from_arc(data: Arc<(XmlTree, XmlIndex)>) -> Self {
        XmlEngine {
            data,
            obs: None,
            result_cache: ResultCache::new(CacheConfig::default()),
        }
    }

    /// Reconfigure (or disable, via [`CacheConfig::disabled`]) the result
    /// cache. On by default; any existing cached entries are dropped.
    pub fn with_result_cache(mut self, cfg: CacheConfig) -> Self {
        self.result_cache = ResultCache::new(cfg);
        self
    }

    /// Record every query into `registry`, and publish the XML keyword
    /// index's build/size figures up front.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        record_index_stats(&registry, "xml_keyword", &self.data.1.index_stats());
        self.obs = Some(EngineInstruments::new(registry, "xml", &["slca"]));
        self
    }

    /// The shared tree+index pair this engine queries.
    pub fn data(&self) -> &Arc<(XmlTree, XmlIndex)> {
        &self.data
    }

    /// Execute a [`SearchRequest`]: budgeted SLCA + proximity ranking.
    pub fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<XmlHit>> {
        let (tree, index) = &*self.data;
        let budget = &req.budget;
        let segments = || index.segment_counts();
        let frame = QueryFrame {
            obs: self.obs.as_ref(),
            cache: &self.result_cache,
            engine: "xml",
            algorithm: "slca",
            workers: Cell::new(1),
            // XML trees are immutable here: generation 0, but the segment
            // census is real (the keyword index is segment-backed like the
            // others).
            generation: 0,
            segments: &segments,
            empty_facets: &|| Ok(Vec::new()),
            hit_bytes: xml_hit_bytes,
        };
        let run = |keywords: &[String],
                   stats: &mut QueryStats,
                   sw: &mut Stopwatch,
                   tb: &mut TraceBuilder|
         -> Result<Evaluated<XmlHit>> {
            tb.phase("build");
            let (roots, slca_stats, mut truncation) =
                kwdb_xmlsearch::slca_indexed_budgeted(tree, index, keywords, budget)?;
            stats.phases.build = sw.lap();
            stats.operators.sorted_accesses = slca_stats.anchors as u64;
            stats.operators.random_accesses = slca_stats.probes as u64;
            stats.candidates_generated = roots.len() as u64;
            tb.event("slca", || {
                vec![
                    field("roots", roots.len()),
                    field("anchors", slca_stats.anchors),
                    field("probes", slca_stats.probes),
                ]
            });

            tb.phase("evaluate");
            let sizes = index.subtree_sizes();
            let avg_depth = index.avg_leaf_depth();
            // one dictionary lookup per keyword; scoring below probes these views
            let kw_lists: Vec<_> = keywords.iter().map(|kw| index.nodes(kw)).collect();
            let mut hits: Vec<XmlHit> = Vec::with_capacity(roots.len());
            for r in roots {
                if !hits.is_empty() {
                    if let Some(reason) = budget.truncation_at(hits.len() as u64) {
                        truncation = Some(reason);
                        break;
                    }
                }
                // root→match path (node ids) for each keyword's first match
                // inside the result subtree
                let end = kwdb_xml::NodeId(r.0 + sizes[r.0 as usize]);
                let paths: Vec<Vec<u64>> = kw_lists
                    .iter()
                    .filter_map(|list| {
                        let m = list.right_match(r).filter(|&m| m < end)?;
                        let mut path = vec![m.0 as u64];
                        let mut cur = m;
                        while cur != r {
                            cur = tree.parent(cur).expect("r is an ancestor");
                            path.push(cur.0 as u64);
                        }
                        path.reverse();
                        Some(path)
                    })
                    .collect();
                hits.push(XmlHit {
                    score: kwdb_rank::proximity::proximity_score(&paths, avg_depth),
                    label_path: tree.label_path(r),
                    root: r,
                });
            }
            // total_cmp: a NaN proximity score must sort deterministically (last),
            // not panic the engine.
            hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.root.cmp(&b.root)));
            stats.candidates_pruned = stats
                .candidates_generated
                .saturating_sub(hits.len().min(req.k) as u64);
            hits.truncate(req.k);
            stats.phases.evaluate = sw.lap();
            trace_verdict(tb, truncation);
            Ok((Answer::unfaceted(hits), truncation))
        };
        run_query(&frame, req, |keywords, _| Ok(keywords), run)
    }
}

impl Engine for XmlEngine {
    fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<Hit>> {
        Ok(XmlEngine::execute(self, req)?.map(Hit::Xml))
    }
}

fn xml_hit_bytes(h: &XmlHit) -> usize {
    h.label_path.len() + 40
}
