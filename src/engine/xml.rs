//! The XML engine: indexed SLCA plus XBridge-style proximity ranking over
//! an immutable tree, inside the shared query frame.

use super::frame::{field, run_query, trace_verdict, Answer, Evaluated, QueryFrame, ResultCache};
use super::{Engine, Hit, SearchRequest, SearchResponse};
use kwdb_common::{Budget, CacheConfig, QueryStats, Result, Stopwatch, TruncationReason};
use kwdb_obs::{record_index_stats, EngineInstruments, MetricsRegistry, TraceBuilder};
use kwdb_rank::proximity::discounted_path_len;
use kwdb_xml::{NodeId, XmlIndex, XmlTree};
use std::sync::Arc;

/// A ranked XML hit: a result subtree root.
#[derive(Debug, Clone)]
pub struct XmlHit {
    pub root: NodeId,
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
    /// Build an engine owning `tree` and its prebuilt `index`
    /// ([`XmlIndex::build`]).
    pub fn new(tree: XmlTree, index: XmlIndex) -> Self {
        Self::from_arc(Arc::new((tree, index)))
    }

    /// Build an engine from `tree` alone, constructing the index here.
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
        let frame = QueryFrame {
            obs: self.obs.as_ref(),
            cache: &self.result_cache,
            engine: "xml",
            algorithm: "slca",
            // XML trees are immutable here: generation 0.
            generation: 0,
            empty_facets: &|| Ok(Vec::new()),
            hit_bytes: xml_hit_bytes,
            keyword_order: false,
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
            let scored = score_roots(tree, index, keywords, &roots, budget, &mut truncation);
            stats.candidates_pruned = stats
                .candidates_generated
                .saturating_sub(scored.len().min(req.k) as u64);
            let scored = top_k(scored, req.k);
            stats.phases.evaluate = sw.lap();

            // only the survivors pay for a label path
            tb.phase("render");
            let hits: Vec<XmlHit> = scored
                .into_iter()
                .map(|(score, root)| XmlHit {
                    root,
                    score,
                    label_path: tree.label_path(root),
                })
                .collect();
            stats.phases.facets = sw.lap();
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

/// XBridge-style proximity of each SLCA root `r` (tutorial slide 160), from
/// the tree's structure alone. Each keyword's first match `m` in `r`'s
/// subtree costs `discounted_path_len` of the edges on its path from `r`
/// that no earlier keyword's path used: `depth(m) − shared`, where `shared`
/// is the deepest LCA depth of `m` with an earlier keyword's match, or
/// `depth(r)` for the first. In a tree those are exactly the fresh edges
/// `kwdb_rank::proximity`'s edge-set reference counts, summed in the same
/// order — the same bits. `roots` ascend, so one cursor per keyword seeks
/// each root's first match. A budget that runs out stops scoring and sets
/// `truncation`; the roots scored so far are returned.
fn score_roots(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[String],
    roots: &[NodeId],
    budget: &Budget,
    truncation: &mut Option<TruncationReason>,
) -> Vec<(f64, NodeId)> {
    let avg_depth = tree.avg_leaf_depth();
    // one dictionary lookup per keyword
    let mut cursors: Vec<_> = keywords.iter().map(|kw| index.nodes(kw).cursor()).collect();
    let mut matches: Vec<NodeId> = Vec::with_capacity(keywords.len());
    let mut scored = Vec::with_capacity(roots.len());
    for &r in roots {
        if !scored.is_empty() {
            if let Some(reason) = budget.truncation_at(scored.len() as u64) {
                *truncation = Some(reason);
                break;
            }
        }
        let end = tree.subtree_end(r);
        matches.clear();
        let mut cost = 0.0;
        for cursor in &mut cursors {
            let Some(m) = cursor.seek(r.0 as u64).filter(|&m| m < end) else {
                continue;
            };
            let shared = matches
                .iter()
                .map(|&p| tree.depth(tree.lca(m, p)))
                .max()
                .unwrap_or(tree.depth(r));
            cost += discounted_path_len((tree.depth(m) - shared) as usize, avg_depth);
            matches.push(m);
        }
        scored.push((1.0 / (1.0 + cost), r));
    }
    scored
}

/// The `k` best `(score, root)` pairs, best first: score descending, then
/// document order (`total_cmp` sorts a NaN score last instead of panicking).
fn top_k(mut scored: Vec<(f64, NodeId)>, k: usize) -> Vec<(f64, NodeId)> {
    let order = |a: &(f64, NodeId), b: &(f64, NodeId)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    if k < scored.len() {
        if k > 0 {
            scored.select_nth_unstable_by(k - 1, order);
        }
        scored.truncate(k);
    }
    scored.sort_unstable_by(order);
    scored
}

fn xml_hit_bytes(h: &XmlHit) -> usize {
    h.label_path.len() + 40
}
