//! Node-to-keyword distance index — SLINKS/BLINKS (He et al., SIGMOD 07),
//! tutorial slides 123–125.
//!
//! For each keyword `k` the index stores, for every node `r`, the distance
//! from `r` to the nearest node matching `k`. Space is `O(K·|V|)` instead of
//! `O(|V|²)`. Two access paths are provided:
//!
//! * random access `dist(r, k)` — the probe Fagin's TA needs;
//! * a distance-sorted cursor per keyword — TA's sorted access.
//!
//! # Layout
//!
//! [`NodeId`] is dense, so a keyword's list is three flat arrays: `dist`
//! (`f64`) and `origin` (`u32`, the nearest match) indexed by `NodeId.0`,
//! and `sorted`, the reachable nodes in `(dist, node)` order — 16 bytes per
//! (node, keyword) on a connected graph, and a random access is two array
//! reads. Distances stay `f64`: they are sums of edge weights in path order,
//! and BLINKS ranks by their sum, so a narrower type would change costs and
//! tie order. `origin` keeps the `(dist, smallest origin id)` tie-break of
//! [`multi_source`](crate::shortest::multi_source), which the RDBMS-powered
//! formulation of the same semantics reproduces.
//!
//! Keywords are interned into a [`TermDict`], so the TA loop resolves each
//! query keyword to a [`Sym`] once and then performs its (per candidate ×
//! keyword) random accesses on dense ids — no string hashing in the loop.
//!
//! Building runs one multi-source Dijkstra per keyword (sources = the
//! keyword's match nodes) on a reused [`Expansion`], optionally
//! distance-capped (the `D` threshold of the D-reachability indexes,
//! Markowetz et al. ICDE 09). The lists are independent, so the keywords are
//! dealt out to [`kwdb_common::available_cores`] threads; the index is the same at
//! any thread count.

use crate::graph::{DataGraph, NodeId};
use crate::shortest::Expansion;
use kwdb_common::index::{IndexStats, TermDict};
use kwdb_common::intern::Sym;
use std::mem::size_of;
use std::time::Duration;

const NONE: u32 = u32::MAX;

/// One keyword's distances.
#[derive(Debug, Clone, Default)]
struct DistanceList {
    /// Dense by `NodeId.0`; meaningful where `origin` is set.
    dist: Vec<f64>,
    /// Dense by `NodeId.0`: nearest match node, [`NONE`] = unreachable.
    origin: Vec<u32>,
    /// Reachable nodes by ascending distance (ties by node id).
    sorted: Vec<NodeId>,
}

impl DistanceList {
    fn build(g: &DataGraph, exp: &mut Expansion, keyword: &str, max_dist: Option<f64>) -> Self {
        exp.nearest(g, g.keyword_nodes(keyword), max_dist);
        let mut dist = vec![f64::INFINITY; g.node_count()];
        let mut origin = vec![NONE; g.node_count()];
        for &n in exp.reached() {
            dist[n.0 as usize] = exp.dist(n).expect("reached");
            origin[n.0 as usize] = exp.tag(n).expect("reached");
        }
        let mut sorted = exp.reached().to_vec();
        sorted.sort_unstable_by(|a, b| {
            dist[a.0 as usize]
                .total_cmp(&dist[b.0 as usize])
                .then(a.cmp(b))
        });
        DistanceList {
            dist,
            origin,
            sorted,
        }
    }

    fn get(&self, node: NodeId) -> Option<(f64, NodeId)> {
        let i = node.0 as usize;
        let origin = *self.origin.get(i)?;
        (origin != NONE).then(|| (self.dist[i], NodeId(origin)))
    }
}

/// Distance lists for a set of keywords.
#[derive(Debug, Clone, Default)]
pub struct NodeKeywordIndex {
    dict: TermDict,
    /// Dense by `Sym`.
    lists: Vec<DistanceList>,
    build_time: Option<Duration>,
}

impl NodeKeywordIndex {
    /// Build for the given `keywords` over `g`. `max_dist` caps the index
    /// range (distances beyond it are treated as unreachable).
    pub fn build<S: AsRef<str>>(g: &DataGraph, keywords: &[S], max_dist: Option<f64>) -> Self {
        Self::build_on(g, keywords, max_dist, kwdb_common::available_cores())
    }

    /// [`build`](Self::build) on a given number of threads (`build` uses the
    /// core count). The result does not depend on it.
    pub fn build_on<S: AsRef<str>>(
        g: &DataGraph,
        keywords: &[S],
        max_dist: Option<f64>,
        threads: usize,
    ) -> Self {
        let start = std::time::Instant::now();
        let mut dict = TermDict::default();
        for k in keywords {
            dict.intern(k.as_ref()); // a repeated keyword is one list
        }
        let terms: Vec<&str> = dict.terms().collect();
        let build_chunk = |chunk: &[&str]| {
            let mut exp = Expansion::default();
            chunk
                .iter()
                .map(|k| DistanceList::build(g, &mut exp, k, max_dist))
                .collect::<Vec<_>>()
        };
        let threads = threads.clamp(1, terms.len().max(1));
        let lists = if threads == 1 {
            build_chunk(&terms)
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = terms
                    .chunks(terms.len().div_ceil(threads))
                    .map(|chunk| scope.spawn(move || build_chunk(chunk)))
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("index build thread panicked"))
                    .collect()
            })
        };
        NodeKeywordIndex {
            dict,
            lists,
            build_time: Some(start.elapsed()),
        }
    }

    /// Resolve a keyword to its dense id — one dictionary lookup. Do this
    /// once per query keyword, then probe by `Sym`.
    pub fn sym(&self, keyword: &str) -> Option<Sym> {
        self.dict.lookup(keyword)
    }

    /// Distance from `node` to the nearest match of `keyword`.
    pub fn dist(&self, node: NodeId, keyword: &str) -> Option<f64> {
        self.dist_sym(node, self.sym(keyword)?)
    }

    /// [`dist`](Self::dist) for an already-resolved keyword.
    pub fn dist_sym(&self, node: NodeId, sym: Sym) -> Option<f64> {
        self.lists[sym.0 as usize].get(node).map(|(d, _)| d)
    }

    /// The nearest match node of `keyword` from `node`.
    pub fn nearest_match(&self, node: NodeId, keyword: &str) -> Option<NodeId> {
        self.nearest_match_sym(node, self.sym(keyword)?)
    }

    /// [`nearest_match`](Self::nearest_match) for an already-resolved keyword.
    pub fn nearest_match_sym(&self, node: NodeId, sym: Sym) -> Option<NodeId> {
        self.lists[sym.0 as usize].get(node).map(|(_, m)| m)
    }

    /// The nodes that reach `keyword`, nearest first (ties by node id) — TA
    /// sorted access; read a node's distance with [`dist`](Self::dist).
    pub fn sorted_list(&self, keyword: &str) -> &[NodeId] {
        self.sym(keyword)
            .map(|s| self.sorted_list_sym(s))
            .unwrap_or(&[])
    }

    /// [`sorted_list`](Self::sorted_list) for an already-resolved keyword.
    pub fn sorted_list_sym(&self, sym: Sym) -> &[NodeId] {
        &self.lists[sym.0 as usize].sorted
    }

    /// Stored distances: reachable (node, keyword) pairs.
    pub fn entry_count(&self) -> usize {
        self.lists.iter().map(|l| l.sorted.len()).sum()
    }

    pub fn keywords(&self) -> impl Iterator<Item = &str> {
        self.dict.terms()
    }

    /// Whole-index size figures: terms = indexed keywords, postings =
    /// [`entry_count`](Self::entry_count), bytes = what the three arrays of
    /// every list hold, with the build wall-clock.
    pub fn index_stats(&self) -> IndexStats {
        let bytes = self
            .lists
            .iter()
            .map(|l| {
                l.dist.len() * size_of::<f64>()
                    + l.origin.len() * size_of::<u32>()
                    + l.sorted.len() * size_of::<NodeId>()
            })
            .sum();
        IndexStats::new(self.dict.len(), self.entry_count(), bytes).with_build(self.build_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a(x) — b — c(y) — d, unit weights.
    fn line() -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let a = g.add_node("n", "x");
        let b = g.add_node("n", "");
        let c = g.add_node("n", "y");
        let d = g.add_node("n", "");
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 1.0);
        g.add_edge(c, d, 1.0);
        (g, vec![a, b, c, d])
    }

    #[test]
    fn distances_to_nearest_match() {
        let (g, ids) = line();
        let ix = NodeKeywordIndex::build(&g, &["x", "y"], None);
        assert_eq!(ix.dist(ids[0], "x"), Some(0.0));
        assert_eq!(ix.dist(ids[3], "x"), Some(3.0));
        assert_eq!(ix.dist(ids[1], "y"), Some(1.0));
        assert_eq!(ix.nearest_match(ids[3], "x"), Some(ids[0]));
    }

    #[test]
    fn sorted_access_is_ascending() {
        let (g, _) = line();
        let ix = NodeKeywordIndex::build(&g, &["x"], None);
        let list = ix.sorted_list("x");
        assert_eq!(list.len(), 4);
        assert!(list
            .windows(2)
            .all(|w| ix.dist(w[0], "x") <= ix.dist(w[1], "x")));
        assert_eq!(ix.dist(list[0], "x"), Some(0.0));
    }

    #[test]
    fn max_dist_caps_index_size() {
        let (g, ids) = line();
        let full = NodeKeywordIndex::build(&g, &["x"], None);
        let capped = NodeKeywordIndex::build(&g, &["x"], Some(1.0));
        assert!(capped.entry_count() < full.entry_count());
        assert_eq!(capped.dist(ids[3], "x"), None);
        assert_eq!(capped.dist(ids[1], "x"), Some(1.0));
    }

    #[test]
    fn missing_keyword_is_empty() {
        let (g, ids) = line();
        let ix = NodeKeywordIndex::build(&g, &["x"], None);
        assert_eq!(ix.dist(ids[0], "zzz"), None);
        assert!(ix.sorted_list("zzz").is_empty());
        assert!(ix.sym("zzz").is_none());
    }

    #[test]
    fn multiple_matches_pick_nearest() {
        let mut g = DataGraph::new();
        let a = g.add_node("n", "k");
        let b = g.add_node("n", "");
        let c = g.add_node("n", "k");
        g.add_edge(a, b, 5.0);
        g.add_edge(b, c, 1.0);
        let ix = NodeKeywordIndex::build(&g, &["k"], None);
        assert_eq!(ix.dist(b, "k"), Some(1.0));
        assert_eq!(ix.nearest_match(b, "k"), Some(c));
    }

    #[test]
    fn sym_probes_match_string_probes() {
        let (g, ids) = line();
        let ix = NodeKeywordIndex::build(&g, &["x", "y"], None);
        let x = ix.sym("x").unwrap();
        for &n in &ids {
            assert_eq!(ix.dist_sym(n, x), ix.dist(n, "x"));
            assert_eq!(ix.nearest_match_sym(n, x), ix.nearest_match(n, "x"));
        }
        assert_eq!(ix.sorted_list_sym(x), ix.sorted_list("x"));
    }

    #[test]
    fn duplicate_keywords_dont_desync() {
        let (g, ids) = line();
        let ix = NodeKeywordIndex::build(&g, &["x", "x", "y"], None);
        assert_eq!(ix.dist(ids[3], "x"), Some(3.0));
        assert_eq!(ix.dist(ids[1], "y"), Some(1.0));
        let stats = ix.index_stats();
        assert_eq!(stats.terms, 2);
        assert!(stats.build.is_some());
    }
}
