//! Node-to-keyword distance lists — SLINKS/BLINKS (He et al., SIGMOD 07),
//! tutorial slides 123–125.
//!
//! For a keyword `k` a [`DistanceList`] stores, for every node `r`, the
//! distance from `r` to the nearest node matching `k`. Space is `O(|V|)` per
//! keyword instead of `O(|V|²)`. Two access paths are provided:
//!
//! * random access `dist(r)` — the probe Fagin's TA needs;
//! * the distance-sorted node list — TA's sorted access.
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
//! # Lifetime
//!
//! The lists belong to the graph: [`DataGraph::distance_list`] keeps one
//! write-once slot per term of the graph's own keyword dictionary, keyed by
//! its [`Sym`], and fills a slot with one multi-source Dijkstra (sources =
//! the keyword's match nodes) on the caller's [`Expansion`] the first time
//! anyone reads it. So the work grows
//! with the keywords queried, not with the vocabulary, and `add_node` /
//! `add_edge` — the graph's only `&mut` verbs — drop every slot.

use crate::graph::{DataGraph, NodeId};
use crate::shortest::Expansion;
use kwdb_common::intern::Sym;
use std::mem::size_of;

const NONE: u32 = u32::MAX;

/// One keyword's distances.
#[derive(Debug, Clone, Default)]
pub struct DistanceList {
    /// Dense by `NodeId.0`; meaningful where `origin` is set.
    dist: Vec<f64>,
    /// Dense by `NodeId.0`: nearest match node, [`NONE`] = unreachable.
    origin: Vec<u32>,
    /// Reachable nodes by ascending distance (ties by node id).
    sorted: Vec<NodeId>,
}

impl DistanceList {
    /// One multi-source run on `exp` from the nodes matching `sym`.
    pub(crate) fn build(g: &DataGraph, exp: &mut Expansion, sym: Sym) -> Self {
        exp.nearest(g, g.keyword_nodes_sym(sym), None);
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

    /// Distance from `node` to the nearest match and that match; `None` when
    /// no match is reachable.
    pub fn get(&self, node: NodeId) -> Option<(f64, NodeId)> {
        let i = node.0 as usize;
        let origin = *self.origin.get(i)?;
        (origin != NONE).then(|| (self.dist[i], NodeId(origin)))
    }

    /// Distance from `node` to the nearest match.
    pub fn dist(&self, node: NodeId) -> Option<f64> {
        self.get(node).map(|(d, _)| d)
    }

    /// The nearest match from `node`.
    pub fn nearest_match(&self, node: NodeId) -> Option<NodeId> {
        self.get(node).map(|(_, m)| m)
    }

    /// The nodes that reach a match, nearest first (ties by node id) — TA
    /// sorted access.
    pub fn sorted(&self) -> &[NodeId] {
        &self.sorted
    }

    /// What the three arrays hold.
    pub(crate) fn bytes(&self) -> usize {
        self.dist.len() * size_of::<f64>()
            + self.origin.len() * size_of::<u32>()
            + self.sorted.len() * size_of::<NodeId>()
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

    fn list<'g>(g: &'g DataGraph, kw: &str) -> &'g DistanceList {
        let sym = g.keyword_sym(kw).expect("indexed keyword");
        g.distance_list(sym, &mut Expansion::default()).0
    }

    #[test]
    fn distances_to_nearest_match() {
        let (g, ids) = line();
        assert_eq!(list(&g, "x").dist(ids[0]), Some(0.0));
        assert_eq!(list(&g, "x").dist(ids[3]), Some(3.0));
        assert_eq!(list(&g, "y").dist(ids[1]), Some(1.0));
        assert_eq!(list(&g, "x").nearest_match(ids[3]), Some(ids[0]));
    }

    #[test]
    fn sorted_access_is_ascending() {
        let (g, _) = line();
        let x = list(&g, "x");
        assert_eq!(x.sorted().len(), 4);
        assert!(x.sorted().windows(2).all(|w| x.dist(w[0]) <= x.dist(w[1])));
        assert_eq!(x.dist(x.sorted()[0]), Some(0.0));
    }

    #[test]
    fn multiple_matches_pick_nearest() {
        let mut g = DataGraph::new();
        let a = g.add_node("n", "k");
        let b = g.add_node("n", "");
        let c = g.add_node("n", "k");
        g.add_edge(a, b, 5.0);
        g.add_edge(b, c, 1.0);
        assert_eq!(list(&g, "k").dist(b), Some(1.0));
        assert_eq!(list(&g, "k").nearest_match(b), Some(c));
    }

    #[test]
    fn a_list_is_built_once_and_counted_in_the_stats() {
        let (g, _) = line();
        let x = g.keyword_sym("x").unwrap();
        let mut exp = Expansion::default();
        assert_eq!(g.distance_list_stats().terms, 0, "nothing built up front");
        assert!(g.distance_list(x, &mut exp).1, "the first read builds");
        assert!(!g.distance_list(x, &mut exp).1, "the second reads the slot");
        let stats = g.distance_list_stats();
        assert_eq!((stats.terms, stats.postings), (1, 4));
        assert_eq!(stats.posting_bytes, 4 * 16);
    }
}
