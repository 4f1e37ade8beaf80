//! Node-to-keyword distance lists — SLINKS/BLINKS (He et al., SIGMOD 07),
//! tutorial slides 123–125.
//!
//! For a keyword `k` a [`DistanceList`] stores, for every node `r`, the
//! distance from `r` to the nearest node matching `k`. Space is `O(|V|)` per
//! keyword instead of `O(|V|²)`. Two access paths are provided:
//!
//! * random access `class(r)`, whose distance is `levels()[class]` — the
//!   probe Fagin's TA needs;
//! * the distance-sorted node list — TA's sorted access;
//!
//! and a third, for the answer trees: [`DistanceList::path`] walks a node's
//! shortest path to its nearest match.
//!
//! # Layout
//!
//! [`NodeId`] is dense, so a keyword's list is flat arrays indexed by
//! `NodeId.0`: `class` (`u32`, the node's distance class), `origin` (`u32`,
//! the nearest match) and `next` (`u32`, the neighbour one edge closer to
//! it); beside them `levels`, the distinct distances in ascending order, so
//! a node's distance is `levels[class]`, and `sorted`, the reachable nodes
//! in `(dist, node)` order. That is 16 bytes per (node, keyword) on a
//! connected graph plus 8 per distinct distance — a handful under uniform
//! weights, so `levels` stays in L1 — and a random access reads one 4-byte
//! array. Distances stay `f64`: they are sums of edge weights in path order,
//! and BLINKS ranks by their sum, so a narrower type would change costs and
//! tie order; a class only names one. `origin` keeps the `(dist, smallest
//! origin id)` tie-break of
//! [`multi_source`](crate::shortest::multi_source), which the RDBMS-powered
//! formulation of the same semantics reproduces.
//!
//! # Build
//!
//! One multi-source pass from the keyword's match nodes that settles whole
//! distance classes — every node at one distance — in `(dist, node)` order.
//! Waiting nodes sit in buckets keyed by the bits of their distance; a
//! node's `origin` and `next` are those of the tight neighbour (`dist(u) +
//! w(u, v) == dist(v)`) with the smallest origin, offered by an earlier
//! class while the node waits; nodes of one class joined by an edge too
//! light to change the distance (weight zero) settle together, spreading
//! the smallest origin to a fixpoint. `sorted` is the settle order, so
//! nothing is sorted afterwards, and a node is queued again only when its
//! distance drops, never for a tie. Each settled class takes the next class
//! id and appends its distance to `levels`; the per-node distances are a
//! temporary of the pass.
//!
//! # Lifetime
//!
//! The lists belong to the graph: [`DataGraph::distance_list`] keeps one
//! write-once slot per term of the graph's own keyword dictionary, keyed by
//! its [`Sym`], and fills a slot with one build the first time anyone reads
//! it. So the work grows with the keywords queried, not with the
//! vocabulary, and `add_node` / `add_edge` — the graph's only `&mut` verbs —
//! drop every slot.

use crate::graph::{DataGraph, NodeId};
use kwdb_common::intern::Sym;
use std::collections::BTreeMap;
use std::mem::size_of;

const NONE: u32 = u32::MAX;

/// One keyword's distances.
#[derive(Debug, Clone, Default)]
pub struct DistanceList {
    /// Dense by `NodeId.0`: the index of the node's distance in `levels`,
    /// [`DistanceList::UNREACHABLE`] where no match is reachable.
    class: Vec<u32>,
    /// The distinct distances, ascending.
    levels: Vec<f64>,
    /// Dense by `NodeId.0`: nearest match node, [`NONE`] = unreachable.
    origin: Vec<u32>,
    /// Dense by `NodeId.0`: the neighbour one tight edge closer to `origin`
    /// (`dist(n) == dist(next) + w(n, next)` and the same `origin`),
    /// [`NONE`] at the match itself and where unreachable.
    next: Vec<u32>,
    /// Reachable nodes by ascending distance (ties by node id).
    sorted: Vec<NodeId>,
}

impl DistanceList {
    /// The [`class`](Self::class) of a node that reaches no match.
    pub const UNREACHABLE: u32 = u32::MAX;

    /// The list of the nodes matching `sym`, in one pass (see the module's
    /// *Build*).
    pub(crate) fn build(g: &DataGraph, sym: Sym) -> Self {
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut class = vec![Self::UNREACHABLE; n];
        let mut levels = Vec::new();
        let mut origin = vec![NONE; n];
        let mut next = vec![NONE; n];
        let mut sorted = Vec::new();
        // Waiting nodes by the bits of their distance (non-negative, so bit
        // order is numeric order); a node may also wait in a bucket it has
        // since left, where its distance no longer matches.
        let mut buckets: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut spare: Vec<Vec<u32>> = Vec::new();
        let sources = buckets.entry(0.0f64.to_bits()).or_default();
        for s in g.keyword_nodes_sym(sym) {
            dist[s.0 as usize] = 0.0;
            origin[s.0 as usize] = s.0;
            sources.push(s.0);
        }
        let w_min = g.min_edge_weight();
        let mut work = Vec::new();
        while let Some((bits, mut bucket)) = buckets.pop_first() {
            let d = f64::from_bits(bits);
            // The class at `d`: the bucket's current members, in node order;
            // none when every member has since moved to a shorter distance.
            let start = sorted.len();
            sorted.extend(
                bucket
                    .drain(..)
                    .filter(|&v| dist[v as usize] == d)
                    .map(NodeId),
            );
            spare.push(bucket);
            if sorted.len() == start {
                continue;
            }
            sorted[start..].sort_unstable();
            if d + w_min == d {
                // Edges that add nothing at `d` join nodes of one class: grow
                // it along them and spread the smallest origin to a fixpoint.
                work.extend(sorted[start..].iter().map(|u| u.0));
                while let Some(u) = work.pop() {
                    for &(v, w) in g.neighbors(NodeId(u)) {
                        let vi = v.0 as usize;
                        if d + w != d || dist[vi] < d {
                            continue;
                        }
                        if dist[vi] > d {
                            dist[vi] = d;
                            sorted.push(v);
                        } else if origin[u as usize] >= origin[vi] {
                            continue;
                        }
                        origin[vi] = origin[u as usize];
                        next[vi] = u;
                        work.push(v.0);
                    }
                }
                sorted[start..].sort_unstable();
            }
            // The class is settled: it takes the next id. Offer it to its
            // waiting neighbours: a shorter distance queues the node, a tie
            // only lowers its origin.
            let id = levels.len() as u32;
            levels.push(d);
            for &u in &sorted[start..] {
                class[u.0 as usize] = id;
                let from = origin[u.0 as usize];
                for &(v, w) in g.neighbors(u) {
                    let (vi, nd) = (v.0 as usize, d + w);
                    if nd < dist[vi] {
                        dist[vi] = nd;
                        buckets
                            .entry(nd.to_bits())
                            .or_insert_with(|| spare.pop().unwrap_or_default())
                            .push(v.0);
                    } else if nd != dist[vi] || nd == d || from >= origin[vi] {
                        continue;
                    }
                    origin[vi] = from;
                    next[vi] = u.0;
                }
            }
        }
        DistanceList {
            class,
            levels,
            origin,
            next,
            sorted,
        }
    }

    /// Distance from `node` to the nearest match and that match; `None` when
    /// no match is reachable.
    pub fn get(&self, node: NodeId) -> Option<(f64, NodeId)> {
        let i = node.0 as usize;
        let class = *self.class.get(i)?;
        (class != Self::UNREACHABLE).then(|| (self.levels[class as usize], NodeId(self.origin[i])))
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

    /// `node`'s distance class, an index into [`levels`](Self::levels), or
    /// [`Self::UNREACHABLE`] when no match is reachable — TA random access.
    #[inline]
    pub fn class(&self, node: NodeId) -> u32 {
        self.class
            .get(node.0 as usize)
            .copied()
            .unwrap_or(Self::UNREACHABLE)
    }

    /// The list's distinct distances in ascending order, indexed by class:
    /// along [`sorted`](Self::sorted) the class steps up by one at each new
    /// distance.
    #[inline]
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// The `(node, next)` steps of a shortest path from `node` to its
    /// nearest match, each across one edge; none from a match itself or from
    /// a node that reaches no match.
    pub fn path(&self, mut node: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        std::iter::from_fn(move || {
            let next = *self.next.get(node.0 as usize).filter(|&&n| n != NONE)?;
            Some((std::mem::replace(&mut node, NodeId(next)), NodeId(next)))
        })
    }

    /// What the five arrays hold.
    pub(crate) fn bytes(&self) -> usize {
        self.levels.len() * size_of::<f64>()
            + (self.class.len() + self.origin.len() + self.next.len()) * size_of::<u32>()
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
        g.distance_list(sym).0
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
        assert_eq!(g.distance_list_stats().terms, 0, "nothing built up front");
        assert!(g.distance_list(x).1, "the first read builds");
        assert!(!g.distance_list(x).1, "the second reads the slot");
        let stats = g.distance_list_stats();
        assert_eq!((stats.terms, stats.postings), (1, 4));
        // three u32s and a NodeId per node, an f64 per distance 0‥3
        assert_eq!(stats.posting_bytes, 4 * 16 + 4 * 8);
    }
}
