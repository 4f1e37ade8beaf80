//! Shortest paths: one dense Dijkstra ([`Expansion`]) that every caller —
//! [`dijkstra`] (and the hub index through it), [`multi_source`], BANKS'
//! backward expansions — runs on, plus hop-bounded BFS. The node→keyword
//! distance lists are built by a pass of their own ([`crate::node2kw`]);
//! [`multi_source`] is the reference they are tested against.
//!
//! [`NodeId`] is a dense `u32`, so an expansion's per-node state is an array
//! indexed by it, not a hash map. The arrays are as long as the graph, but a
//! run pays for what it reaches: [`Expansion::begin`] resets exactly the
//! labels the previous run touched. [`dijkstra`] and [`multi_source`] are the
//! same loop on a fresh `Expansion`, materialized into maps.
//!
//! Relaxation is lazy: a settled node waits, in settle order, until the queue
//! could need its edges. None of its offers is below `dist + w_min` (`w_min`
//! the graph's smallest edge weight), so [`Expansion::pop`] first relaxes the
//! waiting nodes with `dist + w_min ≤` the head's distance, [`Expansion::peek`]
//! those with `<`. Settle order is distance order, so only the front needs the
//! test; what still waits cannot change the head, so nodes settle (and `peek`
//! reads) as under eager relaxation; and relaxations run in settle order, so
//! every label and pred is the eager loop's. A run that stops early leaves its
//! last settled ring unrelaxed; `w_min = 0` relaxes everything before a pop.

use crate::graph::{DataGraph, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

const NONE: u32 = u32::MAX;

/// What an expansion knows about one node. Labels order by `(dist, tag)`;
/// the unreached label is larger than any a run can produce.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: f64,
    tag: u32,
    pred: u32,
}

const UNREACHED: Label = Label {
    dist: f64::INFINITY,
    tag: NONE,
    pred: NONE,
};

/// A reusable Dijkstra over dense per-node labels `(dist, tag, pred)`.
///
/// A seed's `tag` travels along the paths grown from it and breaks distance
/// ties (smaller wins): seeding every source with its own id yields
/// nearest-source semantics with the smallest-origin tie-break of
/// [`multi_source`]; seeding with one constant makes it plain Dijkstra,
/// where the first path found at a distance keeps the node.
///
/// Callers drive it one settled node at a time ([`pop`](Self::pop)) or
/// through [`search`](Self::search) / [`multi_source`].
#[derive(Debug, Default)]
pub struct Expansion {
    /// Dense by `NodeId.0`; [`UNREACHED`] everywhere outside `touched`.
    labels: Vec<Label>,
    touched: Vec<NodeId>,
    /// Min-queue of [`queue_key`]`(dist, tag, node)`.
    heap: BinaryHeap<Reverse<u128>>,
    /// Nodes to expand, in settle order; the first `relaxed` have offered
    /// their edges, the rest wait.
    settled: Vec<NodeId>,
    relaxed: usize,
    /// Bits of the first waiting node's `dist + w_min`, `u64::MAX` if none.
    due: u64,
    w_min: f64,
    max_dist: f64,
}

/// A best-first queue entry `(cost, a, b)` packed so that integer order is
/// the tuple's order (one comparison per heap step instead of three). Costs
/// are sums of non-negative weights from `+0.0`, and on non-negative floats
/// (`+∞` included) bit order is numeric order.
pub fn queue_key(cost: f64, a: u32, b: u32) -> u128 {
    debug_assert!(cost >= 0.0 && cost.is_sign_positive());
    (cost.to_bits() as u128) << 64 | (a as u128) << 32 | b as u128
}

/// The `(cost, a, b)` a [`queue_key`] was packed from.
pub fn unpack_key(key: u128) -> (f64, u32, u32) {
    (
        f64::from_bits((key >> 64) as u64),
        (key >> 32) as u32,
        key as u32,
    )
}

impl Expansion {
    /// Forget the previous run — only the labels it touched are rewritten —
    /// and size the arrays for `g`.
    pub fn begin(&mut self, g: &DataGraph) {
        for n in self.touched.drain(..) {
            self.labels[n.0 as usize] = UNREACHED;
        }
        self.labels.resize(g.node_count(), UNREACHED);
        self.heap.clear();
        self.settled.clear();
        self.relaxed = 0;
        self.due = u64::MAX;
        self.w_min = g.min_edge_weight();
        self.max_dist = f64::INFINITY;
    }

    /// Make `s` a source at distance 0.
    pub fn seed(&mut self, s: NodeId, tag: u32) {
        self.improve(s, 0.0, tag, NONE);
    }

    fn improve(&mut self, v: NodeId, dist: f64, tag: u32, pred: u32) {
        let l = &mut self.labels[v.0 as usize];
        if (dist, tag) < (l.dist, l.tag) {
            if l.tag == NONE {
                self.touched.push(v);
            }
            *l = Label { dist, tag, pred };
            self.heap.push(Reverse(queue_key(dist, tag, v.0)));
        }
    }

    /// Bits of the head entry's distance, `u64::MAX` for an empty queue.
    fn head(&self) -> u64 {
        self.heap
            .peek()
            .map_or(u64::MAX, |&Reverse(key)| (key >> 64) as u64)
    }

    /// Distance of the queue's head (which may be a superseded entry), after
    /// relaxing the waiting nodes that could offer less.
    pub fn peek(&mut self, g: &DataGraph) -> Option<f64> {
        while self.due < self.head() && self.relax_next(g) {}
        self.heap.peek().map(|&Reverse(key)| unpack_key(key).0)
    }

    /// Settle the next node — the closest queued one whose entry is current,
    /// after relaxing the waiting nodes that could offer as little — and queue
    /// it for relaxing.
    pub fn pop(&mut self, g: &DataGraph) -> Option<NodeId> {
        let u = self.settle(g)?;
        self.defer(u);
        Some(u)
    }

    fn settle(&mut self, g: &DataGraph) -> Option<NodeId> {
        loop {
            if self.due <= self.head() && self.relax_next(g) {
                continue;
            }
            let Reverse(key) = self.heap.pop()?;
            let (d, tag, u) = unpack_key(key);
            let l = self.labels[u as usize];
            if (d, tag) <= (l.dist, l.tag) {
                return Some(NodeId(u));
            }
        }
    }

    fn defer(&mut self, u: NodeId) {
        let due = self.labels[u.0 as usize].dist + self.w_min;
        self.due = self.due.min(due.to_bits()); // only an empty FIFO's moves
        self.settled.push(u);
    }

    /// Offer the first waiting node's label plus one edge to each neighbour,
    /// dropping offers beyond `max_dist`; `false` if none waits. Every
    /// Dijkstra over nodes in the workspace's request path is this loop.
    fn relax_next(&mut self, g: &DataGraph) -> bool {
        let Some(&u) = self.settled.get(self.relaxed) else {
            return false;
        };
        self.relaxed += 1;
        let Label { dist, tag, .. } = self.labels[u.0 as usize];
        for &(v, w) in g.neighbors(u) {
            let nd = dist + w;
            if nd <= self.max_dist {
                self.improve(v, nd, tag, u.0);
            }
        }
        self.due = self.settled.get(self.relaxed).map_or(u64::MAX, |n| {
            (self.labels[n.0 as usize].dist + self.w_min).to_bits()
        });
        true
    }

    /// Settled nodes whose edges this run has relaxed.
    pub fn relaxed(&self) -> usize {
        self.relaxed
    }

    /// Dijkstra from `source`, optionally stopping once `target` is settled
    /// and/or pruning at `max_dist`. `avoid_expanding` nodes are never
    /// *expanded* (but can be settled) — the hub index uses this to compute
    /// hub-avoiding distances.
    pub fn search(
        &mut self,
        g: &DataGraph,
        source: NodeId,
        target: Option<NodeId>,
        max_dist: Option<f64>,
        avoid_expanding: &dyn Fn(NodeId) -> bool,
    ) {
        self.begin(g);
        self.max_dist = max_dist.unwrap_or(f64::INFINITY);
        self.seed(source, 0);
        while let Some(u) = self.settle(g) {
            if target == Some(u) {
                break;
            }
            if u == source || !avoid_expanding(u) {
                self.defer(u);
            }
        }
    }

    /// Every node this run has labelled, in first-touch order.
    pub fn reached(&self) -> &[NodeId] {
        &self.touched
    }

    fn label(&self, n: NodeId) -> Option<&Label> {
        self.labels.get(n.0 as usize).filter(|l| l.tag != NONE)
    }

    /// Best known distance of `n`, `None` if unreached.
    pub fn dist(&self, n: NodeId) -> Option<f64> {
        self.label(n).map(|l| l.dist)
    }

    /// The node `n`'s label was offered from; `None` for sources and
    /// unreached nodes.
    pub fn pred(&self, n: NodeId) -> Option<NodeId> {
        self.label(n)
            .filter(|l| l.pred != NONE)
            .map(|l| NodeId(l.pred))
    }

    /// The `(node, pred)` steps from `n` back to the source its path starts at.
    pub fn path(&self, mut n: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        std::iter::from_fn(move || {
            let p = self.pred(n)?;
            Some((std::mem::replace(&mut n, p), p))
        })
    }
}

/// Result of a Dijkstra run: distance and predecessor maps.
#[derive(Debug, Clone, Default)]
pub struct ShortestPaths {
    pub dist: HashMap<NodeId, f64>,
    pub pred: HashMap<NodeId, NodeId>,
}

/// [`Expansion::search`] on a fresh expansion, materialized into maps. With a
/// `target`, the maps hold fewer tentative labels than an eager loop leaves.
pub fn dijkstra(
    g: &DataGraph,
    source: NodeId,
    target: Option<NodeId>,
    max_dist: Option<f64>,
    avoid_expanding: &dyn Fn(NodeId) -> bool,
) -> ShortestPaths {
    let mut exp = Expansion::default();
    exp.search(g, source, target, max_dist, avoid_expanding);
    let mut out = ShortestPaths::default();
    for &n in exp.reached() {
        out.dist.insert(n, exp.labels[n.0 as usize].dist);
        if let Some(p) = exp.pred(n) {
            out.pred.insert(n, p);
        }
    }
    out
}

/// Plain single-source Dijkstra over the whole graph.
pub fn dijkstra_all(g: &DataGraph, source: NodeId) -> ShortestPaths {
    dijkstra(g, source, None, None, &|_| false)
}

/// Shortest distance between two nodes, or `None` if disconnected.
pub fn distance(g: &DataGraph, a: NodeId, b: NodeId) -> Option<f64> {
    let mut exp = Expansion::default();
    exp.search(g, a, Some(b), None, &|_| false);
    exp.dist(b)
}

/// Multi-source Dijkstra to exhaustion, every source tagged with its own
/// id: distance from every node to the nearest of `sources`. Returns
/// `(dist, nearest-source)` maps; the node→keyword lists
/// ([`crate::node2kw`]) hold the same pairs as arrays, from a pass of their
/// own.
///
/// Ties are broken deterministically: among equidistant sources the one
/// with the **smallest node id** wins, so independent implementations of
/// nearest-match semantics (e.g. the RDBMS-powered formulation) agree
/// exactly.
pub fn multi_source(
    g: &DataGraph,
    sources: impl IntoIterator<Item = NodeId>,
    max_dist: Option<f64>,
) -> (HashMap<NodeId, f64>, HashMap<NodeId, NodeId>) {
    let mut exp = Expansion::default();
    exp.begin(g);
    exp.max_dist = max_dist.unwrap_or(f64::INFINITY);
    for s in sources {
        exp.seed(s, s.0);
    }
    while exp.pop(g).is_some() {}
    let mut dist = HashMap::with_capacity(exp.reached().len());
    let mut origin = HashMap::with_capacity(exp.reached().len());
    for &n in exp.reached() {
        let l = exp.labels[n.0 as usize];
        dist.insert(n, l.dist);
        origin.insert(n, NodeId(l.tag));
    }
    (dist, origin)
}

/// Nodes within `hops` edges of `source` (unweighted BFS), including it.
pub fn within_hops(g: &DataGraph, source: NodeId, hops: usize) -> HashMap<NodeId, usize> {
    let mut seen: HashMap<NodeId, usize> = HashMap::new();
    seen.insert(source, 0);
    let mut frontier = vec![source];
    for h in 1..=hops {
        let mut next = Vec::new();
        for &u in &frontier {
            for &(v, _) in g.neighbors(u) {
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(v) {
                    e.insert(h);
                    next.push(v);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_common::Rng;

    /// Path graph a—b—c—d with weights 1, 2, 3 plus a shortcut a—d weight 10.
    fn path_graph() -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let ids: Vec<NodeId> = (0..4).map(|i| g.add_node("n", &format!("w{i}"))).collect();
        g.add_edge(ids[0], ids[1], 1.0);
        g.add_edge(ids[1], ids[2], 2.0);
        g.add_edge(ids[2], ids[3], 3.0);
        g.add_edge(ids[0], ids[3], 10.0);
        (g, ids)
    }

    #[test]
    fn dijkstra_finds_shortest() {
        let (g, ids) = path_graph();
        assert_eq!(distance(&g, ids[0], ids[3]), Some(6.0));
        assert_eq!(distance(&g, ids[0], ids[0]), Some(0.0));
    }

    #[test]
    fn disconnected_is_none() {
        let mut g = DataGraph::new();
        let a = g.add_node("n", "");
        let b = g.add_node("n", "");
        assert_eq!(distance(&g, a, b), None);
    }

    #[test]
    fn avoid_expanding_blocks_through_traffic() {
        let (g, ids) = path_graph();
        // Avoid expanding b: the only route to d is the direct 10-edge.
        let block = ids[1];
        let sp = dijkstra(&g, ids[0], None, None, &|n| n == block);
        assert_eq!(sp.dist[&ids[3]], 10.0);
        // b itself is still settled (distance 1) — it's a border node.
        assert_eq!(sp.dist[&ids[1]], 1.0);
    }

    #[test]
    fn max_dist_prunes() {
        let (g, ids) = path_graph();
        let sp = dijkstra(&g, ids[0], None, Some(3.0), &|_| false);
        assert!(sp.dist.contains_key(&ids[2]));
        assert!(!sp.dist.contains_key(&ids[3]));
    }

    #[test]
    fn multi_source_tracks_origin() {
        let (g, ids) = path_graph();
        let (dist, origin) = multi_source(&g, [ids[0], ids[3]], None);
        assert_eq!(dist[&ids[1]], 1.0);
        assert_eq!(origin[&ids[1]], ids[0]);
        // c is equidistant from both sources (a–b–c = 3 = d–c); the
        // deterministic tie-break picks the smaller node id
        assert_eq!(dist[&ids[2]], 3.0);
        assert_eq!(origin[&ids[2]], ids[0]);
    }

    /// `n` nodes, random edges weighted by `kind`: 0 = small integers with
    /// zeros, 1 = small positive integers, 2 = `1 + ln(1 + degree)`.
    fn random_graph(rng: &mut Rng, n: usize, kind: usize) -> DataGraph {
        let mut g = DataGraph::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node("n", "")).collect();
        let pairs: Vec<(usize, usize)> = (0..rng.gen_range(n..3 * n))
            .map(|_| (rng.gen_index(n), rng.gen_index(n)))
            .collect();
        let mut degree = vec![0usize; n];
        for &(u, v) in &pairs {
            degree[u] += 1;
            degree[v] += 1;
        }
        for (u, v) in pairs {
            let w = match kind {
                0 => *rng.choose(&[0.0, 1.0, 2.0, 3.0]),
                1 => *rng.choose(&[1.0, 2.0, 3.0]),
                _ => 1.0 + (1.0 + degree[v] as f64).ln(),
            };
            g.add_edge(ids[u], ids[v], w);
        }
        g
    }

    /// `(dist, tag)` per node by relaxing every edge until nothing changes.
    fn fixpoint(g: &DataGraph, seeds: &[(NodeId, u32)]) -> Vec<(f64, u32)> {
        let mut best = vec![(f64::INFINITY, NONE); g.node_count()];
        for &(s, tag) in seeds {
            if (0.0, tag) < best[s.0 as usize] {
                best[s.0 as usize] = (0.0, tag);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for u in g.iter() {
                let (d, tag) = best[u.0 as usize];
                for &(v, w) in g.neighbors(u) {
                    if (d + w, tag) < best[v.0 as usize] {
                        best[v.0 as usize] = (d + w, tag);
                        changed = true;
                    }
                }
            }
        }
        best
    }

    #[test]
    fn lazy_relaxation_settles_like_eager_relaxation() {
        let mut rng = Rng::seed_from_u64(0x33);
        for round in 0..150 {
            let n = rng.gen_range(2usize..60);
            let g = random_graph(&mut rng, n, round % 3);
            let one_tag = round % 2 == 0;
            let seeds: Vec<(NodeId, u32)> = (0..rng.gen_range(1usize..5))
                .map(|_| NodeId(rng.gen_index(n) as u32))
                .map(|s| (s, if one_tag { 0 } else { s.0 }))
                .collect();
            let want = fixpoint(&g, &seeds);
            // the twin relaxes every node as it settles: the eager loop
            let (mut lazy, mut eager) = (Expansion::default(), Expansion::default());
            for e in [&mut lazy, &mut eager] {
                e.begin(&g);
                for &(s, tag) in &seeds {
                    e.seed(s, tag);
                }
            }
            let mut last = None;
            loop {
                let ctx = format!("round {round}");
                let peeked = lazy.peek(&g);
                let bits = |d: Option<f64>| d.map(f64::to_bits);
                assert_eq!(bits(peeked), bits(eager.peek(&g)), "{ctx}");
                let head_current = lazy.heap.peek().is_some_and(|&Reverse(key)| {
                    let (d, tag, u) = unpack_key(key);
                    let l = lazy.labels[u as usize];
                    (d, tag) == (l.dist, l.tag)
                });
                let popped = lazy.pop(&g);
                assert_eq!(popped, eager.pop(&g), "{ctx}");
                while eager.relax_next(&g) {}
                let Some(u) = popped else {
                    assert!(!head_current, "{ctx}: a current head pops");
                    break;
                };
                let l = lazy.labels[u.0 as usize];
                let e = eager.labels[u.0 as usize];
                let label = |l: Label| (l.dist.to_bits(), l.tag, l.pred);
                assert_eq!(label(l), label(e), "{ctx}");
                let peeked = peeked.expect("a pop follows a peek");
                assert!(l.dist >= peeked, "{ctx}");
                if head_current {
                    assert_eq!(l.dist.to_bits(), peeked.to_bits(), "{ctx}");
                }
                // Keys pop in order; a zero-weight edge can offer a smaller
                // node id at the distance and tag being settled.
                let key = queue_key(l.dist, l.tag, u.0);
                if g.min_edge_weight() > 0.0 {
                    assert!(last < Some(key), "{ctx}: pops strictly increase");
                } else {
                    assert!(last.map(|k| k >> 32) <= Some(key >> 32), "{ctx}");
                }
                last = Some(key);
                let (d, tag) = want[u.0 as usize];
                assert_eq!(l.dist.to_bits(), d.to_bits(), "{ctx}");
                assert_eq!(l.tag, tag, "{ctx}");
            }
            assert_eq!(lazy.relaxed(), eager.relaxed(), "drained alike");
        }
    }

    #[test]
    fn search_to_a_target_finds_the_exhaustive_path() {
        let mut rng = Rng::seed_from_u64(0x34);
        let (mut to_target, mut exhaustive) = (Expansion::default(), Expansion::default());
        for round in 0..150 {
            let n = rng.gen_range(2usize..60);
            let g = random_graph(&mut rng, n, round % 3);
            let source = NodeId(rng.gen_index(n) as u32);
            exhaustive.search(&g, source, None, None, &|_| false);
            for target in g.iter() {
                to_target.search(&g, source, Some(target), None, &|_| false);
                let ctx = format!("round {round} {source:?} → {target:?}");
                let dist = |e: &Expansion| e.dist(target).map(f64::to_bits);
                assert_eq!(dist(&to_target), dist(&exhaustive), "{ctx}");
                let path = |e: &Expansion| e.path(target).collect::<Vec<_>>();
                assert_eq!(path(&to_target), path(&exhaustive), "{ctx}");
                assert!(to_target.relaxed() <= exhaustive.relaxed(), "{ctx}");
            }
        }
    }

    #[test]
    fn within_hops_counts_edges_not_weights() {
        let (g, ids) = path_graph();
        let h = within_hops(&g, ids[0], 1);
        // a's 1-hop neighbourhood: a, b, d (via the shortcut)
        assert_eq!(h.len(), 3);
        assert_eq!(h[&ids[3]], 1);
    }
}
