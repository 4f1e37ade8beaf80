//! DPBF: exact (group) Steiner tree search by dynamic programming
//! (Ding et al., *Finding top-k min-cost connected trees in databases*,
//! ICDE 07) — tutorial slide 113.
//!
//! State `(v, S)` is the minimum-cost tree rooted at `v` covering the keyword
//! subset `S` (a bitmask). Two transitions:
//!
//! * **grow**: attach edge `(v, u)` — `T(u, S) ≤ T(v, S) + w(v,u)`;
//! * **merge**: combine two trees at the same root —
//!   `T(v, S₁ ∪ S₂) ≤ T(v, S₁) + T(v, S₂)` for disjoint `S₁, S₂`.
//!
//! Processed best-first (a Dijkstra over states) this yields the exact
//! optimum: the first full-coverage state popped is the top-1 group Steiner
//! tree. Continuing to pop full states yields the top-k *distinct-root*
//! trees in cost order. Complexity `O(3^k·n + 2^k·(n log n + m))`; the
//! keyword count is capped at [`MAX_KEYWORDS`].
//!
//! States live in a `StateTable`: an arena of `(mask, cost, parent)`
//! records, chained per node from a dense `head` array indexed by
//! `NodeId.0`. A node holds at most `2^k − 1` states and in practice a
//! handful, so finding `(v, S)` is a short walk from `head[v]` — the same
//! representation for 2 keywords or 16. The table is part of the caller's
//! [`SearchScratch`]; a query resets the heads it touched and truncates the
//! arena.

use crate::answer::{norm_edge, AnswerTree};
use crate::{SearchScratch, TraversalStats};
use kwdb_common::{Budget, TruncationReason};
use kwdb_graph::shortest::{queue_key, unpack_key};
use kwdb_graph::{DataGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Most keywords one search takes (the state space is `2^k` per node).
pub const MAX_KEYWORDS: usize = 16;

const NONE: u32 = u32::MAX;

/// How a state's tree was derived, for reconstruction.
#[derive(Debug, Clone, Copy)]
enum Parent {
    /// Initial state: a keyword match node by itself.
    Leaf,
    /// Grown over an edge from `(from, mask)`.
    Grow { from: NodeId },
    /// Merge of `(v, m1)` and `(v, m2)`.
    Merge { m1: u32, m2: u32 },
}

#[derive(Debug, Clone, Copy)]
struct State {
    mask: u32,
    /// The node's next state in the arena, [`NONE`] at the end of the chain.
    next: u32,
    cost: f64,
    parent: Parent,
    /// Popped at its final cost, so other states at the node may merge with it.
    settled: bool,
}

/// DPBF's best-known `(node, mask)` states and the queue over them.
#[derive(Debug, Default)]
pub(crate) struct StateTable {
    /// Dense by `NodeId.0`: the node's newest state, [`NONE`] if it has none.
    head: Vec<u32>,
    touched: Vec<NodeId>,
    states: Vec<State>,
    /// Min-queue of [`queue_key`]`(cost, node, mask)`.
    heap: BinaryHeap<Reverse<u128>>,
}

impl StateTable {
    fn begin(&mut self, g: &DataGraph) {
        for n in self.touched.drain(..) {
            self.head[n.0 as usize] = NONE;
        }
        self.head.resize(g.node_count(), NONE);
        self.states.clear();
        self.heap.clear();
    }

    fn find(&self, v: NodeId, mask: u32) -> Option<usize> {
        let mut i = self.head[v.0 as usize];
        while i != NONE {
            let s = &self.states[i as usize];
            if s.mask == mask {
                return Some(i as usize);
            }
            i = s.next;
        }
        None
    }

    /// Record and queue `(v, mask)` at `cost` if that beats what is known.
    fn improve(&mut self, v: NodeId, mask: u32, cost: f64, parent: Parent) {
        match self.find(v, mask) {
            Some(i) if cost < self.states[i].cost => {
                self.states[i].cost = cost;
                self.states[i].parent = parent;
            }
            Some(_) => return,
            None => {
                let head = &mut self.head[v.0 as usize];
                if *head == NONE {
                    self.touched.push(v);
                }
                self.states.push(State {
                    mask,
                    next: *head,
                    cost,
                    parent,
                    settled: false,
                });
                *head = (self.states.len() - 1) as u32;
            }
        }
        self.heap.push(Reverse(queue_key(cost, v.0, mask)));
    }
}

/// The DPBF search engine. Stateless — `search` takes `&self` and the
/// per-query work counter (states popped) comes back in a
/// [`TraversalStats`], so one engine can serve concurrent queries.
#[derive(Debug)]
pub struct Dpbf<'g> {
    g: &'g DataGraph,
}

impl<'g> Dpbf<'g> {
    pub fn new(g: &'g DataGraph) -> Self {
        Dpbf { g }
    }

    /// Top-k minimum-cost connecting trees (distinct roots), best first.
    /// Keywords with no matches make the result empty (AND semantics).
    pub fn search<S: AsRef<str>>(&self, keywords: &[S], k: usize) -> Vec<AnswerTree> {
        let mut scratch = SearchScratch::default();
        self.search_budgeted(keywords, k, &Budget::unlimited(), &mut scratch)
            .0
    }

    /// [`Self::search`] under an execution [`Budget`]: every DP state popped
    /// counts as one candidate; an exhausted budget returns the (cost-sorted)
    /// full-coverage trees found so far plus the [`TruncationReason`] that
    /// stopped the expansion. The third element reports this query's work in
    /// `states_popped`. The state table lives in `scratch`.
    ///
    /// # Panics
    /// On more than [`MAX_KEYWORDS`] keywords.
    pub fn search_budgeted<S: AsRef<str>>(
        &self,
        keywords: &[S],
        k: usize,
        budget: &Budget,
        scratch: &mut SearchScratch,
    ) -> (Vec<AnswerTree>, Option<TruncationReason>, TraversalStats) {
        let mut stats = TraversalStats::default();
        let l = keywords.len();
        assert!(
            l <= MAX_KEYWORDS,
            "DPBF takes at most {MAX_KEYWORDS} keywords"
        );
        let mut truncation = None;
        if l == 0 || k == 0 {
            return (Vec::new(), truncation, stats);
        }
        let full: u32 = (1 << l) - 1;
        let table = &mut scratch.states;
        table.begin(self.g);

        for (i, kw) in keywords.iter().enumerate() {
            let group = self.g.keyword_nodes(kw.as_ref());
            if group.is_empty() {
                return (Vec::new(), truncation, stats);
            }
            // A node may match several keywords; each gets its own initial
            // state (merging will combine them at cost 0).
            for v in group.iter() {
                table.improve(v, 1 << i, 0.0, Parent::Leaf);
            }
        }

        let mut results: Vec<AnswerTree> = Vec::new();
        let mut popped: u64 = 0;

        while let Some(Reverse(key)) = table.heap.pop() {
            let (c, v, mask) = unpack_key(key);
            let v = NodeId(v);
            let at = table.find(v, mask).expect("queued states are recorded");
            if c > table.states[at].cost {
                continue; // stale
            }
            if let Some(reason) = budget.truncation_at(popped) {
                truncation = Some(reason);
                break;
            }
            popped += 1;
            stats.states_popped += 1;
            // A full tree is an answer (a state is popped at its final cost
            // once, so each root shows up once), and keeps growing either
            // way (it has nothing left to merge with): re-rooted one edge
            // on, it is the best tree at a neighbour that merging that
            // neighbour's own partial trees would only reach by paying for a
            // shared edge twice.
            if mask == full {
                results.push(self.reconstruct(v, mask, table, l, c));
                if results.len() >= k {
                    break;
                }
            }
            // merge with previously settled disjoint masks at v
            let mut i = table.head[v.0 as usize];
            while i != NONE {
                let other = table.states[i as usize];
                i = other.next;
                if other.settled && other.mask & mask == 0 {
                    let parent = Parent::Merge {
                        m1: mask,
                        m2: other.mask,
                    };
                    table.improve(v, mask | other.mask, c + other.cost, parent);
                }
            }
            table.states[at].settled = true;
            // grow over edges
            for &(u, w) in self.g.neighbors(v) {
                table.improve(u, mask, c + w, Parent::Grow { from: v });
            }
        }
        (results, truncation, stats)
    }

    /// Rebuild the tree edges and keyword matches from parent pointers.
    fn reconstruct(
        &self,
        root: NodeId,
        mask: u32,
        table: &StateTable,
        n_keywords: usize,
        cost: f64,
    ) -> AnswerTree {
        let mut edges = Vec::new();
        let mut matches: Vec<Option<NodeId>> = vec![None; n_keywords];
        let mut stack = vec![(root, mask)];
        while let Some((v, m)) = stack.pop() {
            let at = table.find(v, m).expect("parents are recorded states");
            match table.states[at].parent {
                Parent::Leaf => {
                    // v matches every keyword in m
                    for (i, slot) in matches.iter_mut().enumerate() {
                        if m & (1 << i) != 0 && slot.is_none() {
                            *slot = Some(v);
                        }
                    }
                }
                Parent::Grow { from } => {
                    edges.push(norm_edge(v, from));
                    stack.push((from, m));
                }
                Parent::Merge { m1, m2 } => {
                    stack.push((v, m1));
                    stack.push((v, m2));
                }
            }
        }
        edges.sort();
        edges.dedup();
        AnswerTree {
            root,
            edges,
            matches: matches
                .into_iter()
                .map(|m| m.expect("all keywords covered"))
                .collect(),
            cost,
            rank_cost: cost,
        }
    }
}

/// Brute-force optimal group Steiner cost for cross-checking (exponential;
/// test-sized graphs only): tries every node subset, checking it induces a
/// connected subgraph covering all groups, and returns the minimum spanning
/// cost.
pub fn brute_force_gst_cost<S: AsRef<str>>(g: &DataGraph, keywords: &[S]) -> Option<f64> {
    let n = g.node_count();
    assert!(n <= 16, "brute force is for tiny graphs");
    let groups: Vec<_> = keywords
        .iter()
        .map(|k| g.keyword_nodes(k.as_ref()))
        .collect();
    if groups.iter().any(|g| g.is_empty()) {
        return None;
    }
    let mut best: Option<f64> = None;
    for subset in 1u32..(1 << n) {
        let nodes: Vec<NodeId> = (0..n as u32)
            .filter(|i| subset & (1 << i) != 0)
            .map(NodeId)
            .collect();
        // must cover every group
        if !groups
            .iter()
            .all(|grp| grp.iter().any(|m| nodes.contains(&m)))
        {
            continue;
        }
        // minimum spanning tree over the induced subgraph (Prim), must span
        if let Some(c) = induced_mst_cost(g, &nodes) {
            if best.is_none_or(|b| c < b) {
                best = Some(c);
            }
        }
    }
    best
}

fn induced_mst_cost(g: &DataGraph, nodes: &[NodeId]) -> Option<f64> {
    if nodes.is_empty() {
        return None;
    }
    let set: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
    let mut in_tree = std::collections::HashSet::new();
    in_tree.insert(nodes[0]);
    let mut cost = 0.0;
    while in_tree.len() < nodes.len() {
        let mut best: Option<(f64, NodeId)> = None;
        for &u in &in_tree {
            for &(v, w) in g.neighbors(u) {
                if set.contains(&v) && !in_tree.contains(&v) && best.is_none_or(|(bw, _)| w < bw) {
                    best = Some((w, v));
                }
            }
        }
        let (w, v) = best?;
        cost += w;
        in_tree.insert(v);
    }
    Some(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_common::Rng;

    /// The exact graph from tutorial slide 30: nodes a,b,c,d,e; keyword
    /// groups k1={a,e}, k2={c}, k3={d}; weights a-b=5, b-c=2, b-d=3, a-c=6,
    /// a-d=7, e-?=10/11 (e is an expensive alternative for k1).
    fn slide30() -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let a = g.add_node("n", "k1");
        let b = g.add_node("n", "");
        let c = g.add_node("n", "k2");
        let d = g.add_node("n", "k3");
        let e = g.add_node("n", "k1");
        g.add_edge(a, b, 5.0);
        g.add_edge(b, c, 2.0);
        g.add_edge(b, d, 3.0);
        g.add_edge(a, c, 6.0);
        g.add_edge(a, d, 7.0);
        g.add_edge(e, b, 10.0);
        g.add_edge(e, c, 11.0);
        (g, vec![a, b, c, d, e])
    }

    #[test]
    fn slide30_top1_is_a_b_c_d() {
        let (g, ids) = slide30();
        let dpbf = Dpbf::new(&g);
        let res = dpbf.search(&["k1", "k2", "k3"], 1);
        assert_eq!(res.len(), 1);
        let t = &res[0];
        // a(b(c,d)): edges ab(5) + bc(2) + bd(3) = 10 beats a(c,d): 6+7=13
        assert_eq!(t.cost, 10.0);
        assert!(t.validate(&g, &["k1", "k2", "k3"]).is_ok());
        let nodes = t.nodes();
        assert!(nodes.contains(&ids[0]) && nodes.contains(&ids[1]));
        assert!(
            !nodes.contains(&ids[4]),
            "expensive k1 match e must not appear"
        );
    }

    #[test]
    fn top_k_returns_increasing_costs() {
        let (g, _) = slide30();
        let dpbf = Dpbf::new(&g);
        let res = dpbf.search(&["k1", "k2", "k3"], 3);
        assert!(res.len() >= 2);
        for w in res.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
        for t in &res {
            assert!(t.validate(&g, &["k1", "k2", "k3"]).is_ok());
        }
    }

    #[test]
    fn a_root_beside_the_best_tree_hangs_off_it_by_one_edge() {
        // a(k1)—b(k2), a—c: the best tree rooted at c is c—a—b, weight 2.
        // Merging c's own partial trees (c—a for k1, c—a—b for k2) would
        // count the edge c—a twice and report 3 for the same two edges.
        let mut g = DataGraph::new();
        let a = g.add_node("n", "k1");
        let b = g.add_node("n", "k2");
        let c = g.add_node("n", "");
        g.add_edge(a, b, 1.0);
        g.add_edge(a, c, 1.0);
        let res = Dpbf::new(&g).search(&["k1", "k2"], 3);
        assert_eq!(res.len(), 3);
        for t in &res {
            t.validate(&g, &["k1", "k2"]).unwrap();
        }
        assert_eq!((res[2].root, res[2].cost), (c, 2.0));
    }

    #[test]
    fn single_node_covering_all_keywords() {
        let mut g = DataGraph::new();
        let a = g.add_node("n", "x y");
        let b = g.add_node("n", "x");
        g.add_edge(a, b, 1.0);
        let dpbf = Dpbf::new(&g);
        let res = dpbf.search(&["x", "y"], 1);
        assert_eq!(res[0].cost, 0.0);
        assert_eq!(res[0].root, a);
        assert_eq!(res[0].size(), 1);
    }

    #[test]
    fn missing_keyword_returns_empty() {
        let (g, _) = slide30();
        let dpbf = Dpbf::new(&g);
        assert!(dpbf.search(&["k1", "zzz"], 3).is_empty());
        assert!(dpbf.search::<&str>(&[], 3).is_empty());
    }

    #[test]
    fn matches_brute_force_on_slide_graph() {
        let (g, _) = slide30();
        let dpbf = Dpbf::new(&g);
        let res = dpbf.search(&["k1", "k2", "k3"], 1);
        let bf = brute_force_gst_cost(&g, &["k1", "k2", "k3"]).unwrap();
        assert_eq!(res[0].cost, bf);
    }

    /// DPBF equals brute force on random small graphs.
    #[test]
    fn dpbf_is_optimal() {
        let mut rng = Rng::seed_from_u64(41);
        for _ in 0..48 {
            let n = rng.gen_range(3usize..9);
            let n_edges = rng.gen_range(2usize..20);
            let n_seeds = rng.gen_range(2usize..4);
            let seeds: Vec<usize> = (0..n_seeds).map(|_| rng.gen_index(9)).collect();
            let mut g = DataGraph::new();
            let mut kw_of = vec![String::new(); n];
            for (i, kw) in seeds.iter().enumerate() {
                let node = kw % n;
                let term = format!("kw{i}");
                if !kw_of[node].is_empty() {
                    kw_of[node].push(' ');
                }
                kw_of[node].push_str(&term);
            }
            let ids: Vec<NodeId> = (0..n).map(|i| g.add_node("n", &kw_of[i])).collect();
            for _ in 0..n_edges {
                let (u, v) = (rng.gen_index(9), rng.gen_index(9));
                let w = rng.gen_range(1u32..6);
                if u % n != v % n {
                    g.add_edge(ids[u % n], ids[v % n], w as f64);
                }
            }
            let keywords: Vec<String> = (0..seeds.len()).map(|i| format!("kw{i}")).collect();
            let dpbf = Dpbf::new(&g);
            let res = dpbf.search(&keywords, 1);
            let bf = brute_force_gst_cost(&g, &keywords);
            match (res.first(), bf) {
                (Some(t), Some(b)) => {
                    assert!(
                        (t.cost - b).abs() < 1e-9,
                        "dpbf {} vs brute force {}",
                        t.cost,
                        b
                    );
                    assert!(t.validate(&g, &keywords).is_ok());
                }
                (None, None) => {}
                (a, b) => panic!("feasibility mismatch: {a:?} vs {b:?}"),
            }
        }
    }
}
