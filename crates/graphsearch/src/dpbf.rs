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
//! keyword count is capped at 16.

use crate::answer::{norm_edge, AnswerTree};
use crate::TraversalStats;
use kwdb_common::{Budget, Score, TruncationReason};
use kwdb_graph::{DataGraph, NodeId};
use std::collections::{BinaryHeap, HashMap};

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
        self.search_budgeted(keywords, k, &Budget::unlimited()).0
    }

    /// [`Self::search`] under an execution [`Budget`]: every DP state popped
    /// counts as one candidate; an exhausted budget returns the (cost-sorted)
    /// full-coverage trees found so far plus the [`TruncationReason`] that
    /// stopped the expansion. The third element reports this query's work in
    /// `states_popped`.
    pub fn search_budgeted<S: AsRef<str>>(
        &self,
        keywords: &[S],
        k: usize,
        budget: &Budget,
    ) -> (Vec<AnswerTree>, Option<TruncationReason>, TraversalStats) {
        let mut stats = TraversalStats::default();
        let l = keywords.len();
        assert!(l <= 16, "DPBF supports at most 16 keywords");
        let mut truncation = None;
        if l == 0 || k == 0 {
            return (Vec::new(), truncation, stats);
        }
        let full: u32 = (1 << l) - 1;
        // cost[(v, mask)] and parent pointers
        let mut cost: HashMap<(NodeId, u32), f64> = HashMap::new();
        let mut parent: HashMap<(NodeId, u32), Parent> = HashMap::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<(Score, NodeId, u32)>> = BinaryHeap::new();
        // Per-node settled masks, for merge transitions.
        let mut settled: HashMap<NodeId, Vec<u32>> = HashMap::new();

        for (i, kw) in keywords.iter().enumerate() {
            let group = self.g.keyword_nodes(kw.as_ref());
            if group.is_empty() {
                return (Vec::new(), truncation, stats);
            }
            for v in group.iter() {
                let key = (v, 1 << i);
                // A node may match several keywords; each gets its own
                // initial state (merging will combine them at cost 0).
                if cost.get(&key).is_none_or(|&c| c > 0.0) {
                    cost.insert(key, 0.0);
                    parent.insert(key, Parent::Leaf);
                    heap.push(std::cmp::Reverse((Score(0.0), v, 1 << i)));
                }
            }
        }

        let mut results: Vec<AnswerTree> = Vec::new();
        let mut roots_seen: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        let mut popped: u64 = 0;

        while let Some(std::cmp::Reverse((Score(c), v, mask))) = heap.pop() {
            if cost.get(&(v, mask)).is_some_and(|&best| c > best) {
                continue; // stale
            }
            if let Some(reason) = budget.truncation_at(popped) {
                truncation = Some(reason);
                break;
            }
            popped += 1;
            stats.states_popped += 1;
            // A full tree is an answer the first time its root shows up, and
            // keeps growing either way (it has nothing left to merge with):
            // re-rooted one edge on, it is the best tree at a neighbour that
            // merging that neighbour's own partial trees would only reach by
            // paying for a shared edge twice.
            if mask == full && roots_seen.insert(v) {
                let tree = self.reconstruct(v, mask, &parent, keywords.len(), c);
                results.push(tree);
                if results.len() >= k {
                    break;
                }
            }
            // merge with previously settled disjoint masks at v
            let masks_at_v = settled.entry(v).or_default().clone();
            for m2 in masks_at_v {
                if m2 & mask != 0 {
                    continue;
                }
                let nm = mask | m2;
                let nc = c + cost[&(v, m2)];
                if cost.get(&(v, nm)).is_none_or(|&cur| nc < cur) {
                    cost.insert((v, nm), nc);
                    parent.insert((v, nm), Parent::Merge { m1: mask, m2 });
                    heap.push(std::cmp::Reverse((Score(nc), v, nm)));
                }
            }
            settled.get_mut(&v).expect("inserted above").push(mask);
            // grow over edges
            for &(u, w) in self.g.neighbors(v) {
                let nc = c + w;
                if cost.get(&(u, mask)).is_none_or(|&cur| nc < cur) {
                    cost.insert((u, mask), nc);
                    parent.insert((u, mask), Parent::Grow { from: v });
                    heap.push(std::cmp::Reverse((Score(nc), u, mask)));
                }
            }
        }
        (results, truncation, stats)
    }

    /// Rebuild the tree edges and keyword matches from parent pointers.
    fn reconstruct(
        &self,
        root: NodeId,
        mask: u32,
        parent: &HashMap<(NodeId, u32), Parent>,
        n_keywords: usize,
        cost: f64,
    ) -> AnswerTree {
        let mut edges = Vec::new();
        let mut matches: Vec<Option<NodeId>> = vec![None; n_keywords];
        let mut stack = vec![(root, mask)];
        while let Some((v, m)) = stack.pop() {
            match parent.get(&(v, m)).copied().unwrap_or(Parent::Leaf) {
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
