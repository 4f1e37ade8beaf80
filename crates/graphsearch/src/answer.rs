//! Answer trees: the common result type of all graph search engines.

use kwdb_graph::{DataGraph, NodeId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// A connecting tree: a root, the tree edges, and for each query keyword the
/// node that matched it. `cost` is the total edge weight (group-Steiner
/// cost); `rank_cost` is what the engine that produced the answer ordered it
/// by.
#[derive(Debug, Clone)]
pub struct AnswerTree {
    pub root: NodeId,
    /// Tree edges as normalized `(min, max)` pairs.
    pub edges: Vec<(NodeId, NodeId)>,
    /// `matches[i]` is the node matching the `i`-th query keyword.
    pub matches: Vec<NodeId>,
    pub cost: f64,
    /// The cost this answer was ranked by, non-decreasing down a result
    /// list: `cost` itself for the Steiner engines (DPBF, the SPT
    /// heuristic), the distinct-root cost `Σᵢ dist(root, Sᵢ)` for BANKS,
    /// BANKS II and BLINKS — which is at least `cost`, because root-to-match
    /// paths that share an edge pay for it once in the tree.
    pub rank_cost: f64,
}

impl AnswerTree {
    /// A single-node answer (one node matches every keyword).
    pub fn singleton(node: NodeId, n_keywords: usize) -> Self {
        AnswerTree {
            root: node,
            edges: Vec::new(),
            matches: vec![node; n_keywords],
            cost: 0.0,
            rank_cost: 0.0,
        }
    }

    /// All nodes of the tree (root, internal, matches), sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut s: BTreeSet<NodeId> = BTreeSet::new();
        s.insert(self.root);
        for &(u, v) in &self.edges {
            s.insert(u);
            s.insert(v);
        }
        for &m in &self.matches {
            s.insert(m);
        }
        s.into_iter().collect()
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.nodes().len()
    }

    /// Canonical signature for duplicate elimination across engines: the
    /// sorted edge set plus the node set (two trees with identical structure
    /// are one answer even if discovered from different roots).
    pub fn signature(&self) -> Vec<(NodeId, NodeId)> {
        let mut e = self.edges.clone();
        e.sort();
        e
    }

    /// Validate against the graph and query: every edge exists, the edge set
    /// is a tree containing root and all matches, match `i` contains keyword
    /// `i`, and `cost` equals the sum of edge weights.
    pub fn validate<S: AsRef<str>>(&self, g: &DataGraph, keywords: &[S]) -> Result<(), String> {
        if self.matches.len() != keywords.len() {
            return Err(format!(
                "expected {} matches, got {}",
                keywords.len(),
                self.matches.len()
            ));
        }
        for (i, (m, k)) in self.matches.iter().zip(keywords).enumerate() {
            if !g.node_has_term(*m, k.as_ref()) {
                return Err(format!(
                    "match {i} ({m:?}) does not contain '{}'",
                    k.as_ref()
                ));
            }
        }
        let mut cost = 0.0;
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let mut seen_edges = HashSet::new();
        for &(u, v) in &self.edges {
            let w = g
                .edge_weight(u, v)
                .ok_or_else(|| format!("edge ({u:?},{v:?}) not in graph"))?;
            if !seen_edges.insert(if u < v { (u, v) } else { (v, u) }) {
                return Err(format!("duplicate edge ({u:?},{v:?})"));
            }
            cost += w;
            adj.entry(u).or_default().push(v);
            adj.entry(v).or_default().push(u);
        }
        if (cost - self.cost).abs() > 1e-6 {
            return Err(format!(
                "cost mismatch: stored {} computed {}",
                self.cost, cost
            ));
        }
        // Connectivity: everything reachable from root over tree edges.
        let mut reach = HashSet::new();
        let mut stack = vec![self.root];
        while let Some(u) = stack.pop() {
            if reach.insert(u) {
                for &v in adj.get(&u).into_iter().flatten() {
                    stack.push(v);
                }
            }
        }
        for &m in &self.matches {
            if !reach.contains(&m) {
                return Err(format!("match {m:?} not connected to root"));
            }
        }
        // Tree check: |edges| == |touched nodes| - 1 (no cycles).
        let touched: HashSet<NodeId> = self
            .edges
            .iter()
            .flat_map(|&(u, v)| [u, v])
            .chain(std::iter::once(self.root))
            .collect();
        if !self.edges.is_empty() && self.edges.len() != touched.len() - 1 {
            return Err(format!(
                "not a tree: {} edges over {} nodes",
                self.edges.len(),
                touched.len()
            ));
        }
        Ok(())
    }

    /// Render using a node formatter.
    pub fn display(&self, g: &DataGraph) -> String {
        let nodes: Vec<String> = self
            .nodes()
            .iter()
            .map(|&n| format!("{}#{}", g.kind(n), n.0))
            .collect();
        format!(
            "cost={:.2} root={} [{}]",
            self.cost,
            self.root.0,
            nodes.join(", ")
        )
    }
}

/// Normalize an edge to `(min, max)` order.
pub fn norm_edge(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// The distinct-root answer at `root`: one walk per keyword, in keyword
/// order, from `root` toward that keyword's match as `(node, next)` steps
/// (an empty walk: `root` matches). The answer matches each walk's end; its
/// edges are the union of the walks, pruned to a tree (shared segments can
/// close cycles), and `cost` sums the kept edges. `rank_cost` is what the
/// search ranked `root` by.
pub(crate) fn tree_from_walks<W>(
    g: &DataGraph,
    root: NodeId,
    rank_cost: f64,
    walks: impl IntoIterator<Item = W>,
) -> AnswerTree
where
    W: IntoIterator<Item = (NodeId, NodeId)>,
{
    let mut edges = Vec::new();
    let mut matches = Vec::new();
    for walk in walks {
        let mut end = root;
        edges.extend(walk.into_iter().map(|(n, next)| {
            end = next;
            norm_edge(n, next)
        }));
        matches.push(end);
    }
    edges.sort();
    edges.dedup();
    let (edges, cost) = prune_to_tree(g, root, &edges, &matches);
    AnswerTree {
        root,
        edges,
        matches,
        cost,
        rank_cost,
    }
}

/// The walk from `n` down a predecessor map, for [`tree_from_walks`]: it
/// ends at the first node with no predecessor.
pub(crate) fn pred_walk(
    pred: &HashMap<NodeId, NodeId>,
    mut n: NodeId,
) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    std::iter::from_fn(move || {
        let p = *pred.get(&n)?;
        Some((std::mem::replace(&mut n, p), p))
    })
}

/// Restrict an edge union to a BFS tree from `root` that still reaches every
/// match, and drop branches that lead nowhere useful; returns the tree's
/// edges, sorted, and its cost summed in that order. A node's neighbours are
/// visited in `edges` order. The union is one answer's handful of
/// root→match paths, so linear scans over it beat building maps.
fn prune_to_tree(
    g: &DataGraph,
    root: NodeId,
    edges: &[(NodeId, NodeId)],
    matches: &[NodeId],
) -> (Vec<(NodeId, NodeId)>, f64) {
    // BFS from root: `order[i]`'s parent is `order[parent[i]]`.
    let mut order = vec![root];
    let mut parent = vec![0];
    let mut qi = 0;
    while qi < order.len() {
        let u = order[qi];
        for &(a, b) in edges {
            let v = match (a == u, b == u) {
                (true, _) => b,
                (_, true) => a,
                _ => continue,
            };
            if !order.contains(&v) {
                order.push(v);
                parent.push(qi);
            }
        }
        qi += 1;
    }
    // Keep only edges on root→match paths, each once: a walk stops where
    // an earlier match's walk already went.
    let mut kept = vec![false; order.len()];
    let mut out = Vec::new();
    for m in matches {
        let Some(mut i) = order.iter().position(|n| n == m) else {
            continue;
        };
        while i != 0 && !kept[i] {
            kept[i] = true;
            out.push(norm_edge(order[i], order[parent[i]]));
            i = parent[i];
        }
    }
    out.sort();
    let cost = out
        .iter()
        .map(|&(u, v)| g.edge_weight(u, v).expect("edge from union exists"))
        .sum();
    (out, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let a = g.add_node("n", "alpha");
        let b = g.add_node("n", "beta");
        let c = g.add_node("n", "gamma");
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 2.0);
        g.add_edge(a, c, 5.0);
        (g, vec![a, b, c])
    }

    #[test]
    fn valid_tree_passes() {
        let (g, ids) = tri();
        let t = AnswerTree {
            root: ids[1],
            edges: vec![(ids[0], ids[1]), (ids[1], ids[2])],
            matches: vec![ids[0], ids[2]],
            cost: 3.0,
            rank_cost: 3.0,
        };
        assert!(t.validate(&g, &["alpha", "gamma"]).is_ok());
        assert_eq!(t.size(), 3);
    }

    #[test]
    fn singleton_is_valid() {
        let (g, ids) = tri();
        let t = AnswerTree::singleton(ids[0], 1);
        assert!(t.validate(&g, &["alpha"]).is_ok());
        assert_eq!(t.size(), 1);
        assert_eq!(t.cost, 0.0);
    }

    #[test]
    fn wrong_match_keyword_fails() {
        let (g, ids) = tri();
        let t = AnswerTree::singleton(ids[0], 1);
        assert!(t.validate(&g, &["beta"]).is_err());
    }

    #[test]
    fn disconnected_match_fails() {
        let (g, ids) = tri();
        let t = AnswerTree {
            root: ids[0],
            edges: vec![],
            matches: vec![ids[0], ids[2]],
            cost: 0.0,
            rank_cost: 0.0,
        };
        assert!(t.validate(&g, &["alpha", "gamma"]).is_err());
    }

    #[test]
    fn cycle_fails_tree_check() {
        let (g, ids) = tri();
        let t = AnswerTree {
            root: ids[0],
            edges: vec![(ids[0], ids[1]), (ids[1], ids[2]), (ids[0], ids[2])],
            matches: vec![ids[0], ids[2]],
            cost: 8.0,
            rank_cost: 8.0,
        };
        assert!(t.validate(&g, &["alpha", "gamma"]).is_err());
    }

    #[test]
    fn cost_mismatch_fails() {
        let (g, ids) = tri();
        let t = AnswerTree {
            root: ids[0],
            edges: vec![(ids[0], ids[1])],
            matches: vec![ids[0], ids[1]],
            cost: 9.0,
            rank_cost: 9.0,
        };
        assert!(t.validate(&g, &["alpha", "beta"]).is_err());
    }

    /// Four keywords at root `r`: `r` itself matches the first (an empty
    /// walk), two walks share `r–x`, and the walk `r→y→m2` closes the
    /// cycle `r–x–y–r` with `r→x→y→m1`.
    #[test]
    fn tree_from_walks_prunes_the_union_to_a_tree() {
        let mut g = DataGraph::new();
        let [r, x, y, m1, m2, m3] =
            ["k0", "", "", "k1", "k3", "k2"].map(|text| g.add_node("n", text));
        let weighted = [
            (r, x, 1.0),
            (x, y, 2.0),
            (y, m1, 1.0),
            (r, y, 4.0),
            (y, m2, 3.0),
            (x, m3, 1.0),
        ];
        for (u, v, w) in weighted {
            g.add_edge(u, v, w);
        }
        let to_m3: HashMap<NodeId, NodeId> = [(r, x), (x, m3)].into();
        let walks = [
            vec![],
            vec![(r, x), (x, y), (y, m1)],
            pred_walk(&to_m3, r).collect(),
            vec![(r, y), (y, m2)],
        ];
        let t = tree_from_walks(&g, r, 7.5, walks);
        t.validate(&g, &["k0", "k1", "k2", "k3"]).unwrap();
        assert_eq!(t.matches, [r, m1, m3, m2], "each walk's end");
        assert!(
            t.edges.windows(2).all(|w| w[0] < w[1]),
            "sorted, no repeats"
        );
        // BFS from r reaches y over r–y first, so x–y is the edge cut.
        let kept = [(r, x), (r, y), (x, m3), (y, m1), (y, m2)].map(|(u, v)| norm_edge(u, v));
        assert_eq!(t.edges, kept);
        let sum: f64 = t
            .edges
            .iter()
            .map(|&(u, v)| g.edge_weight(u, v).unwrap())
            .sum();
        assert_eq!((t.cost, sum), (10.0, 10.0));
        assert_eq!(t.rank_cost, 7.5, "as the search ranked the root");
    }

    #[test]
    fn signatures_are_order_insensitive() {
        let (_, ids) = tri();
        let t1 = AnswerTree {
            root: ids[0],
            edges: vec![(ids[1], ids[2]), (ids[0], ids[1])],
            matches: vec![ids[0], ids[2]],
            cost: 3.0,
            rank_cost: 3.0,
        };
        let t2 = AnswerTree {
            root: ids[2],
            edges: vec![(ids[0], ids[1]), (ids[1], ids[2])],
            matches: vec![ids[2], ids[0]],
            cost: 3.0,
            rank_cost: 3.0,
        };
        assert_eq!(t1.signature(), t2.signature());
    }
}
