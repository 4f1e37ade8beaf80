//! Approximate group Steiner trees via the shortest-path-tree heuristic,
//! with STAR-style local improvement (Kasneci et al., ICDE 09).
//!
//! The heuristic: pick candidate roots (the smallest keyword group's match
//! nodes — one of them touches the optimal tree), take the union of shortest
//! paths from the root to each group's nearest match, prune to a tree, and
//! keep the cheapest. This is the classic `l`-approximation; an improvement
//! pass then repeatedly tries to re-root at every tree node, which is the
//! essence of STAR's iterative path replacement.

use crate::answer::{pred_walk, tree_from_walks, AnswerTree};
use kwdb_common::index::Postings;
use kwdb_graph::shortest::multi_source;
use kwdb_graph::{DataGraph, NodeId};
use std::collections::HashMap;

/// Approximate top-1 group Steiner tree. Returns `None` when some keyword
/// has no match or the groups are disconnected.
pub fn spt_heuristic<S: AsRef<str>>(g: &DataGraph, keywords: &[S]) -> Option<AnswerTree> {
    let l = keywords.len();
    if l == 0 {
        return None;
    }
    // Per-group distance fields (multi-source Dijkstra once per keyword).
    let mut fields = Vec::with_capacity(l);
    let mut smallest: Option<(usize, Postings<'_, NodeId>)> = None;
    for (i, kw) in keywords.iter().enumerate() {
        let group = g.keyword_nodes(kw.as_ref());
        if group.is_empty() {
            return None;
        }
        if smallest.is_none_or(|(_, s)| group.len() < s.len()) {
            smallest = Some((i, group));
        }
        fields.push(multi_source_with_pred(g, group));
    }
    let (_, roots) = smallest.expect("l >= 1");

    let mut best: Option<AnswerTree> = None;
    let try_root = |root: NodeId, best: &mut Option<AnswerTree>| {
        if let Some(t) = tree_from_fields(g, root, &fields) {
            if best.as_ref().is_none_or(|b| t.cost < b.cost) {
                *best = Some(t);
            }
        }
    };
    for r in roots.iter() {
        try_root(r, &mut best);
    }
    // STAR-style improvement: re-root at every node of the current best tree
    // until no improvement.
    let mut improved = true;
    while improved {
        improved = false;
        let Some(cur) = best.clone() else { break };
        for n in cur.nodes() {
            if let Some(t) = tree_from_fields(g, n, &fields) {
                if t.cost + 1e-12 < best.as_ref().unwrap().cost {
                    best = Some(t);
                    improved = true;
                }
            }
        }
    }
    best
}

struct Field {
    dist: HashMap<NodeId, f64>,
    pred: HashMap<NodeId, NodeId>,
}

fn multi_source_with_pred(g: &DataGraph, sources: Postings<'_, NodeId>) -> Field {
    // multi_source tracks origins; we also need preds for path extraction,
    // so rebuild them: pred(v) = the neighbor u with dist(u) + w(u,v) = dist(v).
    let (dist, _origin) = multi_source(g, sources, None);
    let mut pred = HashMap::new();
    for (&v, &dv) in &dist {
        if dv == 0.0 {
            continue;
        }
        for &(u, w) in g.neighbors(v) {
            if let Some(&du) = dist.get(&u) {
                // `du < dv` guards against zero-weight ties creating cycles
                if du < dv && (du + w - dv).abs() < 1e-9 {
                    pred.insert(v, u);
                    break;
                }
            }
        }
    }
    Field { dist, pred }
}

/// The union of `root`'s shortest paths to each group's nearest source,
/// pruned to a tree and ranked by its own cost; `None` when some group does
/// not reach `root`.
fn tree_from_fields(g: &DataGraph, root: NodeId, fields: &[Field]) -> Option<AnswerTree> {
    if fields.iter().any(|f| !f.dist.contains_key(&root)) {
        return None;
    }
    let walks = fields.iter().map(|f| pred_walk(&f.pred, root));
    let mut tree = tree_from_walks(g, root, 0.0, walks);
    tree.rank_cost = tree.cost;
    Some(tree)
}

/// Known approximation guarantee of the SPT heuristic with root restricted
/// to one group: cost ≤ l · OPT (each root→match path is at most OPT since
/// OPT connects root's group to every other group).
pub fn approximation_factor(n_keywords: usize) -> f64 {
    n_keywords as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpbf::{brute_force_gst_cost, Dpbf};
    use kwdb_common::Rng;

    fn slide30() -> DataGraph {
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
        g
    }

    #[test]
    fn finds_optimal_on_slide_graph() {
        let g = slide30();
        let t = spt_heuristic(&g, &["k1", "k2", "k3"]).unwrap();
        t.validate(&g, &["k1", "k2", "k3"]).unwrap();
        assert_eq!(t.cost, 10.0); // improvement pass re-roots at b
    }

    #[test]
    fn missing_or_disconnected_returns_none() {
        let g = slide30();
        assert!(spt_heuristic(&g, &["k1", "zzz"]).is_none());
        let mut g2 = DataGraph::new();
        g2.add_node("n", "p");
        g2.add_node("n", "q");
        assert!(spt_heuristic(&g2, &["p", "q"]).is_none());
    }

    #[test]
    fn factor_helper() {
        assert_eq!(approximation_factor(3), 3.0);
    }

    #[test]
    fn within_guarantee() {
        // Heuristic cost is within l x optimal, and >= optimal.
        let mut rng = Rng::seed_from_u64(31);
        for _ in 0..40 {
            let n = rng.gen_range(3usize..9);
            let n_edges = rng.gen_range(3usize..20);
            let n_seeds = rng.gen_range(2usize..4);
            let seeds: Vec<usize> = (0..n_seeds).map(|_| rng.gen_index(9)).collect();
            let mut g = DataGraph::new();
            let mut kw_of = vec![String::new(); n];
            for (i, s) in seeds.iter().enumerate() {
                let node = s % n;
                if !kw_of[node].is_empty() {
                    kw_of[node].push(' ');
                }
                kw_of[node].push_str(&format!("kw{i}"));
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
            let heur = spt_heuristic(&g, &keywords);
            let opt = brute_force_gst_cost(&g, &keywords);
            match (heur, opt) {
                (Some(t), Some(o)) => {
                    assert!(t.validate(&g, &keywords).is_ok());
                    assert!(t.cost + 1e-9 >= o, "heuristic beat optimum?");
                    assert!(
                        t.cost <= keywords.len() as f64 * o + 1e-9,
                        "guarantee violated: {} > {} * {}",
                        t.cost,
                        keywords.len(),
                        o
                    );
                }
                (None, None) => {}
                (h, o) => panic!("feasibility mismatch {h:?} {o:?}"),
            }
        }
    }

    /// Sanity against DPBF on random graphs.
    #[test]
    fn never_beats_dpbf() {
        let mut rng = Rng::seed_from_u64(32);
        for _ in 0..40 {
            let n_edges = rng.gen_range(3usize..15);
            let mut g = DataGraph::new();
            let ids: Vec<NodeId> = (0..7)
                .map(|i| {
                    g.add_node(
                        "n",
                        if i == 0 {
                            "aa"
                        } else if i == 6 {
                            "bb"
                        } else {
                            ""
                        },
                    )
                })
                .collect();
            for _ in 0..n_edges {
                let (u, v) = (rng.gen_index(7), rng.gen_index(7));
                let w = rng.gen_range(1u32..5);
                if u != v {
                    g.add_edge(ids[u], ids[v], w as f64);
                }
            }
            let kws = ["aa", "bb"];
            let heur = spt_heuristic(&g, &kws);
            let dp = Dpbf::new(&g);
            let opt = dp.search(&kws, 1);
            match (heur, opt.first()) {
                (Some(t), Some(o)) => assert!(t.cost + 1e-9 >= o.cost),
                (None, None) => {}
                (h, o) => panic!("feasibility mismatch {h:?} {o:?}"),
            }
        }
    }
}
