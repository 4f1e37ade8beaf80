//! BANKS I: backward expanding search (Bhalotia et al., ICDE 02) —
//! tutorial slide 114.
//!
//! One equi-distance Dijkstra expansion runs *backward* from each keyword's
//! match set; a node reached by all expansions is a connection point — an
//! answer tree rooted there is the union of the shortest paths back to each
//! keyword's nearest match, with cost `Σᵢ dist(root, Sᵢ)` (the distinct-root
//! cost BANKS ranks by).
//!
//! The search settles nodes globally in distance order (the paper's
//! "equi-distance expansion"). Termination is sound for the distinct-root
//! cost: every yet-unseen connection point must still be settled by at least
//! one expansion, so its cost is at least that expansion's current radius;
//! once the k-th best found cost is below every expansion's radius, no better
//! answer can appear.
//!
//! Each group's expansion is a [`kwdb_graph::shortest::Expansion`] — dense
//! `(dist, pred)` labels by node id — and the set of groups that settled a
//! node is a bitmask in a dense array; both live in the caller's
//! [`SearchScratch`] and are reset by what the previous query touched. The
//! group choice and the stop test read only each group's next distance
//! (`peek`), and an expansion relaxes a settled node only when that distance
//! or the next settle needs it: at the stop, the last ring settled has
//! offered no edges ([`TraversalStats::nodes_relaxed`] ≤ `nodes_expanded`).
//!
//! BANKS trees approximate Steiner trees: union-of-shortest-paths is within
//! a factor of the group count of optimal but not exact — E05 measures the
//! gap against DPBF.
//!
//! The unified engine answers BANKS' distinct-root semantics from BLINKS'
//! distance lists ([`crate::blinks`]), which rank roots by the same cost;
//! this expansion is the reference those answers' `rank_cost` bits are held
//! to.

use crate::answer::{tree_from_walks, AnswerTree};
use crate::scratch::first_n;
use crate::{SearchScratch, TraversalStats};
use kwdb_common::{topk::TopK, Budget, TruncationReason};
use kwdb_graph::shortest::Expansion;
use kwdb_graph::DataGraph;

/// Most keywords one search takes: a node's settled-by set is a `u32` mask.
pub const MAX_KEYWORDS: usize = 32;

/// The BANKS I engine. Stateless — `search` takes `&self` and the per-query
/// work counter (nodes settled) comes back in a [`TraversalStats`], so one
/// engine can serve concurrent queries.
#[derive(Debug)]
pub struct BanksI<'g> {
    g: &'g DataGraph,
}

impl<'g> BanksI<'g> {
    pub fn new(g: &'g DataGraph) -> Self {
        BanksI { g }
    }

    /// Top-k answers by distinct-root cost, best first.
    pub fn search<S: AsRef<str>>(&self, keywords: &[S], k: usize) -> Vec<AnswerTree> {
        let mut scratch = SearchScratch::default();
        self.search_budgeted(keywords, k, &Budget::unlimited(), &mut scratch)
            .0
    }

    /// [`Self::search`] under an execution [`Budget`]: every node settled
    /// counts as one candidate; an exhausted budget returns the (cost-sorted)
    /// answers found so far plus the [`TruncationReason`] that stopped the
    /// expansion. The third element reports this query's expansion work in
    /// `nodes_expanded`. The expansions live in `scratch`.
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
            "BANKS takes at most {MAX_KEYWORDS} keywords"
        );
        let mut truncation = None;
        if l == 0 || k == 0 {
            return (Vec::new(), truncation, stats);
        }
        // One incremental multi-source Dijkstra per keyword group. Every
        // source carries the same tag, so within a group the first path
        // found at a distance keeps the node.
        let SearchScratch {
            expansions, marks, ..
        } = scratch;
        let groups = first_n(expansions, l);
        for (e, kw) in groups.iter_mut().zip(keywords) {
            let sources = self.g.keyword_nodes(kw.as_ref());
            if sources.is_empty() {
                return (Vec::new(), truncation, stats);
            }
            e.begin(self.g);
            for s in sources {
                e.seed(s, 0);
            }
        }
        // marks[node] = bitmask of groups that settled it
        marks.begin(self.g);
        let full = u32::MAX >> (MAX_KEYWORDS - l);
        // Ties go by arrival: the settle count stamps each push.
        let mut topk = TopK::new(k);

        loop {
            if let Some(reason) = budget.truncation_at(stats.nodes_expanded as u64) {
                truncation = Some(reason);
                break;
            }
            // Equi-distance: settle from the expansion with smallest frontier
            // (the first such group on a tie).
            let next = groups
                .iter_mut()
                .enumerate()
                .filter_map(|(i, e)| Some((i, e.peek(self.g)?)))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            let Some((gi, _)) = next else { break };
            // A queue holding only superseded entries empties here; the
            // other groups may still reach nodes this one has settled.
            let Some(node) = groups[gi].pop(self.g) else {
                continue;
            };
            stats.nodes_expanded += 1;
            if (marks.or(node, 1 << gi) | 1 << gi) == full {
                let cost: f64 = groups
                    .iter()
                    .map(|e| e.dist(node).expect("settled by every group"))
                    .sum();
                topk.push(-cost, (stats.nodes_expanded, node)); // TopK keeps max; negate cost
            }
            // Sound stop: any future connection point costs at least the
            // smallest current radius.
            if let Some(th) = topk.threshold() {
                let min_radius = groups
                    .iter_mut()
                    .map(|e| e.peek(self.g).unwrap_or(f64::INFINITY))
                    .fold(f64::INFINITY, f64::min);
                if -th <= min_radius {
                    break;
                }
            }
        }

        stats.nodes_relaxed = groups.iter().map(Expansion::relaxed).sum();
        let trees = topk
            .into_sorted_vec()
            .into_iter()
            .map(|(neg_cost, (_, root))| {
                // The union of `root`'s shortest paths back to each group's
                // source.
                tree_from_walks(self.g, root, -neg_cost, groups.iter().map(|e| e.path(root)))
            })
            .collect();
        (trees, truncation, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_graph::NodeId;

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
    fn finds_valid_answers() {
        let g = slide30();
        let banks = BanksI::new(&g);
        let res = banks.search(&["k1", "k2", "k3"], 3);
        assert!(!res.is_empty());
        for t in &res {
            t.validate(&g, &["k1", "k2", "k3"]).unwrap();
        }
    }

    #[test]
    fn best_answer_is_near_optimal_on_slide_graph() {
        let g = slide30();
        let banks = BanksI::new(&g);
        let res = banks.search(&["k1", "k2", "k3"], 1);
        // optimal Steiner cost is 10; BANKS (union of shortest paths from the
        // best root) finds exactly it here
        assert_eq!(res[0].cost, 10.0);
    }

    #[test]
    fn distinct_roots() {
        let g = slide30();
        let banks = BanksI::new(&g);
        let res = banks.search(&["k1", "k2"], 5);
        let mut roots: Vec<NodeId> = res.iter().map(|t| t.root).collect();
        roots.sort();
        roots.dedup();
        assert_eq!(roots.len(), res.len());
    }

    #[test]
    fn missing_keyword_is_empty() {
        let g = slide30();
        let banks = BanksI::new(&g);
        assert!(banks.search(&["k1", "nope"], 3).is_empty());
    }

    #[test]
    fn single_keyword_returns_match_roots() {
        let g = slide30();
        let banks = BanksI::new(&g);
        let res = banks.search(&["k1"], 2);
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|t| t.cost == 0.0 && t.size() == 1));
    }

    #[test]
    fn expansion_work_is_counted() {
        let g = slide30();
        let banks = BanksI::new(&g);
        let (_, _, stats) = banks.search_budgeted(
            &["k1", "k2", "k3"],
            1,
            &Budget::unlimited(),
            &mut SearchScratch::default(),
        );
        assert!(stats.nodes_expanded > 0);
    }
}
