//! BLINKS: distinct-root top-k via node→keyword distance lists and Fagin's
//! threshold algorithm (He et al., SIGMOD 07) — tutorial slide 123.
//!
//! Under distinct-root semantics an answer is a root `r` with cost
//! `Σᵢ dist(r, Sᵢ)`. With a [`DistanceList`] per keyword giving a
//! distance-sorted node list (sorted access) and `dist(r)` lookups (random
//! access), top-k roots fall out of the classic TA loop: round-robin the
//! sorted lists, complete each discovered root by random access, and stop
//! once the k-th best cost is below the threshold `Σᵢ d̄ᵢ` of current
//! sorted-access depths — every unseen root must cost at least that. This is
//! the single-level ("SLINKS") layout; BLINKS' bi-level block partitioning
//! would change the index layout, not the TA logic.
//!
//! The lists belong to the graph ([`DataGraph::distance_list`]): a query
//! reads those of its own keywords, building any not yet built, so the index
//! covers exactly the keywords ever queried. Both access paths are array
//! reads ([`kwdb_graph::node2kw`]): a list keeps each node's distance
//! *class*, a `u32` indexing the list's distinct distances, so a sorted
//! access reads the next node and its class and a random access one class
//! per list. An answer's tree is array reads too: each list holds, per node,
//! the neighbour one edge closer to its nearest match, so a root's path to
//! each match is a walk down those links, and `answer::tree_from_walks`
//! prunes their union to a tree. The set of roots already scored lives in the
//! caller's [`SearchScratch`].
//!
//! BANKS I (backward expansion, [`BanksI`](crate::BanksI)) ranks roots by
//! the same cost; the unified engine serves both semantics from here.

use crate::answer::{tree_from_walks, AnswerTree};
use crate::{SearchScratch, TraversalStats};
use kwdb_common::topk::TopK;
use kwdb_common::{Budget, TruncationReason};
use kwdb_graph::{DataGraph, DistanceList};

/// The BLINKS engine. Stateless — `search` takes `&self`, the distance lists
/// live in the graph and per-query access counters come back in a
/// [`TraversalStats`] — so one engine can serve many queries, concurrently.
#[derive(Debug)]
pub struct Blinks<'g> {
    g: &'g DataGraph,
}

impl<'g> Blinks<'g> {
    pub fn new(g: &'g DataGraph) -> Self {
        Blinks { g }
    }

    /// The distance lists of `keywords`, in order, and how many of them this
    /// call built; `None` when a keyword is not in the graph's vocabulary —
    /// it has no matches, so AND semantics make the answer empty — in which
    /// case nothing is built. One dictionary lookup per keyword; the TA loop
    /// then probes the lists only.
    pub fn distance_lists<S: AsRef<str>>(
        &self,
        keywords: &[S],
    ) -> Option<(Vec<&'g DistanceList>, usize)> {
        let g = self.g;
        let syms = keywords
            .iter()
            .map(|kw| g.keyword_sym(kw.as_ref()))
            .collect::<Option<Vec<_>>>()?;
        let mut built = 0;
        let lists = syms
            .into_iter()
            .map(|sym| {
                let (list, fresh) = g.distance_list(sym);
                built += usize::from(fresh);
                list
            })
            .collect();
        Some((lists, built))
    }

    /// Top-k distinct-root answers, best first.
    pub fn search<S: AsRef<str>>(&self, keywords: &[S], k: usize) -> Vec<AnswerTree> {
        let mut scratch = SearchScratch::default();
        self.search_budgeted(keywords, k, &Budget::unlimited(), &mut scratch)
            .0
    }

    /// [`Self::search`] under an execution [`Budget`]: every sorted access
    /// counts as one candidate; an exhausted budget returns the (cost-sorted)
    /// answers found so far plus the [`TruncationReason`] that ended the
    /// round-robin. The third element counts this query's sorted/random
    /// index accesses. Any number of keywords is fine — nothing here is a
    /// mask over them.
    pub fn search_budgeted<S: AsRef<str>>(
        &self,
        keywords: &[S],
        k: usize,
        budget: &Budget,
        scratch: &mut SearchScratch,
    ) -> (Vec<AnswerTree>, Option<TruncationReason>, TraversalStats) {
        let (lists, _) = self.distance_lists(keywords).unwrap_or_default();
        self.search_lists(&lists, k, budget, scratch)
    }

    /// [`Self::search_budgeted`] over the query's lists as
    /// [`Self::distance_lists`] resolved them, one per keyword in order; no
    /// lists (no keywords, or one outside the vocabulary) answer nothing.
    pub fn search_lists(
        &self,
        lists: &[&DistanceList],
        k: usize,
        budget: &Budget,
        scratch: &mut SearchScratch,
    ) -> (Vec<AnswerTree>, Option<TruncationReason>, TraversalStats) {
        let mut stats = TraversalStats::default();
        let mut truncation = None;
        if lists.is_empty() || k == 0 || lists.iter().any(|list| list.sorted().is_empty()) {
            return (Vec::new(), truncation, stats);
        }
        let mut cursors = vec![0usize; lists.len()];
        // Distance at each list's cursor: the last value read, or the head's
        // (class 0) while the list is unread (lists are ascending).
        let mut depth: Vec<f64> = lists.iter().map(|l| l.levels()[0]).collect();
        let seen = &mut scratch.marks;
        seen.begin(self.g);
        // Ties go by arrival: the sorted-access count stamps each push.
        let mut topk = TopK::new(k);

        'ta: loop {
            let mut any = false;
            for (i, list) in lists.iter().enumerate() {
                if let Some(reason) = budget.truncation_at(stats.sorted_accesses as u64) {
                    truncation = Some(reason);
                    break 'ta;
                }
                let Some(&node) = list.sorted().get(cursors[i]) else {
                    continue;
                };
                cursors[i] += 1;
                depth[i] = list.levels()[list.class(node) as usize];
                stats.sorted_accesses += 1;
                any = true;
                if seen.or(node, 1) == 0 {
                    // random access: complete the root's score
                    let mut total = 0.0;
                    let mut complete = true;
                    for other in lists {
                        stats.random_accesses += 1;
                        let class = other.class(node);
                        if class == DistanceList::UNREACHABLE {
                            complete = false;
                            break;
                        }
                        total += other.levels()[class as usize];
                    }
                    if complete {
                        topk.push(-total, (stats.sorted_accesses, node));
                    }
                }
                // threshold check after each sorted access
                if let Some(kth) = topk.threshold() {
                    if -kth <= depth.iter().sum::<f64>() {
                        break 'ta;
                    }
                }
            }
            if !any {
                break;
            }
        }

        // A root's tree: its shortest paths to each keyword's nearest match,
        // walked down the lists. Every kept root is complete, so every walk
        // ends at a match.
        let trees = topk
            .into_sorted_vec()
            .into_iter()
            .map(|(neg, (_, root))| {
                tree_from_walks(self.g, root, -neg, lists.iter().map(|l| l.path(root)))
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
    fn top1_matches_best_distinct_root() {
        let g = slide30();
        let kws = ["k1", "k2", "k3"];
        let res = Blinks::new(&g).search(&kws, 1);
        assert_eq!(res.len(), 1);
        // b is the best distinct root (5 + 2 + 3 = 10)
        assert_eq!(res[0].cost, 10.0);
        res[0].validate(&g, &kws).unwrap();
    }

    #[test]
    fn topk_agrees_with_exhaustive_scan() {
        let g = slide30();
        let kws = ["k1", "k2"];
        let bl = Blinks::new(&g);
        let res = bl.search(&kws, 3);
        let (lists, built) = bl.distance_lists(&kws).unwrap();
        assert_eq!(built, 0, "the search built both lists");
        // exhaustive: score every node by sum of list distances
        let cost = |n| Some(lists[0].dist(n)? + lists[1].dist(n)?);
        let mut all: Vec<(f64, NodeId)> = g.iter().filter_map(|n| Some((cost(n)?, n))).collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let ta_costs: Vec<f64> = res.iter().map(|t| cost(t.root).unwrap()).collect();
        let best: Vec<f64> = all.iter().take(3).map(|&(c, _)| c).collect();
        assert_eq!(ta_costs, best);
    }

    #[test]
    fn ta_stops_before_exhausting_lists() {
        // Long path: early stop should not read everything.
        let mut g = DataGraph::new();
        let first = g.add_node("n", "x y");
        let mut prev = first;
        for i in 0..50 {
            let n = g.add_node("n", &format!("f{i}"));
            g.add_edge(prev, n, 1.0);
            prev = n;
        }
        let kws = ["x", "y"];
        let (res, _, stats) = Blinks::new(&g).search_budgeted(
            &kws,
            1,
            &Budget::unlimited(),
            &mut SearchScratch::default(),
        );
        assert_eq!(res[0].cost, 0.0);
        assert!(
            stats.sorted_accesses < 20,
            "TA should stop early, did {} accesses",
            stats.sorted_accesses
        );
    }

    #[test]
    fn missing_keyword_is_empty() {
        let g = slide30();
        let kws = ["k1", "none"];
        let bl = Blinks::new(&g);
        assert!(bl.search(&kws, 2).is_empty());
        assert_eq!(
            g.distance_list_stats().terms,
            0,
            "an absent keyword builds nothing"
        );
    }
}
