//! Smallest Lowest Common Ancestors (Xu & Papakonstantinou, SIGMOD 05;
//! Sun et al., WWW 07) — tutorial slides 33, 138–139.
//!
//! The SLCA set of `Q = {k₁,…,k_l}` is the set of nodes whose subtree
//! contains a match of every keyword and none of whose descendants does —
//! the "min redundancy" answer semantics. Three algorithms:
//!
//! * [`slca_indexed_lookup_eager`] — drive from the *smallest* match list;
//!   for each anchor, probe the other lists for its `lm`/`rm` neighbours
//!   through one galloping cursor per list (anchors ascend, so each seek
//!   starts where the last one stopped), giving
//!   `O(k·d·|S_min|·log|S_max|)` — the complexity claim E04 measures;
//! * [`slca_scan_eager`] — same candidates with linear pointer advances,
//!   better when `|S_min| ≈ |S_max|` (the crossover E04 sweeps);
//! * [`multiway_slca`] — anchor skipping (WWW 07): after an SLCA is found,
//!   anchors inside its subtree are skipped wholesale.
//!
//! All three turn an anchor and its neighbours into a candidate the same
//! way: climb from the anchor until its pre-order interval holds a
//! neighbour from every other list. And all three fold each candidate into
//! the answer as it is produced, with one shared antichain step
//! (`fold_candidate`): anchors ascend and a candidate is an ancestor-or-self
//! of its anchor, so only the last root kept can be comparable with it. The
//! answer comes out in document order, with no sort and no second pass.
//!
//! [`slca_brute_force`] is the test oracle.

use kwdb_common::index::Postings;
use kwdb_common::{Budget, Result, TruncationReason};
use kwdb_xml::{NodeId, XmlIndex, XmlTree};

/// Shared probe counters, reported by E04.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlcaStats {
    /// Anchors consumed from the driving list.
    pub anchors: usize,
    /// `lm`/`rm` lookups answered — two per other list per anchor (ILE,
    /// multiway) — or pointer advances (scan).
    pub probes: usize,
}

/// Indexed-Lookup-Eager SLCA.
pub fn slca_indexed_lookup_eager<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
) -> Result<(Vec<NodeId>, SlcaStats)> {
    let (roots, stats, _) = slca_indexed_budgeted(tree, index, keywords, &Budget::unlimited())?;
    Ok((roots, stats))
}

/// [`slca_indexed_lookup_eager`] under an execution [`Budget`]: every anchor
/// consumed from the driving list counts as one candidate. An exhausted
/// budget returns the antichain of the candidates computed so far plus the
/// [`TruncationReason`] — a sound partial answer, since each candidate
/// depends only on its own anchor.
pub fn slca_indexed_budgeted<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
    budget: &Budget,
) -> Result<(Vec<NodeId>, SlcaStats, Option<TruncationReason>)> {
    let mut stats = SlcaStats::default();
    let mut truncation = None;
    let Some(lists) = index.lists_for(keywords) else {
        return Ok((Vec::new(), stats, truncation));
    };
    let (driver, others) = lists.split_first().expect("at least one keyword");
    let mut cursors: Vec<_> = others.iter().map(|l| l.cursor()).collect();
    let mut neighbours = vec![[None; 2]; others.len()];
    let mut roots: Vec<NodeId> = Vec::new();
    for v in driver.iter() {
        if let Some(reason) = budget.truncation_at(stats.anchors as u64) {
            truncation = Some(reason);
            break;
        }
        stats.anchors += 1;
        for (cursor, pair) in cursors.iter_mut().zip(&mut neighbours) {
            // one seek answers both lookups: the head is rm, the posting
            // just passed stands in for lm (when the head is `v` itself, `v`
            // alone already holds this list's match)
            stats.probes += 2;
            let right = cursor.seek(v.0 as u64);
            *pair = [cursor.prev(), right];
        }
        fold_candidate(tree, &mut roots, climb(tree, v, &neighbours));
    }
    Ok((roots, stats, truncation))
}

/// Scan-Eager SLCA: identical candidates via monotone pointer advances.
pub fn slca_scan_eager<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
) -> Result<(Vec<NodeId>, SlcaStats)> {
    let mut stats = SlcaStats::default();
    let Some(lists) = index.lists_for(keywords) else {
        return Ok((Vec::new(), stats));
    };
    let (driver, others) = lists.split_first().expect("at least one keyword");
    // one cursor per other list, advanced monotonically with the anchors;
    // each remembers the last node it stepped over (the left neighbor)
    let mut cursors: Vec<_> = others
        .iter()
        .map(|l| (l.cursor(), None::<NodeId>))
        .collect();
    let mut neighbours = vec![[None; 2]; others.len()];
    let mut roots: Vec<NodeId> = Vec::new();
    for v in driver.iter() {
        stats.anchors += 1;
        for ((cursor, passed), pair) in cursors.iter_mut().zip(&mut neighbours) {
            // advance cursor past nodes < v
            while let Some(u) = cursor.peek() {
                if u >= v {
                    break;
                }
                *passed = Some(u);
                cursor.advance();
                stats.probes += 1;
            }
            *pair = [*passed, cursor.peek()];
        }
        fold_candidate(tree, &mut roots, climb(tree, v, &neighbours));
    }
    Ok((roots, stats))
}

/// Multiway-SLCA (Sun et al.'s BMS): each round anchors on the *maximum*
/// of the lists' current heads, computes that anchor's candidate, then
/// advances every list past the anchor (`skip_after`). Every round consumes
/// at least one node from each list, and whole prefixes dominated by another
/// list's head are skipped without individual anchor computations.
pub fn multiway_slca<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
) -> Result<(Vec<NodeId>, SlcaStats)> {
    let mut stats = SlcaStats::default();
    let Some(lists) = index.lists_for(keywords) else {
        return Ok((Vec::new(), stats));
    };
    let mut cursors: Vec<_> = lists.iter().map(|l| l.cursor()).collect();
    let mut neighbours = Vec::with_capacity(lists.len());
    let mut roots: Vec<NodeId> = Vec::new();
    loop {
        // current heads; stop when any list is exhausted
        let mut anchor: Option<(NodeId, usize)> = None;
        let mut exhausted = false;
        for (j, cursor) in cursors.iter_mut().enumerate() {
            match cursor.peek() {
                Some(h) => {
                    if anchor.is_none_or(|(a, _)| h > a) {
                        anchor = Some((h, j));
                    }
                }
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        if exhausted {
            break;
        }
        let (a, aj) = anchor.expect("nonempty lists");
        stats.anchors += 1;
        neighbours.clear();
        for (_, list) in lists.iter().enumerate().filter(|&(j, _)| j != aj) {
            stats.probes += 2;
            neighbours.push([list.left_match(a), list.right_match(a)]);
        }
        fold_candidate(tree, &mut roots, climb(tree, a, &neighbours));
        // skip_after: advance every list past the anchor
        for cursor in cursors.iter_mut() {
            cursor.seek(a.0 as u64 + 1);
        }
    }
    Ok((roots, stats))
}

/// Brute-force oracle: O(n · k · matches).
pub fn slca_brute_force<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
) -> Vec<NodeId> {
    let covering = covering_nodes(tree, index, keywords);
    covering
        .iter()
        .filter(|&&v| !covering.iter().any(|&u| u != v && tree.is_ancestor(v, u)))
        .copied()
        .collect()
}

/// Nodes whose subtree contains a match of every keyword (the full LCA set).
pub fn covering_nodes<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
) -> Vec<NodeId> {
    // One index lookup per keyword, not one per (node, keyword) pair.
    let lists: Vec<Postings<'_, NodeId>> =
        keywords.iter().map(|k| index.nodes(k.as_ref())).collect();
    tree.iter()
        .filter(|&v| {
            let end = tree.subtree_end(v);
            lists
                .iter()
                .all(|list| list.right_match(v).is_some_and(|m| m < end))
        })
        .collect()
}

/// The SLCA candidate of anchor `v`: its deepest ancestor-or-self whose
/// pre-order interval holds, for every other list, that list's left or right
/// neighbour of `v` (`neighbours[j]`: its nearest node before `v` and its
/// first node at or after `v`). Every list is non-empty, so each pair holds
/// a node and the root ends the climb at the latest.
pub(crate) fn climb(tree: &XmlTree, v: NodeId, neighbours: &[[Option<NodeId>; 2]]) -> NodeId {
    let mut a = v;
    while !neighbours.iter().all(|pair| {
        pair.iter()
            .flatten()
            .any(|&u| tree.is_ancestor_or_self(a, u))
    }) {
        a = tree
            .parent(a)
            .expect("the root's interval holds every node");
    }
    a
}

/// Fold candidate `c` into `roots`, the SLCA antichain of the candidates
/// before it, in document order. `c` is an ancestor-or-self of an anchor
/// after every earlier anchor, so it is at or above the last root (not
/// smallest: drop it), strictly below it (the last root is not smallest:
/// replace it), or after its whole subtree (push it). An earlier root ends
/// before the last root starts, and `c` holds an anchor past that start, so
/// an earlier root can only be comparable with a `c` that is dropped.
fn fold_candidate(tree: &XmlTree, roots: &mut Vec<NodeId>, c: NodeId) {
    match roots.last_mut() {
        Some(last) if tree.is_ancestor_or_self(c, *last) => {}
        Some(last) if tree.is_ancestor(*last, c) => *last = c,
        _ => roots.push(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_common::Rng;
    use kwdb_xml::XmlBuilder;

    /// The slide-33 instance: two papers; SLCA must exclude the conf root.
    fn slide33() -> XmlTree {
        let mut b = XmlBuilder::new("conf");
        b.leaf("name", "SIGMOD")
            .leaf("year", "2007")
            .open("paper")
            .leaf("title", "keyword")
            .leaf("author", "Mark")
            .leaf("author", "Chen")
            .close()
            .open("paper")
            .leaf("title", "RDF")
            .leaf("author", "Mark")
            .leaf("author", "Zhang")
            .close();
        b.build()
    }

    fn all_algorithms(
        tree: &XmlTree,
        keywords: &[&str],
    ) -> (Vec<NodeId>, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
        let ix = XmlIndex::build(tree);
        let (a, _) = slca_indexed_lookup_eager(tree, &ix, keywords).unwrap();
        let (b, _) = slca_scan_eager(tree, &ix, keywords).unwrap();
        let (c, _) = multiway_slca(tree, &ix, keywords).unwrap();
        let d = slca_brute_force(tree, &ix, keywords);
        (a, b, c, d)
    }

    #[test]
    fn slide33_keyword_mark() {
        let t = slide33();
        let (ile, scan, multi, brute) = all_algorithms(&t, &["keyword", "mark"]);
        // only the first paper contains both
        assert_eq!(brute.len(), 1);
        assert_eq!(t.label(brute[0]), "paper");
        assert_eq!(ile, brute);
        assert_eq!(scan, brute);
        assert_eq!(multi, brute);
    }

    #[test]
    fn ancestor_descendant_pruned() {
        let t = slide33();
        // "mark" alone: both papers match via authors; SLCAs are the two
        // author leaves (not the papers)
        let (ile, _, _, brute) = all_algorithms(&t, &["mark"]);
        assert_eq!(ile, brute);
        assert_eq!(ile.len(), 2);
        assert!(ile.iter().all(|&n| t.label(n) == "author"));
    }

    #[test]
    fn root_is_slca_for_cross_subtree_queries() {
        let t = slide33();
        let (ile, scan, multi, brute) = all_algorithms(&t, &["rdf", "keyword"]);
        assert_eq!(brute.len(), 1);
        assert_eq!(t.label(brute[0]), "conf");
        assert_eq!(ile, brute);
        assert_eq!(scan, brute);
        assert_eq!(multi, brute);
    }

    #[test]
    fn missing_keyword_is_empty() {
        let t = slide33();
        let (ile, scan, multi, brute) = all_algorithms(&t, &["mark", "zzz"]);
        assert!(ile.is_empty() && scan.is_empty() && multi.is_empty() && brute.is_empty());
    }

    #[test]
    fn label_matches_participate() {
        let t = slide33();
        // query on structure term "paper" + value "rdf"
        let (ile, _, _, brute) = all_algorithms(&t, &["paper", "rdf"]);
        assert_eq!(ile, brute);
        assert_eq!(ile.len(), 1);
        assert_eq!(t.label(ile[0]), "paper");
    }

    #[test]
    fn multiway_uses_fewer_anchors() {
        // x-matches cluster before the y-matches: BMS's max-head anchoring
        // skips the dominated prefixes wholesale, ILE anchors on every
        // driver node.
        let mut b = XmlBuilder::new("root");
        for _ in 0..5 {
            b.leaf("p", "x");
        }
        for _ in 0..5 {
            b.leaf("p", "y");
        }
        b.leaf("p", "x");
        b.leaf("p", "y");
        let t = b.build();
        let ix = XmlIndex::build(&t);
        let (res_ile, st_ile) = slca_indexed_lookup_eager(&t, &ix, &["x", "y"]).unwrap();
        let (res_multi, st_multi) = multiway_slca(&t, &ix, &["x", "y"]).unwrap();
        assert_eq!(res_ile, res_multi);
        assert!(
            st_multi.anchors < st_ile.anchors,
            "multiway {} vs ile {}",
            st_multi.anchors,
            st_ile.anchors
        );
    }

    /// Random tree generator for property tests.
    fn random_tree(structure: &[(usize, u8)]) -> XmlTree {
        // structure: (parent-pop levels, keyword code 0..4)
        let mut b = XmlBuilder::new("r");
        let mut depth = 0usize;
        for &(pops, kw) in structure {
            for _ in 0..pops.min(depth) {
                b.close();
                depth -= 1;
            }
            b.open("n");
            depth += 1;
            match kw {
                1 => {
                    b.text("ka");
                }
                2 => {
                    b.text("kb");
                }
                3 => {
                    b.text("ka kb");
                }
                _ => {}
            }
        }
        for _ in 0..depth {
            b.close();
        }
        b.build()
    }

    fn rand_structure(rng: &mut Rng) -> Vec<(usize, u8)> {
        let len = rng.gen_range(1usize..40);
        (0..len)
            .map(|_| (rng.gen_index(3), rng.gen_range(0u8..4)))
            .collect()
    }

    /// A deep, chain-like tree: an element is closed before the next opens
    /// only one time in eight, so candidates nest.
    fn chain_structure(rng: &mut Rng) -> Vec<(usize, u8)> {
        let len = rng.gen_range(1usize..80);
        (0..len)
            .map(|_| {
                let pops = if rng.gen_index(8) == 0 {
                    rng.gen_index(4)
                } else {
                    0
                };
                (pops, rng.gen_range(0u8..4))
            })
            .collect()
    }

    /// The SLCA antichain of `candidates` in any order, by sorting: sort,
    /// dedupe, and pop every kept node that is an ancestor of the next.
    fn antichain_by_sort(tree: &XmlTree, mut candidates: Vec<NodeId>) -> Vec<NodeId> {
        candidates.sort();
        candidates.dedup();
        let mut out: Vec<NodeId> = Vec::new();
        for c in candidates {
            while out.last().is_some_and(|&last| tree.is_ancestor(last, c)) {
                out.pop();
            }
            out.push(c);
        }
        out
    }

    /// A candidate cap of `c` makes ILE return exactly the antichain of the
    /// climb candidates of the first `c` driver anchors, with the cap as
    /// verdict exactly when anchors were left over — on bushy and deep
    /// chain-like trees, where later candidates land above, below and after
    /// earlier ones.
    #[test]
    fn budgeted_prefix_is_the_antichain_of_the_first_candidates() {
        let mut rng = Rng::seed_from_u64(55);
        let queries: [&[&str]; 4] = [&["ka", "kb"], &["kb", "ka", "n"], &["n", "kb"], &["ka"]];
        let (mut above, mut below) = (0, 0);
        for round in 0..200 {
            let t = random_tree(&if round % 2 == 0 {
                rand_structure(&mut rng)
            } else {
                chain_structure(&mut rng)
            });
            let ix = XmlIndex::build(&t);
            for kws in queries {
                let Some(lists) = ix.lists_for(kws) else {
                    continue;
                };
                let (driver, others) = lists.split_first().unwrap();
                let candidates: Vec<NodeId> = driver
                    .iter()
                    .map(|v| {
                        let neighbours: Vec<_> = others
                            .iter()
                            .map(|l| [l.left_match(v), l.right_match(v)])
                            .collect();
                        climb(&t, v, &neighbours)
                    })
                    .collect();
                for (i, &a) in candidates.iter().enumerate() {
                    for &b in &candidates[i + 1..] {
                        above += usize::from(t.is_ancestor(b, a));
                        below += usize::from(t.is_ancestor(a, b));
                    }
                }
                for cap in 1..=driver.len() {
                    let budget = Budget::unlimited().with_max_candidates(cap as u64);
                    let (roots, st, verdict) =
                        slca_indexed_budgeted(&t, &ix, kws, &budget).unwrap();
                    let expected = antichain_by_sort(&t, candidates[..cap].to_vec());
                    assert_eq!(roots, expected, "{kws:?} cap {cap}");
                    assert_eq!(st.anchors, cap, "{kws:?} cap {cap}");
                    let capped =
                        (cap < driver.len()).then_some(TruncationReason::CandidateCapReached);
                    assert_eq!(verdict, capped, "{kws:?} cap {cap}");
                }
            }
        }
        assert!(above > 100 && below > 100, "{above} above, {below} below");
    }

    #[test]
    fn algorithms_agree_with_brute_force() {
        let mut rng = Rng::seed_from_u64(51);
        for _ in 0..64 {
            let t = random_tree(&rand_structure(&mut rng));
            let ix = XmlIndex::build(&t);
            let kws = ["ka", "kb"];
            let brute = slca_brute_force(&t, &ix, &kws);
            let (ile, _) = slca_indexed_lookup_eager(&t, &ix, &kws).unwrap();
            let (scan, _) = slca_scan_eager(&t, &ix, &kws).unwrap();
            let (multi, _) = multiway_slca(&t, &ix, &kws).unwrap();
            assert_eq!(&ile, &brute, "ILE mismatch");
            assert_eq!(&scan, &brute, "scan mismatch");
            assert_eq!(&multi, &brute, "multiway mismatch");
        }
    }

    /// Every algorithm's candidates come from the one climb helper; all
    /// three must equal the oracle, and ILE must consume the whole driver
    /// and answer two lookups per other list per anchor — for two and three
    /// keywords, a repeated keyword, and a keyword matching every node.
    #[test]
    fn climbing_algorithms_equal_brute_force_and_ile_counts_exactly() {
        let mut rng = Rng::seed_from_u64(54);
        let queries: [&[&str]; 5] = [
            &["ka", "kb"],
            &["kb", "ka", "ka"],
            &["ka", "kb", "n"],
            &["n", "kb"],
            &["kb"],
        ];
        let mut nonempty = 0;
        for _ in 0..200 {
            let t = random_tree(&rand_structure(&mut rng));
            let ix = XmlIndex::build(&t);
            for kws in queries {
                let brute = slca_brute_force(&t, &ix, kws);
                let (ile, st) = slca_indexed_lookup_eager(&t, &ix, kws).unwrap();
                let (scan, _) = slca_scan_eager(&t, &ix, kws).unwrap();
                let (multi, _) = multiway_slca(&t, &ix, kws).unwrap();
                assert_eq!(ile, brute, "ILE {kws:?}");
                assert_eq!(scan, brute, "scan {kws:?}");
                assert_eq!(multi, brute, "multiway {kws:?}");
                let driver = ix.lists_for(kws).map_or(0, |l| l[0].len());
                assert_eq!(st.anchors, driver, "{kws:?}");
                assert_eq!(st.probes, 2 * (kws.len() - 1) * driver, "{kws:?}");
                nonempty += usize::from(!brute.is_empty());
            }
        }
        assert!(nonempty > 500, "{nonempty} non-empty answers");
    }

    #[test]
    fn slca_is_antichain() {
        let mut rng = Rng::seed_from_u64(52);
        for _ in 0..64 {
            let t = random_tree(&rand_structure(&mut rng));
            let ix = XmlIndex::build(&t);
            let (res, _) = slca_indexed_lookup_eager(&t, &ix, &["ka", "kb"]).unwrap();
            for (i, &a) in res.iter().enumerate() {
                for &b in &res[i + 1..] {
                    assert!(!t.is_ancestor(a, b) && !t.is_ancestor(b, a));
                }
            }
        }
    }

    #[test]
    fn slca_subset_of_covering() {
        let mut rng = Rng::seed_from_u64(53);
        for _ in 0..64 {
            let t = random_tree(&rand_structure(&mut rng));
            let ix = XmlIndex::build(&t);
            let kws = ["ka", "kb"];
            let covering = covering_nodes(&t, &ix, &kws);
            let (res, _) = slca_indexed_lookup_eager(&t, &ix, &kws).unwrap();
            for n in res {
                assert!(covering.contains(&n));
            }
        }
    }
}
