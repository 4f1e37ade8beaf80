//! Exclusive Lowest Common Ancestors — XRank's answer semantics
//! (Guo et al., SIGMOD 03) computed with the candidate + verification scheme
//! of the Index-Stack algorithm (Xu & Papakonstantinou, EDBT 08) —
//! tutorial slides 34, 140.
//!
//! A node `v` is an **ELCA** iff its subtree still contains a match of every
//! keyword after removing the subtrees of all descendants of `v` that
//! themselves contain all keywords. ELCAs are a superset of SLCAs: on the
//! slide-109 instance, `conf` is an ELCA for `{paper, Mark}` (its extra
//! `paper` nodes witness the cover) even though a paper below it also covers.
//!
//! Following EDBT 08: `ELCA ⊆ ∪_{v ∈ S₁} slca({v}, S₂, …, S_k)`, so the
//! per-anchor SLCA candidates are generated first and each is verified with
//! child-interval probes.

use crate::slca::{climb, covering_nodes};
use kwdb_common::index::Postings;
use kwdb_common::Result;
use kwdb_xml::{NodeId, XmlIndex, XmlTree};

/// ELCA statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElcaStats {
    pub candidates: usize,
    /// Interval probes performed during verification.
    pub probes: usize,
}

/// Compute the ELCA set in document order.
pub fn elca<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
) -> Result<(Vec<NodeId>, ElcaStats)> {
    let mut stats = ElcaStats::default();
    let Some(lists) = index.lists_for(keywords) else {
        return Ok((Vec::new(), stats));
    };
    // Candidate generation: each driver anchor's per-anchor SLCA, plus all
    // of its ancestors that gain extra witnesses — per EDBT 08 the candidate
    // set ∪ slca({v}, rest) suffices; anchors from the *smallest* list.
    let (driver, others) = lists.split_first().expect("at least one keyword");
    let mut neighbours = vec![[None; 2]; others.len()];
    let mut candidates: Vec<NodeId> = Vec::new();
    for v in driver.iter() {
        for (list, pair) in others.iter().zip(&mut neighbours) {
            *pair = [list.left_match(v), list.right_match(v)];
        }
        candidates.push(climb(tree, v, &neighbours));
    }
    candidates.sort();
    candidates.dedup();
    stats.candidates = candidates.len();

    // Verification: v is an ELCA iff every keyword has a match in span(v)
    // that is not inside any covering child-subtree of v. Lists are resolved
    // once here; verification below never touches the dictionary again.
    let all_lists: Vec<Postings<'_, NodeId>> =
        keywords.iter().map(|k| index.nodes(k.as_ref())).collect();
    let mut out = Vec::new();
    for &v in &candidates {
        if verify_elca(tree, &all_lists, v, &mut stats) {
            out.push(v);
        }
    }
    Ok((out, stats))
}

/// Brute-force oracle, straight from the definition.
pub fn elca_brute_force<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
) -> Vec<NodeId> {
    let covering: std::collections::HashSet<NodeId> =
        covering_nodes(tree, index, keywords).into_iter().collect();
    let lists: Vec<Postings<'_, NodeId>> =
        keywords.iter().map(|k| index.nodes(k.as_ref())).collect();
    let mut out = Vec::new();
    for v in tree.iter() {
        // matches of each keyword in subtree(v), excluding matches under any
        // proper descendant of v that covers all keywords
        let ok = lists.iter().all(|list| {
            list.iter().any(|m| {
                if !tree.is_ancestor_or_self(v, m) {
                    return false;
                }
                // walk from m up to v; if any intermediate covers, excluded
                let mut cur = m;
                while cur != v {
                    if covering.contains(&cur) {
                        return false;
                    }
                    cur = tree.parent(cur).expect("v is an ancestor");
                }
                true
            })
        });
        if ok {
            out.push(v);
        }
    }
    out
}

/// Does `v` have, for every keyword, a witness match not swallowed by a
/// covering child subtree?
fn verify_elca(
    tree: &XmlTree,
    all_lists: &[Postings<'_, NodeId>],
    v: NodeId,
    stats: &mut ElcaStats,
) -> bool {
    let span_end = tree.subtree_end(v);
    all_lists.iter().all(|list| {
        // cursor positioned at the first match ≥ v; witnesses live in
        // [v, span_end)
        let mut cur = list.cursor();
        cur.seek(v.0 as u64);
        stats.probes += 2;
        while let Some(m) = cur.next() {
            if m >= span_end {
                break;
            }
            if m == v {
                return true; // match on v itself is always a witness
            }
            // the child of v on the path to m
            let child = child_toward(tree, v, m);
            if !covers_all(tree, all_lists, child, stats) {
                return true;
            }
        }
        false
    })
}

/// The child of `v` that is an ancestor-or-self of descendant `m`: the last
/// child starting at or before `m` (children ascend in pre-order, and their
/// intervals tile `v`'s).
fn child_toward(tree: &XmlTree, v: NodeId, m: NodeId) -> NodeId {
    let children = tree.children(v);
    children[children.partition_point(|&c| c <= m) - 1]
}

/// Does `c`'s subtree contain a match of every keyword?
fn covers_all(
    tree: &XmlTree,
    all_lists: &[Postings<'_, NodeId>],
    c: NodeId,
    stats: &mut ElcaStats,
) -> bool {
    let end = tree.subtree_end(c);
    all_lists.iter().all(|list| {
        stats.probes += 1;
        list.right_match(c).is_some_and(|m| m < end)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_common::Rng;
    use kwdb_xml::XmlBuilder;

    /// Slide 109's instance: a conf with two papers and a demo; ELCA of
    /// {paper, mark} differs from SLCA.
    fn slide109() -> XmlTree {
        let mut b = XmlBuilder::new("conf");
        b.leaf("name", "SIGMOD")
            .leaf("year", "2007")
            .open("paper")
            .leaf("title", "keyword")
            .leaf("author", "Mark")
            .close()
            .open("paper")
            .leaf("title", "XML")
            .leaf("author", "Yang")
            .close()
            .open("demo")
            .leaf("title", "Top-k")
            .leaf("author", "Soliman")
            .close();
        b.build()
    }

    #[test]
    fn elca_strictly_contains_slca_on_slide_instance() {
        let t = slide109();
        let ix = XmlIndex::build(&t);
        let kws = ["paper", "mark"];
        let (e, _) = elca(&t, &ix, &kws).unwrap();
        let brute = elca_brute_force(&t, &ix, &kws);
        assert_eq!(e, brute);
        // paper1 covers both keywords (label "paper" + author Mark);
        // conf is ALSO an ELCA: witness "paper" = paper2 (not covering),
        // witness "mark" = ... none outside paper1 → actually conf's only
        // mark is inside covering paper1, so conf is NOT an ELCA here.
        let (s, _) = crate::slca::slca_indexed_lookup_eager(&t, &ix, &kws).unwrap();
        assert_eq!(e, s, "on this instance ELCA == SLCA");
        assert_eq!(e.len(), 1);
        assert_eq!(t.label(e[0]), "paper");
    }

    #[test]
    fn conf_becomes_elca_with_extra_witnesses() {
        // Add a Mark demo author: now conf has witnesses for both keywords
        // outside the covering paper (paper2 for "paper", demo's Mark for
        // "mark")… but the demo itself does not cover (label ≠ paper), so
        // conf IS an ELCA while SLCA stays the single paper.
        let mut b = XmlBuilder::new("conf");
        b.open("paper")
            .leaf("author", "Mark")
            .close()
            .open("paper")
            .leaf("author", "Yang")
            .close()
            .open("demo")
            .leaf("author", "Mark")
            .close();
        let t = b.build();
        let ix = XmlIndex::build(&t);
        let kws = ["paper", "mark"];
        let (e, _) = elca(&t, &ix, &kws).unwrap();
        let brute = elca_brute_force(&t, &ix, &kws);
        assert_eq!(e, brute);
        let (s, _) = crate::slca::slca_indexed_lookup_eager(&t, &ix, &kws).unwrap();
        assert!(e.len() > s.len(), "ELCA {e:?} must exceed SLCA {s:?}");
        assert!(e.iter().any(|&n| t.label(n) == "conf"));
    }

    #[test]
    fn missing_keyword_empty() {
        let t = slide109();
        let ix = XmlIndex::build(&t);
        let (e, _) = elca(&t, &ix, &["paper", "zzz"]).unwrap();
        assert!(e.is_empty());
    }

    fn random_tree(structure: &[(usize, u8)]) -> XmlTree {
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

    #[test]
    fn elca_matches_brute_force() {
        let mut rng = Rng::seed_from_u64(61);
        for _ in 0..64 {
            let t = random_tree(&rand_structure(&mut rng));
            let ix = XmlIndex::build(&t);
            let kws = ["ka", "kb"];
            let fast = elca(&t, &ix, &kws).unwrap().0;
            let brute = elca_brute_force(&t, &ix, &kws);
            assert_eq!(fast, brute);
        }
    }

    #[test]
    fn slca_subset_of_elca() {
        let mut rng = Rng::seed_from_u64(62);
        for _ in 0..64 {
            let t = random_tree(&rand_structure(&mut rng));
            let ix = XmlIndex::build(&t);
            let kws = ["ka", "kb"];
            let (s, _) = crate::slca::slca_indexed_lookup_eager(&t, &ix, &kws).unwrap();
            let (e, _) = elca(&t, &ix, &kws).unwrap();
            for n in s {
                assert!(e.contains(&n), "SLCA node missing from ELCA");
            }
        }
    }
}
