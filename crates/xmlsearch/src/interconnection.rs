//! Interconnection semantics — XSEarch (Cohen, Mamou, Kanza & Sagiv,
//! VLDB 03), tutorial slide 34's "many more ?LCAs".
//!
//! Not every LCA is meaningful: in a bibliography, two authors related only
//! through the *document root* are not "interconnected". XSEarch's rule:
//! two match nodes are related iff the tree path between them contains **no
//! two distinct nodes with the same label** (other than the endpoints) — a
//! repeated label on the path means the connection crosses two different
//! entities of the same type (two different papers, say), which users read
//! as unrelated. An answer is a set of matches, one per keyword, that are
//! pairwise interconnected.

use kwdb_common::Result;
use kwdb_xml::{NodeId, XmlIndex, XmlTree};

/// Is the path between `a` and `b` free of repeated labels?
/// (Endpoints may share a label — "two authors of one paper" are related.)
pub fn interconnected(tree: &XmlTree, a: NodeId, b: NodeId) -> bool {
    if a == b {
        return true;
    }
    let lca = tree.lca(a, b);
    // collect interior labels on both legs (excluding endpoints a and b)
    let mut labels = std::collections::HashSet::new();
    let mut dup = false;
    let mut walk = |from: NodeId| {
        let mut cur = from;
        while cur != lca {
            if cur != a && cur != b && !labels.insert(tree.label(cur).to_string()) {
                dup = true;
            }
            cur = tree.parent(cur).expect("lca is an ancestor");
        }
    };
    walk(a);
    walk(b);
    // the LCA itself is interior unless it is an endpoint
    if lca != a && lca != b && !labels.insert(tree.label(lca).to_string()) {
        dup = true;
    }
    !dup
}

/// An XSEarch answer: one match per keyword, pairwise interconnected,
/// reported by its LCA (the subtree a user would read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterconnectedAnswer {
    pub matches: Vec<NodeId>,
    pub lca: NodeId,
}

/// All interconnected answers for `keywords` (AND semantics). Bounded by
/// `max_answers` since match combinations multiply.
pub fn search<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
    max_answers: usize,
) -> Result<Vec<InterconnectedAnswer>> {
    let Some(lists) = index.lists_for(keywords) else {
        return Ok(Vec::new());
    };
    // The mixed-radix enumeration indexes into every list by position.
    let lists: Vec<Vec<NodeId>> = lists.iter().map(|l| l.to_vec()).collect();
    let mut out = Vec::new();
    let mut combo = vec![0usize; lists.len()];
    'enumerate: loop {
        let matches: Vec<NodeId> = combo.iter().zip(&lists).map(|(&i, l)| l[i]).collect();
        let ok = (0..matches.len())
            .all(|i| (i + 1..matches.len()).all(|j| interconnected(tree, matches[i], matches[j])));
        if ok {
            let lca = matches
                .iter()
                .skip(1)
                .fold(matches[0], |acc, &m| tree.lca(acc, m));
            out.push(InterconnectedAnswer { matches, lca });
            if out.len() >= max_answers {
                break;
            }
        }
        // advance the mixed-radix counter
        let mut pos = 0;
        loop {
            if pos == combo.len() {
                break 'enumerate;
            }
            combo[pos] += 1;
            if combo[pos] < lists[pos].len() {
                break;
            }
            combo[pos] = 0;
            pos += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_xml::XmlBuilder;

    /// Two papers under one conf: authors within a paper are related;
    /// authors across papers are not (the path repeats "paper").
    fn bib() -> XmlTree {
        let mut b = XmlBuilder::new("conf");
        b.open("paper")
            .leaf("author", "Alice")
            .leaf("author", "Bob")
            .close()
            .open("paper")
            .leaf("author", "Carol")
            .close();
        b.build()
    }

    #[test]
    fn coauthors_are_interconnected() {
        let t = bib();
        let ix = XmlIndex::build(&t);
        let alice = ix.nodes("alice").first().unwrap();
        let bob = ix.nodes("bob").first().unwrap();
        assert!(interconnected(&t, alice, bob), "path: author-paper-author");
    }

    #[test]
    fn authors_of_different_papers_are_not() {
        let t = bib();
        let ix = XmlIndex::build(&t);
        let alice = ix.nodes("alice").first().unwrap();
        let carol = ix.nodes("carol").first().unwrap();
        // path crosses paper–conf–paper: "paper" repeats
        assert!(!interconnected(&t, alice, carol));
    }

    #[test]
    fn search_returns_only_related_pairs() {
        let t = bib();
        let ix = XmlIndex::build(&t);
        let answers = search(&t, &ix, &["alice", "bob"], 10).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(t.label(answers[0].lca), "paper");
        let none = search(&t, &ix, &["alice", "carol"], 10).unwrap();
        assert!(none.is_empty(), "cross-paper pair must be filtered");
    }

    #[test]
    fn same_node_is_self_interconnected() {
        let t = bib();
        let ix = XmlIndex::build(&t);
        let alice = ix.nodes("alice").first().unwrap();
        assert!(interconnected(&t, alice, alice));
    }

    #[test]
    fn missing_keyword_gives_empty() {
        let t = bib();
        let ix = XmlIndex::build(&t);
        assert!(search(&t, &ix, &["alice", "zzz"], 10).unwrap().is_empty());
    }

    #[test]
    fn max_answers_bounds_enumeration() {
        let t = bib();
        let ix = XmlIndex::build(&t);
        // "author" label matches 3 nodes; pairs with themselves etc.
        let answers = search(&t, &ix, &["author"], 2).unwrap();
        assert_eq!(answers.len(), 2);
    }
}
