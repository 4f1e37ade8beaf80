//! The axiomatic evaluation framework (Liu & Chen, VLDB 08) — tutorial
//! slides 107–109.
//!
//! Describing the *right* results for every query is impossible, but
//! abnormal behaviour shows up when comparing one engine's results on two
//! similar inputs. Four axioms, each an executable checker over any
//! [`XmlSearchEngine`] (AND semantics assumed):
//!
//! * **query monotonicity** — adding a keyword cannot grow the result count;
//! * **query consistency** — every result of the extended query contains
//!   the new keyword (slide 109's violation example);
//! * **data monotonicity** — inserting a node cannot shrink the result
//!   count;
//! * **data consistency** — any new result after inserting a node contains
//!   the new node.

use kwdb_xml::{NodeId, XmlIndex, XmlTree};
use std::collections::HashSet;

/// Anything that answers XML keyword queries with result subtree roots.
pub trait XmlSearchEngine {
    fn search(&self, tree: &XmlTree, keywords: &[String]) -> Vec<NodeId>;
}

impl<F> XmlSearchEngine for F
where
    F: Fn(&XmlTree, &[String]) -> Vec<NodeId>,
{
    fn search(&self, tree: &XmlTree, keywords: &[String]) -> Vec<NodeId> {
        self(tree, keywords)
    }
}

/// The reference SLCA engine, for cross-checking candidate engines.
pub struct SlcaEngine;

impl XmlSearchEngine for SlcaEngine {
    fn search(&self, tree: &XmlTree, keywords: &[String]) -> Vec<NodeId> {
        let ix = XmlIndex::build(tree);
        kwdb_xmlsearch::slca_indexed_lookup_eager(tree, &ix, keywords)
            .map(|(r, _)| r)
            .unwrap_or_default()
    }
}

/// Outcome of one axiom check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxiomReport {
    Satisfied,
    Violated { detail: String },
}

impl AxiomReport {
    pub fn is_satisfied(&self) -> bool {
        matches!(self, AxiomReport::Satisfied)
    }
}

/// Query monotonicity: `|results(Q ∪ {k})| ≤ |results(Q)|`.
pub fn check_query_monotonicity(
    engine: &dyn XmlSearchEngine,
    tree: &XmlTree,
    query: &[String],
    extra: &str,
) -> AxiomReport {
    let base = engine.search(tree, query).len();
    let mut extended = query.to_vec();
    extended.push(extra.to_string());
    let ext = engine.search(tree, &extended).len();
    if ext <= base {
        AxiomReport::Satisfied
    } else {
        AxiomReport::Violated {
            detail: format!("adding '{extra}' grew results from {base} to {ext}"),
        }
    }
}

/// Query consistency: every result of `Q ∪ {k}` contains `k` in its subtree
/// (as text or label).
pub fn check_query_consistency(
    engine: &dyn XmlSearchEngine,
    tree: &XmlTree,
    query: &[String],
    extra: &str,
) -> AxiomReport {
    let mut extended = query.to_vec();
    extended.push(extra.to_string());
    let ix = XmlIndex::build(tree);
    let matches: HashSet<NodeId> = ix.nodes(extra).iter().collect();
    for r in engine.search(tree, &extended) {
        let ok = tree.subtree(r).into_iter().any(|n| matches.contains(&n));
        if !ok {
            return AxiomReport::Violated {
                detail: format!(
                    "result {} ({}) lacks the new keyword '{extra}'",
                    r.0,
                    tree.label_path(r)
                ),
            };
        }
    }
    AxiomReport::Satisfied
}

/// Insert a new leaf `<label>text</label>` under `parent`, producing a new
/// tree (trees are immutable; the checker rebuilds). Returns the new tree
/// and the Dewey path of the inserted node.
pub fn with_added_leaf(
    tree: &XmlTree,
    parent: NodeId,
    label: &str,
    text: &str,
) -> (XmlTree, String) {
    // rebuild via the builder, appending the new leaf as parent's last child
    fn rebuild(
        tree: &XmlTree,
        node: NodeId,
        b: &mut kwdb_xml::XmlBuilder,
        target: NodeId,
        label: &str,
        text: &str,
    ) {
        if let Some(t) = tree.text(node) {
            b.text(t);
        }
        for &c in tree.children(node) {
            b.open(tree.label(c));
            rebuild(tree, c, b, target, label, text);
            b.close();
        }
        if node == target {
            b.leaf(label, text);
        }
    }
    let mut b = kwdb_xml::XmlBuilder::new(tree.label(tree.root()));
    rebuild(tree, tree.root(), &mut b, parent, label, text);
    let new_tree = b.build();
    let path = format!("{}/{}", tree.label_path(parent), label);
    (new_tree, path)
}

/// Data monotonicity: adding a node cannot shrink the result count.
pub fn check_data_monotonicity(
    engine: &dyn XmlSearchEngine,
    tree: &XmlTree,
    query: &[String],
    parent: NodeId,
    label: &str,
    text: &str,
) -> AxiomReport {
    let base = engine.search(tree, query).len();
    let (bigger, _) = with_added_leaf(tree, parent, label, text);
    let after = engine.search(&bigger, query).len();
    if after >= base {
        AxiomReport::Satisfied
    } else {
        AxiomReport::Violated {
            detail: format!("adding a node shrank results from {base} to {after}"),
        }
    }
}

/// Data consistency: every *new* result after insertion contains the new
/// node in its subtree.
pub fn check_data_consistency(
    engine: &dyn XmlSearchEngine,
    tree: &XmlTree,
    query: &[String],
    parent: NodeId,
    label: &str,
    text: &str,
) -> AxiomReport {
    let before: HashSet<String> = engine
        .search(tree, query)
        .into_iter()
        .map(|n| tree.dewey(n).to_string())
        .collect();
    let (bigger, _) = with_added_leaf(tree, parent, label, text);
    // the new node is parent's last child in the rebuilt tree
    let new_parent = bigger
        .node_at(&tree.dewey(parent))
        .expect("parent position preserved by append-only rebuild");
    let new_node = *bigger.children(new_parent).last().expect("leaf added");
    for r in engine.search(&bigger, query) {
        let dewey = bigger.dewey(r).to_string();
        if before.contains(&dewey) {
            continue; // existing result
        }
        let contains_new = bigger.subtree(r).contains(&new_node);
        if !contains_new {
            return AxiomReport::Violated {
                detail: format!("new result {dewey} does not contain the inserted node"),
            };
        }
    }
    AxiomReport::Satisfied
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_xml::XmlBuilder;

    /// Slide 109's conf instance.
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

    fn q(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reference_engine_satisfies_all_axioms() {
        let t = slide109();
        let e = SlcaEngine;
        assert!(check_query_monotonicity(&e, &t, &q(&["paper", "mark"]), "sigmod").is_satisfied());
        assert!(check_query_consistency(&e, &t, &q(&["paper", "mark"]), "sigmod").is_satisfied());
        let paper2 = t.children(t.root())[3];
        assert!(
            check_data_monotonicity(&e, &t, &q(&["paper", "mark"]), paper2, "author", "Mark")
                .is_satisfied()
        );
        assert!(
            check_data_consistency(&e, &t, &q(&["paper", "mark"]), paper2, "author", "Mark")
                .is_satisfied()
        );
    }

    #[test]
    fn slide109_query_consistency_violation_detected() {
        // A broken engine: for the extended query it returns the demo
        // subtree, which lacks "sigmod" — the slide's violation.
        let t = slide109();
        let demo = t.children(t.root())[4];
        let broken = move |tree: &XmlTree, keywords: &[String]| -> Vec<NodeId> {
            if keywords.contains(&"sigmod".to_string()) {
                vec![demo]
            } else {
                SlcaEngine.search(tree, keywords)
            }
        };
        let report = check_query_consistency(&broken, &t, &q(&["paper", "mark"]), "sigmod");
        assert!(!report.is_satisfied());
        match report {
            AxiomReport::Violated { detail } => assert!(detail.contains("sigmod")),
            _ => unreachable!(),
        }
    }

    #[test]
    fn query_monotonicity_violation_detected() {
        let t = slide109();
        let spammy = |tree: &XmlTree, keywords: &[String]| -> Vec<NodeId> {
            // returns more results the longer the query
            tree.iter().take(keywords.len() * 2).collect()
        };
        let report = check_query_monotonicity(&spammy, &t, &q(&["paper"]), "mark");
        assert!(!report.is_satisfied());
    }

    #[test]
    fn data_monotonicity_violation_detected() {
        let t = slide109();
        let base_len = t.len();
        let shrinking = move |tree: &XmlTree, _: &[String]| -> Vec<NodeId> {
            // returns fewer results on bigger documents
            if tree.len() > base_len {
                vec![]
            } else {
                vec![tree.root()]
            }
        };
        let paper = t.children(t.root())[2];
        let report = check_data_monotonicity(&shrinking, &t, &q(&["mark"]), paper, "x", "y");
        assert!(!report.is_satisfied());
    }

    #[test]
    fn with_added_leaf_preserves_existing_structure() {
        let t = slide109();
        let paper = t.children(t.root())[2];
        let (bigger, path) = with_added_leaf(&t, paper, "keyword", "extra");
        assert_eq!(bigger.len(), t.len() + 1);
        assert_eq!(path, "/conf/paper/keyword");
        // old nodes still resolvable at their Dewey positions
        for n in t.iter() {
            let m = bigger.node_at(&t.dewey(n)).expect("position preserved");
            assert_eq!(t.label(n), bigger.label(m));
        }
    }
}
