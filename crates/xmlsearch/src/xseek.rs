//! XSeek: inferring return nodes from keyword roles and data semantics
//! (Liu & Chen, SIGMOD 07) — tutorial slide 51.
//!
//! Query keywords play two roles: *predicates* (value matches, like SQL
//! selections) and *return specifiers* (label matches without an
//! accompanying value, like SQL projections). Data nodes are classified as
//! **entities** (node types that repeat under one parent type — the `*`-node
//! rule), **attributes** (non-repeating leaf types) or connections. XSeek's
//! inference:
//!
//! * a keyword matching a label with no value predicate on it → that label
//!   is an **explicit return node**;
//! * otherwise the result's return node is **implicit**: the lowest entity
//!   ancestor-or-self of the match context (the SLCA).

use crate::slca::slca_indexed_lookup_eager;
use kwdb_common::Result;
use kwdb_xml::{NodeId, PathStats, XmlIndex, XmlTree};

/// What to return for one query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReturnSpec {
    /// A label keyword asked for this node type explicitly.
    Explicit { label: String, nodes: Vec<NodeId> },
    /// The entity inferred to be the result's subject.
    Entity { node: NodeId },
}

/// Node classification per XSeek's data-semantics rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    Entity,
    Attribute,
    Connection,
}

/// Classify a node: its label path is an *entity type* when instances
/// repeat under a single parent instance on average; a leaf that does not
/// repeat is an *attribute*; everything else is a connection node.
pub fn classify(tree: &XmlTree, stats: &PathStats, n: NodeId) -> NodeClass {
    let path = tree.label_path(n);
    let parent_path = match tree.parent(n) {
        Some(p) => tree.label_path(p),
        None => return NodeClass::Entity, // the root stands for the whole doc
    };
    let repeats = stats.node_count(&path) > stats.node_count(&parent_path);
    if repeats {
        NodeClass::Entity
    } else if tree.children(n).is_empty() {
        NodeClass::Attribute
    } else {
        NodeClass::Connection
    }
}

/// The lowest entity ancestor-or-self of `n`.
pub fn lowest_entity(tree: &XmlTree, stats: &PathStats, n: NodeId) -> NodeId {
    let mut cur = Some(n);
    while let Some(x) = cur {
        if classify(tree, stats, x) == NodeClass::Entity {
            return x;
        }
        cur = tree.parent(x);
    }
    tree.root()
}

/// Role each query keyword plays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeywordRole {
    /// Matches node labels only → a return specifier.
    Label,
    /// Matches node values (possibly labels too) → a predicate.
    Value,
    /// No matches at all.
    Unmatched,
}

/// Determine each keyword's role from the index: a keyword whose matches
/// are all label-only matches is a return specifier.
pub fn keyword_roles<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    keywords: &[S],
) -> Vec<KeywordRole> {
    keywords
        .iter()
        .map(|k| {
            let k = k.as_ref();
            let matches = index.nodes(k);
            if matches.is_empty() {
                return KeywordRole::Unmatched;
            }
            let has_value_match = matches.iter().any(|n| {
                tree.text(n)
                    .map(|t| kwdb_common::text::tokenize(t).iter().any(|tok| tok == k))
                    .unwrap_or(false)
            });
            if has_value_match {
                KeywordRole::Value
            } else {
                KeywordRole::Label
            }
        })
        .collect()
}

/// Full XSeek inference: run SLCA on the query, then produce a return
/// specification per result.
pub fn infer_return<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    stats: &PathStats,
    keywords: &[S],
) -> Result<Vec<ReturnSpec>> {
    let roles = keyword_roles(tree, index, keywords);
    let (slcas, _) = slca_indexed_lookup_eager(tree, index, keywords)?;
    let mut out = Vec::with_capacity(slcas.len());
    for &s in &slcas {
        // explicit return: some keyword is a pure label specifier
        let explicit = keywords
            .iter()
            .zip(&roles)
            .find(|(_, r)| **r == KeywordRole::Label);
        match explicit {
            Some((k, _)) => {
                let k = k.as_ref();
                let end = tree.subtree_end(s);
                // the matching label nodes inside this result's subtree
                let list = index.nodes(k);
                let mut nodes: Vec<NodeId> = list.collect_between(s, end);
                if nodes.is_empty() {
                    // label lives outside the SLCA subtree (e.g. sibling
                    // attribute of the matched entity): take label nodes
                    // under the lowest entity instead
                    let ent = lowest_entity(tree, stats, s);
                    let e_end = tree.subtree_end(ent);
                    nodes = list.collect_between(ent, e_end);
                }
                out.push(ReturnSpec::Explicit {
                    label: k.to_string(),
                    nodes,
                });
            }
            None => out.push(ReturnSpec::Entity {
                node: lowest_entity(tree, stats, s),
            }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_xml::XmlBuilder;

    /// Slide 51's shape: authors with names and institutions.
    fn authors() -> XmlTree {
        let mut b = XmlBuilder::new("bib");
        for (name, inst) in [
            ("John Smith", "Univ of Toronto"),
            ("Mary Jones", "MIT"),
            ("John Doe", "Stanford"),
        ] {
            b.open("author")
                .leaf("name", name)
                .leaf("institution", inst)
                .close();
        }
        b.build()
    }

    #[test]
    fn entity_attribute_classification() {
        let t = authors();
        let stats = kwdb_xml::PathStats::build(&t);
        let author1 = t.children(t.root())[0];
        let name1 = t.children(author1)[0];
        assert_eq!(classify(&t, &stats, author1), NodeClass::Entity);
        assert_eq!(classify(&t, &stats, name1), NodeClass::Attribute);
        assert_eq!(classify(&t, &stats, t.root()), NodeClass::Entity);
    }

    #[test]
    fn value_query_returns_author_entity() {
        // Q2 = {john, toronto}: both are value matches → return the author
        let t = authors();
        let ix = kwdb_xml::XmlIndex::build(&t);
        let stats = kwdb_xml::PathStats::build(&t);
        let specs = infer_return(&t, &ix, &stats, &["john", "toronto"]).unwrap();
        assert_eq!(specs.len(), 1);
        match &specs[0] {
            ReturnSpec::Entity { node } => assert_eq!(t.label(*node), "author"),
            other => panic!("expected entity return, got {other:?}"),
        }
    }

    #[test]
    fn label_keyword_is_explicit_return() {
        // Q1 = {john, institution}: "institution" matches labels only →
        // explicit return of the institution node(s) of each John
        let t = authors();
        let ix = kwdb_xml::XmlIndex::build(&t);
        let stats = kwdb_xml::PathStats::build(&t);
        let roles = keyword_roles(&t, &ix, &["john", "institution"]);
        assert_eq!(roles, vec![KeywordRole::Value, KeywordRole::Label]);
        let specs = infer_return(&t, &ix, &stats, &["john", "institution"]).unwrap();
        assert!(!specs.is_empty());
        for spec in &specs {
            match spec {
                ReturnSpec::Explicit { label, nodes } => {
                    assert_eq!(label, "institution");
                    assert!(!nodes.is_empty());
                    assert!(nodes.iter().all(|&n| t.label(n) == "institution"));
                }
                other => panic!("expected explicit return, got {other:?}"),
            }
        }
    }

    #[test]
    fn unmatched_keyword_role() {
        let t = authors();
        let ix = kwdb_xml::XmlIndex::build(&t);
        let roles = keyword_roles(&t, &ix, &["zzz"]);
        assert_eq!(roles, vec![KeywordRole::Unmatched]);
    }

    #[test]
    fn lowest_entity_walks_up_from_attribute() {
        let t = authors();
        let stats = kwdb_xml::PathStats::build(&t);
        let author1 = t.children(t.root())[0];
        let name1 = t.children(author1)[0];
        assert_eq!(lowest_entity(&t, &stats, name1), author1);
        assert_eq!(lowest_entity(&t, &stats, author1), author1);
    }
}
