//! Keyword inverted lists over an XML tree.
//!
//! For each keyword the index stores the document-ordered list of nodes whose
//! *direct* text contains it. Because [`NodeId`] order equals
//! document order, the `lm`/`rm` probes the SLCA family needs are plain
//! binary searches, served by the shared [`kwdb_common::index`] kernels.
//!
//! Storage lives in a [`TermIndex`] keyed by the term dictionary: every
//! label and token is normalized through [`normalize_term`] and interned
//! once, and query paths resolve each keyword to a [`Sym`] a single time
//! via [`XmlIndex::sym`]. Lists are handed out as [`Postings`] views
//! supporting iteration, cursors, and the probes. The index is built once
//! and never changes: a changed tree is a new index.

use crate::tree::{NodeId, XmlTree};
use kwdb_common::index::{kernels, IndexStats, Postings, TermIndex};
use kwdb_common::intern::Sym;
use kwdb_common::text::{normalize_term, tokenize};
use std::time::Duration;

/// A node *is* its posting: document-ordered, deduplicated on insert.
impl kwdb_common::index::Posting for NodeId {
    type SortKey = NodeId;

    fn sort_key(&self) -> NodeId {
        *self
    }

    fn key64(&self) -> u64 {
        self.0 as u64
    }

    fn coalesce(&mut self, other: &Self) -> bool {
        self == other
    }

    fn same_doc(&self, other: &Self) -> bool {
        self == other
    }
}

/// Inverted index: keyword → sorted node list.
#[derive(Debug, Clone, Default)]
pub struct XmlIndex {
    store: TermIndex<NodeId>,
    build_time: Option<Duration>,
}

impl XmlIndex {
    /// Build the index by tokenizing every node's direct text. Element labels
    /// are also indexed (attribute marker stripped, lower-cased), so queries
    /// can match structure terms like `paper` — the tutorial's
    /// Q = {keyword, Mark} relies on label matches.
    pub fn build(tree: &XmlTree) -> Self {
        let start = std::time::Instant::now();
        let mut store: TermIndex<NodeId> = TermIndex::new();
        for n in tree.iter() {
            let label = normalize_term(tree.label(n));
            if !label.is_empty() {
                store.add(&label, n);
            }
            if let Some(text) = tree.text(n) {
                for tok in tokenize(text) {
                    store.add(&tok, n);
                }
            }
        }
        // Pre-order iteration emits nodes in document order, so every add is
        // a push (or a coalesce) at the end of its list.
        store.shrink_to_fit();
        XmlIndex {
            store,
            build_time: Some(start.elapsed()),
        }
    }

    /// Resolve a query term to its dense id — one dictionary lookup. Do this
    /// once per query term, then fetch lists by `Sym`.
    pub fn sym(&self, term: &str) -> Option<Sym> {
        self.store.sym(term)
    }

    /// Document-ordered match list for `term` (the empty view if absent).
    pub fn nodes(&self, term: &str) -> Postings<'_, NodeId> {
        self.store.postings_str(term)
    }

    /// Document-ordered match list for an already-resolved term.
    pub fn nodes_sym(&self, sym: Sym) -> Postings<'_, NodeId> {
        self.store.postings(sym)
    }

    /// Number of nodes directly containing `term`.
    pub fn freq(&self, term: &str) -> usize {
        self.nodes(term).len()
    }

    /// Match lists for all `terms`, shortest first (the SLCA drivers iterate
    /// the smallest list). Returns `None` if any term has no matches —
    /// AND semantics make the result empty in that case.
    pub fn lists_for<'a, S: AsRef<str>>(
        &'a self,
        terms: &[S],
    ) -> Option<Vec<Postings<'a, NodeId>>> {
        let mut lists: Vec<Postings<'a, NodeId>> = Vec::with_capacity(terms.len());
        for t in terms {
            let l = self.nodes(t.as_ref());
            if l.is_empty() {
                return None;
            }
            lists.push(l);
        }
        lists.sort_by_key(|l| l.len());
        Some(lists)
    }

    /// Smallest node in a raw sorted `list` that is `≥ v` in document order
    /// (XKSearch's *rm* probe). `None` if all nodes precede `v`. Slice
    /// helper for algorithm-internal lists; index lists take the same probe
    /// on their [`Postings`] view.
    pub fn right_match(list: &[NodeId], v: NodeId) -> Option<NodeId> {
        kernels::right_match(list, v)
    }

    /// Largest node in a raw sorted `list` that is `≤ v` (XKSearch's *lm*
    /// probe).
    pub fn left_match(list: &[NodeId], v: NodeId) -> Option<NodeId> {
        kernels::left_match(list, v)
    }

    /// All indexed terms, in dictionary id order.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.store.terms()
    }

    /// Whole-index size figures, including the build wall-clock.
    pub fn index_stats(&self) -> IndexStats {
        self.store.index_stats().with_build(self.build_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::XmlTree;

    fn tree() -> XmlTree {
        let mut b = XmlTree::builder("conf");
        b.leaf("name", "SIGMOD")
            .open("paper")
            .leaf("title", "keyword search")
            .leaf("author", "Mark")
            .close()
            .open("paper")
            .leaf("title", "RDF keyword")
            .leaf("author", "Zhang")
            .close();
        b.build()
    }

    #[test]
    fn text_terms_indexed_in_doc_order() {
        let t = tree();
        let ix = XmlIndex::build(&t);
        let kw = ix.nodes("keyword").to_vec();
        assert_eq!(kw.len(), 2);
        assert!(kw[0] < kw[1]);
        assert_eq!(ix.freq("mark"), 1);
        assert_eq!(ix.freq("nothing"), 0);
    }

    #[test]
    fn labels_are_indexed() {
        let t = tree();
        let ix = XmlIndex::build(&t);
        assert_eq!(ix.freq("paper"), 2);
        assert_eq!(ix.freq("conf"), 1);
    }

    #[test]
    fn lists_for_orders_by_length_and_detects_missing() {
        let t = tree();
        let ix = XmlIndex::build(&t);
        let lists = ix.lists_for(&["keyword", "mark"]).unwrap();
        assert!(lists[0].len() <= lists[1].len());
        assert!(ix.lists_for(&["keyword", "zzz"]).is_none());
    }

    #[test]
    fn left_right_match_probes() {
        let list = [NodeId(2), NodeId(5), NodeId(9)];
        assert_eq!(XmlIndex::right_match(&list, NodeId(0)), Some(NodeId(2)));
        assert_eq!(XmlIndex::right_match(&list, NodeId(5)), Some(NodeId(5)));
        assert_eq!(XmlIndex::right_match(&list, NodeId(6)), Some(NodeId(9)));
        assert_eq!(XmlIndex::right_match(&list, NodeId(10)), None);
        assert_eq!(XmlIndex::left_match(&list, NodeId(10)), Some(NodeId(9)));
        assert_eq!(XmlIndex::left_match(&list, NodeId(5)), Some(NodeId(5)));
        assert_eq!(XmlIndex::left_match(&list, NodeId(1)), None);
    }

    #[test]
    fn attribute_labels_indexed_without_at() {
        let mut b = XmlTree::builder("movie");
        b.leaf("@year", "1980");
        let t = b.build();
        let ix = XmlIndex::build(&t);
        assert_eq!(ix.freq("year"), 1);
        assert_eq!(ix.freq("1980"), 1);
    }

    #[test]
    fn sym_api_matches_string_api() {
        let t = tree();
        let ix = XmlIndex::build(&t);
        let s = ix.sym("keyword").expect("indexed term resolves");
        assert_eq!(ix.nodes_sym(s), ix.nodes("keyword"));
        assert!(ix.sym("zzz").is_none());
    }

    #[test]
    fn index_stats_report_sizes_and_build_time() {
        let t = tree();
        let ix = XmlIndex::build(&t);
        let stats = ix.index_stats();
        assert!(stats.terms > 0);
        assert!(stats.postings >= stats.terms);
        assert_eq!(
            stats.posting_bytes,
            stats.postings * std::mem::size_of::<NodeId>()
        );
        assert!(stats.build.is_some(), "batch build is timed");
    }
}
