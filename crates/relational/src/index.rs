//! Full-text inverted index over a database's text columns.
//!
//! Storage lives in the shared [`kwdb_common::index`] core: terms are
//! interned into a dense-`Sym` dictionary (each distinct term allocated
//! exactly once, however many occurrences the build sees) and postings sit
//! in per-term sorted `Vec`s behind the [`Postings`] / cursor API. Query
//! paths resolve each keyword to a [`Sym`] once via [`InvertedIndex::sym`]
//! and then fetch views by dense id; the string-keyed methods remain as
//! conveniences that do exactly one dictionary lookup.

use crate::schema::TableId;
use crate::table::{RowId, TupleId};
use kwdb_common::index::{IndexStats, Postings, TermIndex};
use kwdb_common::intern::Sym;
use std::collections::HashMap;
use std::time::Duration;

/// One posting: a keyword's occurrences in one tuple, over all of the
/// tuple's text columns — the unit a tuple set `R^K` is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    pub tuple: TupleId,
    /// Occurrences of the keyword in the tuple's text columns together.
    pub tf: u32,
}

impl kwdb_common::index::Posting for Posting {
    type SortKey = (TableId, RowId);

    fn sort_key(&self) -> Self::SortKey {
        (self.tuple.table, self.tuple.row)
    }

    /// `(table, row)` packed into one key.
    fn key64(&self) -> u64 {
        tuple_key(self.tuple)
    }

    fn coalesce(&mut self, other: &Self) -> bool {
        if self.tuple == other.tuple {
            self.tf += other.tf;
            true
        } else {
            false
        }
    }
}

/// The cursor key ([`kwdb_common::index::Posting::key64`]) of a tuple.
pub fn tuple_key(tuple: TupleId) -> u64 {
    ((tuple.table.0 as u64) << 32) | tuple.row.0 as u64
}

/// Inverted index: keyword → postings.
///
/// Postings are `(table, row, tf)`, one per tuple holding the keyword,
/// stored sorted by `(table, row)` so per-table runs are contiguous ("query
/// tuple sets" in DISCOVER terms), merged by one pass over the lists.
///
/// Storage is one [`TermIndex`]: one sorted list per term, which an `add`
/// after a build (a push at the end for the newest rows) and
/// `delete_tuple` edit in place — visible to every query immediately, no
/// rebuild required. The index is also the term statistics tf·idf weighs
/// keywords with, one "document" per tuple.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    store: TermIndex<Posting>,
    /// Documents (live tuples) per table.
    tuple_counts: HashMap<TableId, usize>,
    /// Tokens in the live tuples' text columns: one per `add`.
    total_tokens: u64,
    build_time: Option<Duration>,
}

impl InvertedIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn add(&mut self, term: &str, posting: Posting) {
        self.store.add(term, posting);
        self.total_tokens += 1;
    }

    pub(crate) fn set_tuple_count(&mut self, table: TableId, n: usize) {
        self.tuple_counts.insert(table, n);
    }

    pub(crate) fn set_build_time(&mut self, d: Duration) {
        self.build_time = Some(d);
    }

    /// Release the lists' growth slack — the batch-build epilogue.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.store.shrink_to_fit();
    }

    /// Remove every posting of `tuple` from the lists of `tokens` — all of
    /// the tuple's text tokens, repeats included, as they were added.
    pub(crate) fn delete_tuple(&mut self, tuple: TupleId, tokens: &[String]) {
        let key = tuple_key(tuple);
        for tok in tokens {
            self.store.remove_key(tok, key);
        }
        self.total_tokens -= tokens.len() as u64;
    }

    /// Resolve a query term to its dense id — one dictionary lookup. Do this
    /// once per query term, then drive the query off the `Sym`.
    pub fn sym(&self, term: &str) -> Option<Sym> {
        self.store.sym(term)
    }

    /// All postings for `term` (the empty view if absent).
    pub fn postings(&self, term: &str) -> Postings<'_, Posting> {
        self.store.postings_str(term)
    }

    /// All postings for an already-resolved term.
    pub fn postings_sym(&self, sym: Sym) -> Postings<'_, Posting> {
        self.store.postings(sym)
    }

    /// Number of distinct tuples (across tables) containing `term`: the
    /// length of its list, one posting per tuple.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Number of tuples indexed in `table`.
    pub fn tuple_count(&self, table: TableId) -> usize {
        self.tuple_counts.get(&table).copied().unwrap_or(0)
    }

    /// Number of tuples indexed, over all tables.
    pub fn doc_count(&self) -> usize {
        self.tuple_counts.values().sum()
    }

    /// Tokens in the text columns of every indexed tuple.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// All indexed terms, in dictionary id order.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.store.terms()
    }

    /// Whole-index size figures, with the build wall-clock when the owner
    /// measured one.
    pub fn index_stats(&self) -> IndexStats {
        self.store.index_stats().with_build(self.build_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(table: u32, row: u32) -> Posting {
        Posting {
            tuple: TupleId::new(TableId(table), RowId(row)),
            tf: 1,
        }
    }

    fn index() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add("xml", t(0, 0));
        ix.add("xml", t(0, 0)); // a second occurrence (any column), tf=2
        ix.add("xml", t(1, 3));
        ix.add("xml", t(0, 2));
        ix.add("graph", t(1, 3));
        ix
    }

    #[test]
    fn postings_sorted_and_merged() {
        let ix = index();
        let ps = ix.postings("xml").to_vec();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].tf, 2);
        assert!(ps.windows(2).all(|w| w[0].tuple < w[1].tuple));
    }

    #[test]
    fn a_posting_is_a_tuple_and_a_count() {
        assert_eq!(std::mem::size_of::<Posting>(), 12);
    }

    #[test]
    fn doc_freq_counts_tuples() {
        let ix = index();
        assert_eq!(ix.doc_freq("xml"), 3);
        assert_eq!(ix.doc_freq("graph"), 1);
        assert_eq!(ix.doc_freq("nope"), 0);
        assert_eq!(ix.total_tokens(), 5, "one per add");
        let mut ix = ix;
        ix.delete_tuple(t(1, 3).tuple, &["xml".into(), "graph".into()]);
        assert_eq!((ix.doc_freq("xml"), ix.doc_freq("graph")), (2, 0));
        assert_eq!(ix.total_tokens(), 3);
    }

    #[test]
    fn missing_term_is_empty() {
        let ix = index();
        assert!(ix.postings("nothing").is_empty());
    }

    #[test]
    fn sym_api_matches_string_api() {
        let ix = index();
        let xml = ix.sym("xml").expect("indexed term resolves");
        assert_eq!(ix.postings_sym(xml), ix.postings("xml"));
        assert!(ix.sym("nothing").is_none());
    }

    #[test]
    fn index_stats_report_sizes() {
        let ix = index();
        let stats = ix.index_stats();
        assert_eq!(stats.terms, 2);
        assert_eq!(stats.postings, 4);
        assert_eq!(stats.posting_bytes, 4 * 12);
        assert!(stats.build.is_none(), "unit-built index is untimed");
    }
}
