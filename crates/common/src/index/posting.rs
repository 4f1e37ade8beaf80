//! Generic sorted posting storage behind a cursor-based access API.
//!
//! A term's postings live in one [`PostingList`]: a `Vec` kept sorted by
//! [`Posting::sort_key`] and coalesced as postings are added and removed.
//! Callers read it through two surfaces:
//!
//! * [`Postings`] — a `Copy` view over the list's slice handed out by
//!   lookups ([`TermIndex::postings`](super::TermIndex::postings)),
//!   supporting `len`/`iter`/probes;
//! * [`Postings::cursor`] — a [`PostingCursor`] with
//!   `peek`/`advance`/`seek(key)`, the shape the merge kernels consume.
//!
//! `seek` gallops over the slice, and the probes are the slice
//! [`kernels`]'s binary searches.

use super::kernels;
use std::time::Duration;

/// One entry of a posting list. Implemented by each substrate's posting
/// type (relational tuple occurrence, XML node, graph node).
pub trait Posting: Copy {
    /// Total order of the list: document order, `(table, row)` order,
    /// node-id order, …
    type SortKey: Ord;

    fn sort_key(&self) -> Self::SortKey;

    /// A 64-bit monotone image of [`sort_key`](Self::sort_key) order:
    /// `a.sort_key() ≤ b.sort_key() ⟹ a.key64() ≤ b.key64()`. Cursors
    /// `seek` by this key, and
    /// [`TermIndex::remove_key`](super::TermIndex::remove_key) removes by it.
    fn key64(&self) -> u64;

    /// Fold `other` — an occurrence at the *same* logical position — into
    /// `self` (e.g. accumulate term frequency). Must return `false` without
    /// mutating `self` when `other` is a distinct posting.
    fn coalesce(&mut self, other: &Self) -> bool;

    /// Term-occurrence count carried by this posting (its tf contribution).
    fn occurrences(&self) -> u64 {
        1
    }

    /// Whether two sort-adjacent postings belong to the same document, for
    /// document-frequency counting.
    fn same_doc(&self, other: &Self) -> bool;
}

/// Per-term statistics, computed from the term's list when asked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TermStats {
    /// Documents containing the term.
    pub df: u64,
    /// Total occurrences of the term across all documents.
    pub total_tf: u64,
}

/// Whole-index size figures, for observability gauges and bench reports.
///
/// Marked `#[non_exhaustive]`: construct via [`IndexStats::new`] and the
/// `with_*` builders so future fields are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Distinct terms in the dictionary.
    pub terms: usize,
    /// Stored postings across all lists.
    pub postings: usize,
    /// Bytes of posting payload: `postings × size_of::<P>()`.
    pub posting_bytes: usize,
    /// Build wall-clock, when the owner measured one (batch builds do;
    /// incrementally grown indexes don't).
    pub build: Option<Duration>,
}

impl IndexStats {
    pub fn new(terms: usize, postings: usize, posting_bytes: usize) -> Self {
        IndexStats {
            terms,
            postings,
            posting_bytes,
            build: None,
        }
    }

    /// Set the build duration (replaces cross-crate struct-update syntax,
    /// which `#[non_exhaustive]` forbids).
    pub fn with_build(mut self, build: Option<Duration>) -> Self {
        self.build = build;
        self
    }
}

/// One term's posting list: a `Vec` sorted by [`Posting::sort_key`] with
/// coalesced duplicates, edited in place by adds and removals.
#[derive(Debug, Clone)]
pub struct PostingList<P> {
    entries: Vec<P>,
}

impl<P> Default for PostingList<P> {
    fn default() -> Self {
        PostingList {
            entries: Vec::new(),
        }
    }
}

impl<P: Posting> PostingList<P> {
    /// Insert `p` preserving sort order: the append/coalesce fast path when
    /// `p` is in order (the common case — batch builds and ingest into the
    /// last table emit ascending keys), a binary-search insertion otherwise.
    pub(crate) fn insert_coalesce(&mut self, p: P) {
        let entries = &mut self.entries;
        if entries
            .last()
            .is_none_or(|last| last.sort_key() <= p.sort_key())
        {
            if let Some(last) = entries.last_mut() {
                if last.coalesce(&p) {
                    return;
                }
            }
            entries.push(p);
            return;
        }
        let i = entries.partition_point(|q| q.sort_key() < p.sort_key());
        if i < entries.len() && entries[i].coalesce(&p) {
            return;
        }
        entries.insert(i, p);
    }

    /// Remove every posting whose [`Posting::key64`] equals `key` — one
    /// binary search to the first, one `drain` — and return how many.
    pub(crate) fn remove_key(&mut self, key: u64) -> usize {
        let lo = self.entries.partition_point(|p| p.key64() < key);
        let n = self.entries[lo..]
            .iter()
            .take_while(|p| p.key64() == key)
            .count();
        self.entries.drain(lo..lo + n);
        n
    }

    /// Release the slack a growing `Vec` keeps.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// The term's statistics, by one scan of the list.
    pub fn stats(&self) -> TermStats {
        let mut stats = TermStats::default();
        let mut prev: Option<&P> = None;
        for p in &self.entries {
            stats.total_tf += p.occurrences();
            if !prev.is_some_and(|q| q.same_doc(p)) {
                stats.df += 1;
            }
            prev = Some(p);
        }
        stats
    }

    /// The read view over the list.
    pub fn postings(&self) -> Postings<'_, P> {
        Postings {
            list: &self.entries,
        }
    }

    /// Heap bytes held by the posting payload.
    pub fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<P>()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// By-value iterator over a [`Postings`] view, in sort order.
pub type PostingIter<'a, P> = std::iter::Copied<std::slice::Iter<'a, P>>;

/// The read view lookups hand out: a `Copy` handle on one term's sorted
/// posting slice, with the conveniences callers need (`len`, `iter`,
/// `cursor`, probes).
#[derive(Debug)]
pub struct Postings<'a, P> {
    list: &'a [P],
}

impl<P> Clone for Postings<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for Postings<'_, P> {}

impl<'a, P: Posting> Postings<'a, P> {
    /// The empty view (absent term).
    pub fn empty() -> Self {
        Postings { list: &[] }
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    pub fn iter(&self) -> PostingIter<'a, P> {
        self.list.iter().copied()
    }

    /// A cursor positioned at the first posting.
    pub fn cursor(&self) -> PostingCursor<'a, P> {
        PostingCursor {
            list: self.list,
            pos: 0,
        }
    }

    pub fn first(&self) -> Option<P> {
        self.list.first().copied()
    }

    pub fn to_vec(&self) -> Vec<P> {
        self.list.to_vec()
    }

    /// The postings themselves, in sort order.
    pub fn as_slice(&self) -> &'a [P] {
        self.list
    }
}

impl<'a, P: Posting + Ord> Postings<'a, P> {
    /// Smallest posting `≥ v` — the *rm* probe.
    pub fn right_match(&self, v: P) -> Option<P> {
        kernels::right_match(self.list, v)
    }

    /// Largest posting `≤ v` — the *lm* probe.
    pub fn left_match(&self, v: P) -> Option<P> {
        kernels::left_match(self.list, v)
    }

    /// Binary-search membership probe.
    pub fn contains(&self, v: &P) -> bool {
        kernels::contains(self.list, v)
    }

    /// The postings in the half-open range `[lo, hi)`.
    fn between(&self, lo: P, hi: P) -> &'a [P] {
        let from = &self.list[self.list.partition_point(|p| *p < lo)..];
        &from[..from.partition_point(|p| *p < hi)]
    }

    /// Number of postings in the half-open range `[lo, hi)`.
    pub fn count_between(&self, lo: P, hi: P) -> usize {
        self.between(lo, hi).len()
    }

    /// Postings in the half-open range `[lo, hi)`, in order.
    pub fn collect_between(&self, lo: P, hi: P) -> Vec<P> {
        self.between(lo, hi).to_vec()
    }

    /// Intersect with a sorted slice into a caller-provided buffer
    /// (cleared first), set semantics.
    pub fn intersect_sorted_into(&self, other: &[P], out: &mut Vec<P>) {
        kernels::intersect_into(self.list, other, out);
    }
}

impl<'a, P: Posting> IntoIterator for Postings<'a, P> {
    type Item = P;
    type IntoIter = PostingIter<'a, P>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, P: Posting> IntoIterator for &Postings<'a, P> {
    type Item = P;
    type IntoIter = PostingIter<'a, P>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<P: PartialEq> PartialEq for Postings<'_, P> {
    fn eq(&self, other: &Self) -> bool {
        self.list == other.list
    }
}

impl<P: PartialEq> PartialEq<[P]> for Postings<'_, P> {
    fn eq(&self, other: &[P]) -> bool {
        self.list == other
    }
}

impl<P: PartialEq> PartialEq<&[P]> for Postings<'_, P> {
    fn eq(&self, other: &&[P]) -> bool {
        self.list == *other
    }
}

impl<P: PartialEq, const N: usize> PartialEq<[P; N]> for Postings<'_, P> {
    fn eq(&self, other: &[P; N]) -> bool {
        self.list == other.as_slice()
    }
}

impl<P: PartialEq, const N: usize> PartialEq<&[P; N]> for Postings<'_, P> {
    fn eq(&self, other: &&[P; N]) -> bool {
        self.list == other.as_slice()
    }
}

impl<P: PartialEq> PartialEq<Vec<P>> for Postings<'_, P> {
    fn eq(&self, other: &Vec<P>) -> bool {
        self.list == other.as_slice()
    }
}

/// Cursor over one posting list: `peek`/`advance` for linear scans,
/// `seek(key)` with galloping for intersections.
#[derive(Debug, Clone)]
pub struct PostingCursor<'a, P> {
    list: &'a [P],
    pos: usize,
}

impl<P: Posting> PostingCursor<'_, P> {
    /// The posting under the cursor (`None` once exhausted).
    #[inline]
    pub fn peek(&self) -> Option<P> {
        self.list.get(self.pos).copied()
    }

    /// Step to the next posting.
    #[inline]
    pub fn advance(&mut self) {
        if self.pos < self.list.len() {
            self.pos += 1;
        }
    }

    /// Return the current posting and step past it. A cursor is not an
    /// `Iterator` on purpose: `seek` invalidates the "every element exactly
    /// once" contract iteration adapters assume.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<P> {
        let p = self.peek();
        self.advance();
        p
    }

    /// Position the cursor at the first posting with `key64() ≥ key` and
    /// return it. Gallops: `O(log d)` in the distance. Never moves
    /// backwards.
    pub fn seek(&mut self, key: u64) -> Option<P> {
        self.pos = kernels::gallop_by(self.list, self.pos, |p| p.key64() >= key);
        self.peek()
    }

    /// Whether the cursor has run off the end of the list.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.peek().is_none()
    }

    /// The posting just before the cursor: the largest posting it has
    /// passed (the list's last once exhausted), `None` at the front. After
    /// `seek(key)` it is the largest posting with `key64 < key` — with
    /// `peek`, both neighbours of `key` (the *lm*/*rm* pair) from one
    /// galloping seek.
    pub fn prev(&self) -> Option<P> {
        self.pos.checked_sub(1).map(|i| self.list[i])
    }
}

#[cfg(test)]
mod tests {
    use super::super::TermIndex;
    use super::*;

    /// Node-id-like posting: key64 is the id itself.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Id(u32);

    impl Posting for Id {
        type SortKey = u32;
        fn sort_key(&self) -> u32 {
            self.0
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

    fn list(ids: &[u32]) -> PostingList<Id> {
        let mut l = PostingList::default();
        for &i in ids {
            l.insert_coalesce(Id(i));
        }
        l
    }

    #[test]
    fn list_probes_work_on_ord_postings() {
        let l = list(&[9, 2, 5, 5]);
        let view = l.postings();
        assert_eq!(view, [Id(2), Id(5), Id(9)], "sorted, deduplicated");
        assert_eq!(view.right_match(Id(6)), Some(Id(9)));
        assert_eq!(view.left_match(Id(6)), Some(Id(5)));
        assert!(view.contains(&Id(5)) && !view.contains(&Id(6)));
        assert_eq!(view.count_between(Id(2), Id(9)), 2);
        assert_eq!(view.collect_between(Id(3), Id(10)), vec![Id(5), Id(9)]);
        let mut out = vec![Id(0)];
        view.intersect_sorted_into(&[Id(1), Id(5), Id(9)], &mut out);
        assert_eq!(out, vec![Id(5), Id(9)]);
    }

    /// One seeking cursor answers both probes at every key: after
    /// `seek(v)`, `peek` is `right_match(v)` and `prev` is
    /// `left_match(v - 1)`, and `left_match` equals a linear scan.
    #[test]
    fn cursor_prev_and_peek_answer_lm_and_rm_at_every_key() {
        let mut x = 0x9e37_79b9_u64;
        let mut next = move |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut ix: TermIndex<Id> = TermIndex::new();
        for i in (0..3000u32).filter(|_| next(3) == 0) {
            ix.add("t", Id(i));
        }
        let view = ix.postings_str("t");
        let live = view.to_vec();
        let mut cursor = view.cursor();
        let mut passed = 0;
        for v in 0..3100u32 {
            let rm = cursor.seek(v as u64);
            assert_eq!(rm, view.right_match(Id(v)), "rm {v}");
            let lm = if rm == Some(Id(v)) { rm } else { cursor.prev() };
            assert_eq!(lm, view.left_match(Id(v)), "lm {v}");
            let below = v.checked_sub(1).and_then(|u| view.left_match(Id(u)));
            assert_eq!(cursor.prev(), below, "prev {v}");
            while live.get(passed).is_some_and(|&p| p <= Id(v)) {
                passed += 1;
            }
            let scan = passed.checked_sub(1).map(|i| live[i]);
            assert_eq!(view.left_match(Id(v)), scan, "scan {v}");
        }
        assert!(cursor.is_exhausted());
        assert_eq!(cursor.prev(), live.last().copied(), "exhausted");
    }

    #[test]
    fn cursor_seeks_and_exhausts() {
        let l = list(&[3, 9, 12]);
        let mut c = l.postings().cursor();
        assert_eq!(c.seek(9), Some(Id(9)));
        c.advance();
        c.advance();
        assert!(c.is_exhausted());
        assert_eq!(c.seek(0), None, "a cursor never moves backwards");
    }

    #[test]
    fn remove_key_drains_one_key_and_nothing_else() {
        let mut l = list(&[1, 4, 7]);
        assert_eq!(l.remove_key(4), 1);
        assert_eq!(l.remove_key(4), 0, "already gone");
        assert_eq!(l.remove_key(99), 0);
        assert_eq!(l.postings(), [Id(1), Id(7)]);
        assert_eq!(l.stats(), TermStats { df: 2, total_tf: 2 });
    }
}
