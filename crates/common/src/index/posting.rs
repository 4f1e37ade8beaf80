//! Generic sorted posting storage with dense `Vec`-indexed-by-`Sym` lookup,
//! behind a cursor-based access API.
//!
//! Callers read posting lists through three surfaces instead of raw
//! slices, so a view can merge segments and filter tombstones without
//! touching a single search algorithm:
//!
//! * [`Postings`] — a cheap `Copy` view handed out by lookups
//!   ([`SegmentedIndex::postings`](super::SegmentedIndex::postings)),
//!   supporting `len`/`iter`/probes;
//! * [`PostingList::iter`] — by-value iteration in sort order;
//! * [`PostingList::cursor`] — a [`PostingCursor`] with
//!   `peek`/`advance`/`seek(key)`, the shape the merge kernels consume.
//!
//! Every list is a sorted `Vec`: `seek` gallops over the slice, and the
//! probes are the slice [`kernels`]'s binary searches.

use super::kernels;
use super::segment::{TombstoneSet, MAX_SEGMENTS};
use std::time::Duration;

/// One entry of a posting list. Implemented by each substrate's posting
/// type (relational tuple occurrence, XML node, graph node).
pub trait Posting: Copy {
    /// Total order of the list: document order, `(table, row, column)`
    /// order, node-id order, …
    type SortKey: Ord;

    fn sort_key(&self) -> Self::SortKey;

    /// A 64-bit monotone image of [`sort_key`](Self::sort_key) order:
    /// `a.sort_key() ≤ b.sort_key() ⟹ a.key64() ≤ b.key64()`. Distinct
    /// postings may share a key (e.g. one tuple's occurrences in two
    /// columns); cursors `seek` and tombstones delete by this key.
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

/// Per-term statistics, computed once when a segment is sealed.
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

/// One term's sorted posting list.
///
/// The `lm`/`rm` binary probes the search algorithms need are methods
/// here, delegating to the shared slice [`kernels`], so every substrate
/// probes lists the same way.
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
    /// Wrap a vec that is not necessarily sorted; callers must
    /// [`finalize`](Self::finalize) before querying (segment merges do).
    pub(crate) fn from_unsorted(entries: Vec<P>) -> Self {
        PostingList { entries }
    }

    /// Insert `p` preserving sort order: the append/coalesce fast path when
    /// `p` is in order (the common case — batch builds and single-table
    /// ingest emit ascending keys), a binary-search insertion otherwise
    /// (interleaved-table ingest into a realtime segment).
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

    /// Drop postings failing the predicate (the tombstone purge of segment
    /// commit/merge).
    pub(crate) fn retain(&mut self, f: impl FnMut(&P) -> bool) {
        self.entries.retain(f);
    }

    /// Sort by [`Posting::sort_key`], coalesce duplicates, and compute the
    /// term's stats. Skips the sort when the list is already ordered (the
    /// common case for in-order builds).
    pub(crate) fn finalize(&mut self) -> TermStats {
        let entries = &mut self.entries;
        let sorted = entries
            .windows(2)
            .all(|w| w[0].sort_key() <= w[1].sort_key());
        if !sorted {
            entries.sort_by_key(|p| p.sort_key());
        }
        let mut merged: Vec<P> = Vec::with_capacity(entries.len());
        for p in entries.drain(..) {
            if let Some(last) = merged.last_mut() {
                if last.coalesce(&p) {
                    continue;
                }
            }
            merged.push(p);
        }
        merged.shrink_to_fit();
        *entries = merged;
        self.stats()
    }

    /// Compute stats by scanning the (sorted) list.
    pub(crate) fn stats(&self) -> TermStats {
        let mut stats = TermStats::default();
        let mut prev: Option<P> = None;
        for p in self.iter() {
            stats.total_tf += p.occurrences();
            if !prev.is_some_and(|q| q.same_doc(&p)) {
                stats.df += 1;
            }
            prev = Some(p);
        }
        stats
    }

    /// By-value iteration in sort order.
    pub fn iter(&self) -> PostingIter<'_, P> {
        PostingIter {
            inner: IterRepr::Slice(self.entries.iter()),
        }
    }

    /// A cursor positioned at the first posting.
    pub fn cursor(&self) -> PostingCursor<'_, P> {
        PostingCursor {
            inner: CursorRepr::Slice {
                list: &self.entries,
                pos: 0,
            },
        }
    }

    /// Copy the list into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<P> {
        self.entries.clone()
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

    /// The first posting, if any.
    pub fn first(&self) -> Option<P> {
        self.entries.first().copied()
    }
}

impl<P: Posting + Ord> PostingList<P> {
    /// Smallest posting `≥ v` — the *rm* probe.
    pub fn right_match(&self, v: P) -> Option<P> {
        kernels::right_match(&self.entries, v)
    }

    /// Largest posting `≤ v` — the *lm* probe.
    pub fn left_match(&self, v: P) -> Option<P> {
        kernels::left_match(&self.entries, v)
    }

    /// Binary-search membership probe.
    pub fn contains(&self, v: &P) -> bool {
        kernels::contains(&self.entries, v)
    }
}

/// By-value iterator over a [`PostingList`] or a merged [`Postings`] view.
#[derive(Debug, Clone)]
pub struct PostingIter<'a, P: Posting> {
    inner: IterRepr<'a, P>,
}

#[derive(Debug, Clone)]
enum IterRepr<'a, P: Posting> {
    Slice(std::slice::Iter<'a, P>),
    Multi(Box<MultiIter<'a, P>>),
}

impl<P: Posting> Iterator for PostingIter<'_, P> {
    type Item = P;

    #[inline]
    fn next(&mut self) -> Option<P> {
        match &mut self.inner {
            IterRepr::Slice(it) => it.next().copied(),
            IterRepr::Multi(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            IterRepr::Slice(it) => it.size_hint(),
            IterRepr::Multi(it) => it.size_hint(),
        }
    }
}

impl<P: Posting> ExactSizeIterator for PostingIter<'_, P> {}

/// K-way merge over per-segment posting iterators, filtering tombstoned
/// keys. Segments are document-disjoint, so a linear min-scan over ≤
/// [`MAX_SEGMENTS`] heads needs no cross-segment coalescing; the exact
/// remaining count (for `ExactSizeIterator`) is taken from the view up
/// front.
#[derive(Debug, Clone)]
struct MultiIter<'a, P: Posting> {
    children: Vec<PostingIter<'a, P>>,
    heads: Vec<Option<P>>,
    tomb: Option<&'a TombstoneSet>,
    remaining: usize,
}

impl<'a, P: Posting> MultiIter<'a, P> {
    fn new(view: &Postings<'a, P>) -> Self {
        let mut children: Vec<PostingIter<'a, P>> = view.children().map(|l| l.iter()).collect();
        let tomb = view.tomb;
        let heads = children.iter_mut().map(|c| Self::pull(c, tomb)).collect();
        MultiIter {
            children,
            heads,
            tomb,
            remaining: view.len(),
        }
    }

    /// Next non-tombstoned posting of one child.
    fn pull(child: &mut PostingIter<'a, P>, tomb: Option<&TombstoneSet>) -> Option<P> {
        child.find(|p| !tomb.is_some_and(|t| t.contains(p.key64())))
    }
}

impl<P: Posting> Iterator for MultiIter<'_, P> {
    type Item = P;

    fn next(&mut self) -> Option<P> {
        let mut best: Option<(usize, P)> = None;
        for (i, h) in self.heads.iter().enumerate() {
            let Some(p) = *h else { continue };
            if best.is_none_or(|(_, b)| p.sort_key() < b.sort_key()) {
                best = Some((i, p));
            }
        }
        let (i, p) = best?;
        self.heads[i] = Self::pull(&mut self.children[i], self.tomb);
        self.remaining -= 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// The read view lookups hand out: a cheap `Copy` handle on a term's
/// posting lists — one per live segment, plus the index's tombstone set —
/// with the slice-like conveniences callers actually need (`len`, `iter`,
/// `cursor`, probes).
///
/// A [`SegmentedIndex`](super::segment::SegmentedIndex) hands out views
/// merging up to [`MAX_SEGMENTS`] document-disjoint sorted lists with
/// tombstoned keys filtered out. A single-list tombstone-free view (what a
/// batch-built index hands out) goes straight to the list's own iterator,
/// cursor and probes, so static indexes pay nothing for the generality.
#[derive(Debug)]
pub struct Postings<'a, P> {
    lists: [Option<&'a PostingList<P>>; MAX_SEGMENTS],
    n: u8,
    tomb: Option<&'a TombstoneSet>,
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
        Postings {
            lists: [None; MAX_SEGMENTS],
            n: 0,
            tomb: None,
        }
    }

    /// A view over up to [`MAX_SEGMENTS`] document-disjoint sorted lists,
    /// filtering postings whose [`Posting::key64`] is tombstoned. Empty
    /// lists are skipped.
    pub(crate) fn from_segments<I>(segments: I, tomb: Option<&'a TombstoneSet>) -> Self
    where
        I: IntoIterator<Item = &'a PostingList<P>>,
    {
        let mut v = Postings {
            lists: [None; MAX_SEGMENTS],
            n: 0,
            tomb: tomb.filter(|t| !t.is_empty()),
        };
        for l in segments {
            if l.is_empty() {
                continue;
            }
            assert!(
                (v.n as usize) < MAX_SEGMENTS,
                "posting view over more than MAX_SEGMENTS segments"
            );
            v.lists[v.n as usize] = Some(l);
            v.n += 1;
        }
        v
    }

    /// The sole backing list when this is a plain single-list view (one
    /// segment, no tombstones) — the fast path every method dispatches on.
    fn single(&self) -> Option<&'a PostingList<P>> {
        if self.n == 1 && self.tomb.is_none() {
            self.lists[0]
        } else {
            None
        }
    }

    /// The populated segment lists.
    fn children(&self) -> impl Iterator<Item = &'a PostingList<P>> + '_ {
        self.lists[..self.n as usize]
            .iter()
            .map(|l| l.expect("populated segment slot"))
    }

    /// Live postings in the view (tombstoned postings excluded, which makes
    /// this O(n) while tombstones are outstanding).
    pub fn len(&self) -> usize {
        match self.tomb {
            None => self.children().map(|l| l.len()).sum(),
            Some(t) => self
                .children()
                .map(|l| l.iter().filter(|p| !t.contains(p.key64())).count())
                .sum(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn iter(&self) -> PostingIter<'a, P> {
        if let Some(l) = self.single() {
            return l.iter();
        }
        if self.n == 0 {
            return PostingIter {
                inner: IterRepr::Slice([].iter()),
            };
        }
        PostingIter {
            inner: IterRepr::Multi(Box::new(MultiIter::new(self))),
        }
    }

    pub fn cursor(&self) -> PostingCursor<'a, P> {
        if let Some(l) = self.single() {
            return l.cursor();
        }
        if self.n == 0 {
            return PostingCursor {
                inner: CursorRepr::Slice { list: &[], pos: 0 },
            };
        }
        PostingCursor {
            inner: CursorRepr::Multi(Box::new(MultiCursor::new(self))),
        }
    }

    pub fn first(&self) -> Option<P> {
        self.iter().next()
    }

    pub fn to_vec(&self) -> Vec<P> {
        if let Some(l) = self.single() {
            return l.to_vec();
        }
        self.iter().collect()
    }
}

impl<'a, P: Posting + Ord> Postings<'a, P> {
    /// Smallest posting `≥ v` — the *rm* probe.
    pub fn right_match(&self, v: P) -> Option<P> {
        if let Some(l) = self.single() {
            return l.right_match(v);
        }
        let mut c = self.cursor();
        c.seek(v.key64());
        // key64 may be non-injective: postings sharing v's key can still
        // order below it, so scan the key group forward.
        while let Some(p) = c.peek() {
            if p >= v {
                return Some(p);
            }
            c.advance();
        }
        None
    }

    /// Largest posting `≤ v` — the *lm* probe. Across segments: seek past
    /// every posting `≤ v`, then read the merged cursor's predecessor (the
    /// largest live one each segment passed).
    pub fn left_match(&self, v: P) -> Option<P> {
        if let Some(l) = self.single() {
            return l.left_match(v);
        }
        let mut c = self.cursor();
        c.seek(v.key64());
        // key64 may be non-injective: step over v's key group up to v
        while c.peek().is_some_and(|p| p <= v) {
            c.advance();
        }
        c.prev()
    }

    pub fn contains(&self, v: &P) -> bool {
        if let Some(l) = self.single() {
            return l.contains(v);
        }
        let mut c = self.cursor();
        c.seek(v.key64());
        while let Some(p) = c.peek() {
            if p == *v {
                return true;
            }
            if p > *v {
                return false;
            }
            c.advance();
        }
        false
    }

    /// Number of postings in the half-open range `[lo, hi)`.
    pub fn count_between(&self, lo: P, hi: P) -> usize {
        let mut c = self.cursor();
        c.seek(lo.key64());
        let mut n = 0usize;
        while let Some(p) = c.next() {
            if p >= hi {
                break;
            }
            if p >= lo {
                n += 1;
            }
        }
        n
    }

    /// Postings in the half-open range `[lo, hi)`, decoded in order.
    pub fn collect_between(&self, lo: P, hi: P) -> Vec<P> {
        let mut c = self.cursor();
        c.seek(lo.key64());
        let mut out = Vec::new();
        while let Some(p) = c.next() {
            if p >= hi {
                break;
            }
            if p >= lo {
                out.push(p);
            }
        }
        out
    }

    /// Intersect with a sorted slice into a caller-provided buffer
    /// (cleared first): galloping cursor-vs-slice merge, set semantics.
    pub fn intersect_sorted_into(&self, other: &[P], out: &mut Vec<P>) {
        out.clear();
        if self.is_empty() {
            return;
        }
        let mut c = self.cursor();
        let mut j = 0usize;
        while let Some(x) = c.peek() {
            j = kernels::gallop_by(other, j, |y| *y >= x);
            let Some(&y) = other.get(j) else { break };
            if y == x {
                if out.last() != Some(&x) {
                    out.push(x);
                }
                c.advance();
            } else {
                // y > x: jump the cursor forward to y's key neighborhood.
                c.seek(y.key64());
                while c.peek().is_some_and(|p| p < y) {
                    c.advance();
                }
            }
        }
    }
}

impl<'a, P: Posting> From<&'a PostingList<P>> for Postings<'a, P> {
    fn from(list: &'a PostingList<P>) -> Self {
        let mut lists = [None; MAX_SEGMENTS];
        lists[0] = Some(list);
        Postings {
            lists,
            n: 1,
            tomb: None,
        }
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

impl<P: Posting + PartialEq> PartialEq for Postings<'_, P> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<P: Posting + PartialEq> PartialEq<[P]> for Postings<'_, P> {
    fn eq(&self, other: &[P]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl<P: Posting + PartialEq> PartialEq<&[P]> for Postings<'_, P> {
    fn eq(&self, other: &&[P]) -> bool {
        self == *other
    }
}

impl<P: Posting + PartialEq, const N: usize> PartialEq<[P; N]> for Postings<'_, P> {
    fn eq(&self, other: &[P; N]) -> bool {
        self == other.as_slice()
    }
}

impl<P: Posting + PartialEq, const N: usize> PartialEq<&[P; N]> for Postings<'_, P> {
    fn eq(&self, other: &&[P; N]) -> bool {
        self == other.as_slice()
    }
}

impl<P: Posting + PartialEq> PartialEq<Vec<P>> for Postings<'_, P> {
    fn eq(&self, other: &Vec<P>) -> bool {
        self == other.as_slice()
    }
}

/// Cursor over one posting list or a merged view: `peek`/`advance` for
/// linear scans, `seek(key)` with galloping for intersections.
#[derive(Debug, Clone)]
pub struct PostingCursor<'a, P: Posting> {
    inner: CursorRepr<'a, P>,
}

#[derive(Debug, Clone)]
enum CursorRepr<'a, P: Posting> {
    Slice { list: &'a [P], pos: usize },
    Multi(Box<MultiCursor<'a, P>>),
}

/// K-way merged cursor over per-segment cursors, filtering tombstoned
/// keys. Keeps the full cursor contract: `peek`/`advance`/`next` walk the
/// merged sort order, `seek(key)` seeks every child (each gallops
/// independently).
#[derive(Debug, Clone)]
struct MultiCursor<'a, P: Posting> {
    children: Vec<PostingCursor<'a, P>>,
    tomb: Option<&'a TombstoneSet>,
    /// Cached `(child index, posting)` of the current minimum; the child's
    /// own cursor still has the posting under its head (it is consumed on
    /// `advance`).
    cur: Option<(usize, P)>,
}

impl<'a, P: Posting> MultiCursor<'a, P> {
    fn new(view: &Postings<'a, P>) -> Self {
        let mut c = MultiCursor {
            children: view.children().map(|l| l.cursor()).collect(),
            tomb: view.tomb,
            cur: None,
        };
        c.normalize();
        c
    }

    /// Re-derive the current minimum across children, advancing past
    /// tombstoned keys.
    fn normalize(&mut self) {
        loop {
            let mut best: Option<(usize, P)> = None;
            for (i, c) in self.children.iter().enumerate() {
                let Some(p) = c.peek() else { continue };
                if best.is_none_or(|(_, b)| p.sort_key() < b.sort_key()) {
                    best = Some((i, p));
                }
            }
            let Some((i, p)) = best else {
                self.cur = None;
                return;
            };
            if self.tomb.is_some_and(|t| t.contains(p.key64())) {
                self.children[i].advance();
                continue;
            }
            self.cur = Some((i, p));
            return;
        }
    }
}

impl<P: Posting> PostingCursor<'_, P> {
    /// The posting under the cursor (`None` once exhausted).
    #[inline]
    pub fn peek(&self) -> Option<P> {
        match &self.inner {
            CursorRepr::Slice { list, pos } => list.get(*pos).copied(),
            CursorRepr::Multi(m) => m.cur.map(|(_, p)| p),
        }
    }

    /// Step to the next posting.
    #[inline]
    pub fn advance(&mut self) {
        match &mut self.inner {
            CursorRepr::Slice { list, pos } => {
                if *pos < list.len() {
                    *pos += 1;
                }
            }
            CursorRepr::Multi(m) => {
                if let Some((i, _)) = m.cur {
                    m.children[i].advance();
                    m.normalize();
                }
            }
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
        match &mut self.inner {
            CursorRepr::Slice { list, pos } => {
                *pos = kernels::gallop_by(list, *pos, |p| p.key64() >= key);
                list.get(*pos).copied()
            }
            CursorRepr::Multi(m) => {
                for c in &mut m.children {
                    c.seek(key);
                }
                m.normalize();
                m.cur.map(|(_, p)| p)
            }
        }
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
    /// galloping seek. A single list reads one slot; merged views take the
    /// largest live predecessor over their segments.
    pub fn prev(&self) -> Option<P> {
        match &self.inner {
            CursorRepr::Slice { list, pos } => pos.checked_sub(1).map(|i| list[i]),
            _ => self.prev_where(&|_: &P| true),
        }
    }

    fn prev_where(&self, keep: &dyn Fn(&P) -> bool) -> Option<P> {
        match &self.inner {
            CursorRepr::Slice { list, pos } => list[..*pos].iter().rev().copied().find(|p| keep(p)),
            CursorRepr::Multi(m) => {
                let live = |p: &P| keep(p) && !m.tomb.is_some_and(|t| t.contains(p.key64()));
                // every segment's passed postings precede the merged head
                m.children
                    .iter()
                    .filter_map(|c| c.prev_where(&live))
                    .max_by_key(|p| p.sort_key())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::SegmentedIndex;
    use super::*;

    /// Test posting: (doc, slot, tf) — coalesces on equal (doc, slot).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Occ {
        doc: u32,
        slot: u32,
        tf: u32,
    }

    impl Posting for Occ {
        type SortKey = (u32, u32);
        fn sort_key(&self) -> (u32, u32) {
            (self.doc, self.slot)
        }
        fn key64(&self) -> u64 {
            ((self.doc as u64) << 32) | self.slot as u64
        }
        fn coalesce(&mut self, other: &Self) -> bool {
            if self.doc == other.doc && self.slot == other.slot {
                self.tf += other.tf;
                true
            } else {
                false
            }
        }
        fn occurrences(&self) -> u64 {
            self.tf as u64
        }
        fn same_doc(&self, other: &Self) -> bool {
            self.doc == other.doc
        }
    }

    fn occ(doc: u32, slot: u32) -> Occ {
        Occ { doc, slot, tf: 1 }
    }

    #[test]
    fn build_finalize_query() {
        let mut ix: SegmentedIndex<Occ> = SegmentedIndex::new();
        ix.add("xml", occ(2, 0));
        ix.add("xml", occ(2, 0)); // duplicate → coalesced, tf 2
        ix.add("xml", occ(0, 1)); // out of order → sorted on insert
        ix.add("db", occ(1, 0));
        ix.finalize();
        let x = ix.sym("xml").unwrap();
        assert_eq!(
            ix.postings(x),
            &[
                occ(0, 1),
                Occ {
                    doc: 2,
                    slot: 0,
                    tf: 2
                }
            ]
        );
        assert_eq!(ix.term_stats(x), TermStats { df: 2, total_tf: 3 });
        assert_eq!(ix.term_count(), 2);
        assert_eq!(ix.posting_count(), 3);
        assert!(ix.sym("nope").is_none());
        assert!(ix.postings_str("nope").is_empty());
    }

    #[test]
    fn unsealed_index_is_queryable() {
        let mut ix: SegmentedIndex<Occ> = SegmentedIndex::new();
        ix.add("a", occ(0, 0));
        ix.add("a", occ(1, 0));
        ix.add("a", occ(1, 0));
        let a = ix.sym("a").unwrap();
        assert_eq!(ix.postings(a).len(), 2, "adjacent duplicate coalesced");
        assert_eq!(ix.term_stats(a), TermStats { df: 2, total_tf: 3 });
    }

    #[test]
    fn finalize_is_idempotent_and_stats_cached() {
        let mut ix: SegmentedIndex<Occ> = SegmentedIndex::new();
        ix.add("t", occ(5, 0));
        ix.add("t", occ(3, 0));
        ix.finalize();
        let before: Vec<_> = ix.postings(ix.sym("t").unwrap()).to_vec();
        ix.finalize();
        assert_eq!(ix.postings(ix.sym("t").unwrap()), before);
        let stats = ix.index_stats();
        assert_eq!(stats.terms, 1);
        assert_eq!(stats.postings, 2);
        assert_eq!(stats.posting_bytes, 2 * std::mem::size_of::<Occ>());
    }

    #[test]
    fn list_probes_work_on_ord_postings() {
        // NodeId-like posting: plain u32 wrapper
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct N(u32);
        impl Posting for N {
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
        let mut l = PostingList::from_unsorted(vec![N(2), N(5), N(9)]);
        l.finalize();
        assert_eq!(l.right_match(N(6)), Some(N(9)));
        assert_eq!(l.left_match(N(6)), Some(N(5)));
        assert!(l.contains(&N(5)) && !l.contains(&N(6)));
    }

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

    /// One seeking cursor answers both probes at every key: after
    /// `seek(v)`, `peek` is `right_match(v)` and `prev` is
    /// `left_match(v - 1)` — on a single list and on merged views with
    /// tombstones, whose `left_match` must also equal a linear scan.
    #[test]
    fn cursor_prev_and_peek_answer_lm_and_rm_at_every_key() {
        let mut x = 0x9e37_79b9_u64;
        let mut next = move |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let ids: Vec<Id> = (0..3000u32).filter(|_| next(3) == 0).map(Id).collect();
        let mut single: SegmentedIndex<Id> = SegmentedIndex::new();
        for &p in &ids {
            single.add("t", p);
        }
        single.finalize();
        // the same ids spread over sealed segments and the realtime one,
        // with tombstones in each
        let mut segmented: SegmentedIndex<Id> = SegmentedIndex::new();
        for (i, &p) in ids.iter().enumerate() {
            segmented.add("t", p);
            if i % 250 == 249 && next(2) == 0 {
                segmented.commit();
            }
        }
        for &p in &ids {
            if next(7) == 0 {
                segmented.delete_key(p.key64());
            }
        }
        assert!(segmented.segment_counts().sealed > 1 && !segmented.tombstones().is_empty());
        for (name, ix) in [("single", &single), ("segmented", &segmented)] {
            let view = ix.postings_str("t");
            let live = view.to_vec();
            let mut cursor = view.cursor();
            let mut passed = 0;
            for v in 0..3100u32 {
                let rm = cursor.seek(v as u64);
                assert_eq!(rm, view.right_match(Id(v)), "{name} rm {v}");
                let lm = if rm == Some(Id(v)) { rm } else { cursor.prev() };
                assert_eq!(lm, view.left_match(Id(v)), "{name} lm {v}");
                let below = v.checked_sub(1).and_then(|u| view.left_match(Id(u)));
                assert_eq!(cursor.prev(), below, "{name} prev {v}");
                while live.get(passed).is_some_and(|&p| p <= Id(v)) {
                    passed += 1;
                }
                let scan = passed.checked_sub(1).map(|i| live[i]);
                assert_eq!(view.left_match(Id(v)), scan, "{name} scan {v}");
            }
            assert!(cursor.is_exhausted());
            assert_eq!(cursor.prev(), live.last().copied(), "{name} exhausted");
        }
    }

    #[test]
    fn cursor_seeks_and_exhausts() {
        let mut l = PostingList::from_unsorted(vec![occ(3, 0), occ(9, 0), occ(12, 0)]);
        l.finalize();
        let mut c = l.cursor();
        assert_eq!(c.seek(occ(9, 0).key64()), Some(occ(9, 0)));
        c.advance();
        c.advance();
        assert!(c.is_exhausted());
        assert_eq!(c.seek(0), None, "a cursor never moves backwards");
    }
}
