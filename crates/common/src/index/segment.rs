//! Generational segment storage: one mutable **realtime** segment plus
//! immutable **sealed** segments, searched together behind the ordinary
//! [`Postings`]/cursor API.
//!
//! A [`SegmentedIndex`] accumulates new postings in an always-sorted
//! realtime segment (binary insertion on out-of-order keys) that is queried
//! alongside the sealed segments through a k-way merge view — a kernel that
//! consumes cursors (`intersect_cursors`) or a caller that iterates a view
//! (the relational tuple-set build) works across segments unchanged, because
//! the merged cursor and iterator keep the single-list contract. A batch
//! build is the degenerate case: add everything, then
//! [`finalize`](SegmentedIndex::finalize) into one sealed segment.
//!
//! Lifecycle:
//!
//! * [`add`](SegmentedIndex::add) inserts into the realtime segment;
//! * [`delete_key`](SegmentedIndex::delete_key) tombstones a document key —
//!   cursors and iterators filter tombstoned postings immediately, in every
//!   segment;
//! * [`commit`](SegmentedIndex::commit) seals the realtime segment into an
//!   immutable segment (tombstoned postings are dropped at seal time),
//!   folding the two smallest sealed segments together whenever sealing
//!   would exceed [`MAX_SEGMENTS`]`- 1` sealed segments;
//! * [`merge`](SegmentedIndex::merge) is the full compaction: all sealed
//!   segments become one, tombstoned postings are purged everywhere
//!   (including the realtime segment), the tombstone set is cleared, and
//!   per-term [`TermStats`] are re-aggregated exactly.
//!
//! Invariant the statistics lean on: a document is ingested atomically into
//! exactly one segment, so segments are **document-disjoint** and per-term
//! `df`/`total_tf` sum exactly across segments. Between a delete and the
//! next `merge`, summed stats are upper bounds (the tombstoned document is
//! invisible to cursors but still counted in sealed-segment stats).

use super::dict::TermDict;
use super::posting::{IndexStats, Posting, PostingList, Postings, TermStats};
use crate::intern::Sym;
use std::collections::HashSet;

/// Maximum segments a term's postings may span: one realtime plus up to
/// `MAX_SEGMENTS - 1` sealed. [`SegmentedIndex::commit`] folds the two
/// smallest sealed segments together whenever sealing would exceed the cap,
/// so the [`Postings`] view can hold its segment references inline and stay
/// `Copy`.
pub const MAX_SEGMENTS: usize = 8;

/// The deleted-document set, keyed by [`Posting::key64`].
///
/// Deleting a key hides **every** posting whose `key64` equals it, in every
/// segment — for document-granular postings (a relational tuple's
/// occurrences all share one `(table, row)` key) one insert deletes the
/// whole document. Keys are never reused by ingest (rows are append-only),
/// so a tombstone can outlive many commits until a `merge` purges it.
#[derive(Debug, Clone, Default)]
pub struct TombstoneSet {
    dead: HashSet<u64>,
}

impl TombstoneSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Tombstone `key`; returns `false` when it was already dead.
    pub fn insert(&mut self, key: u64) -> bool {
        self.dead.insert(key)
    }

    pub fn contains(&self, key: u64) -> bool {
        self.dead.contains(&key)
    }

    pub fn len(&self) -> usize {
        self.dead.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dead.is_empty()
    }

    pub fn clear(&mut self) {
        self.dead.clear()
    }
}

/// Segment census of a [`SegmentedIndex`], for gauges and commit reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCounts {
    /// 1 while the realtime segment holds any postings, else 0.
    pub realtime: usize,
    /// Sealed (immutable) segments.
    pub sealed: usize,
}

impl SegmentCounts {
    /// Total segments a query currently merges over.
    pub fn total(&self) -> usize {
        self.realtime + self.sealed
    }
}

/// One immutable sealed segment: per-term lists indexed by the shared
/// dictionary's `Sym`s as of seal time (terms interned later simply have no
/// slot here), with stats cached per term.
#[derive(Debug, Clone)]
struct SealedSegment<P> {
    lists: Vec<PostingList<P>>,
    stats: Vec<TermStats>,
    postings: usize,
}

/// Term dictionary + generational posting segments — the index core all
/// three substrates store postings in: the query surface
/// (`sym`/`postings`/`term_stats`/`index_stats`) plus the mutation verbs
/// (`add`/`delete_key`/`commit`/`merge`).
#[derive(Debug, Clone)]
pub struct SegmentedIndex<P> {
    dict: TermDict,
    /// Realtime lists, indexed by `Sym`; always sorted (in-order appends
    /// are O(1), out-of-order inserts binary-search).
    realtime: Vec<PostingList<P>>,
    /// How many of `realtime`'s lists hold a posting, kept by the three
    /// places that change one (`add_sym`, `commit`, `merge`), so that
    /// [`segment_counts`](Self::segment_counts) — read by every sealed
    /// query's flight record — does not scan the vocabulary.
    realtime_lists: usize,
    sealed: Vec<SealedSegment<P>>,
    tomb: TombstoneSet,
    merges: u64,
}

impl<P> Default for SegmentedIndex<P> {
    fn default() -> Self {
        SegmentedIndex {
            dict: TermDict::new(),
            realtime: Vec::new(),
            realtime_lists: 0,
            sealed: Vec::new(),
            tomb: TombstoneSet::new(),
            merges: 0,
        }
    }
}

impl<P: Posting> SegmentedIndex<P> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `term` without adding a posting.
    pub fn intern(&mut self, term: &str) -> Sym {
        let sym = self.dict.intern(term);
        if sym.0 as usize >= self.realtime.len() {
            self.realtime.push(PostingList::default());
        }
        sym
    }

    /// Add one posting occurrence for `term` to the realtime segment.
    pub fn add(&mut self, term: &str, posting: P) -> Sym {
        let sym = self.intern(term);
        self.add_sym(sym, posting);
        sym
    }

    /// Add one posting occurrence for an already-interned term to the
    /// realtime segment, keeping the realtime list sorted.
    pub fn add_sym(&mut self, sym: Sym, posting: P) {
        while self.realtime.len() <= sym.0 as usize {
            self.realtime.push(PostingList::default());
        }
        let list = &mut self.realtime[sym.0 as usize];
        self.realtime_lists += usize::from(list.is_empty());
        list.insert_coalesce(posting);
    }

    /// Tombstone every posting whose [`Posting::key64`] equals `key`, in
    /// every segment including realtime. Effective immediately on all read
    /// paths; per-term stats become upper bounds until the next
    /// [`merge`](Self::merge). Returns `false` when the key was already
    /// dead.
    pub fn delete_key(&mut self, key: u64) -> bool {
        self.tomb.insert(key)
    }

    /// The current tombstone set.
    pub fn tombstones(&self) -> &TombstoneSet {
        &self.tomb
    }

    /// Seal the realtime segment into an immutable segment; tombstoned
    /// postings are dropped at seal time (their tombstones stay, covering
    /// older sealed segments). When sealing would leave more than
    /// [`MAX_SEGMENTS`]` - 1` sealed segments, the two smallest are folded
    /// together until the cap holds. No-op when the realtime segment is
    /// empty.
    pub fn commit(&mut self) -> SegmentCounts {
        if self.realtime_lists > 0 {
            self.realtime_lists = 0;
            let tomb = &self.tomb;
            let mut lists = Vec::with_capacity(self.realtime.len());
            let mut stats = Vec::with_capacity(self.realtime.len());
            let mut postings = 0usize;
            for l in &mut self.realtime {
                let mut sealed = std::mem::take(l);
                if !tomb.is_empty() {
                    sealed.retain(|p| !tomb.contains(p.key64()));
                }
                let st = sealed.finalize();
                postings += sealed.len();
                stats.push(st);
                lists.push(sealed);
            }
            if postings > 0 {
                self.sealed.push(SealedSegment {
                    lists,
                    stats,
                    postings,
                });
            }
        }
        while self.sealed.len() > MAX_SEGMENTS - 1 {
            self.merge_smallest_pair();
        }
        self.segment_counts()
    }

    /// Full compaction: fold every sealed segment into one, purge
    /// tombstoned postings from every segment (realtime included), clear
    /// the tombstone set, and re-aggregate exact per-term [`TermStats`].
    /// No-op (not counted as a merge) when there is nothing to compact.
    pub fn merge(&mut self) -> SegmentCounts {
        if self.sealed.len() <= 1 && self.tomb.is_empty() {
            return self.segment_counts();
        }
        let segments = std::mem::take(&mut self.sealed);
        if !segments.is_empty() {
            let merged = self.merge_segments(segments);
            if merged.postings > 0 {
                self.sealed.push(merged);
            }
        }
        if !self.tomb.is_empty() {
            let tomb = std::mem::take(&mut self.tomb);
            for l in &mut self.realtime {
                l.retain(|p| !tomb.contains(p.key64()));
            }
            self.realtime_lists = self.realtime.iter().filter(|l| !l.is_empty()).count();
        }
        self.merges += 1;
        self.segment_counts()
    }

    /// Fold the two sealed segments holding the fewest postings into one
    /// (background-style compaction step; tombstoned postings are purged
    /// from the pair as a side effect).
    fn merge_smallest_pair(&mut self) {
        debug_assert!(self.sealed.len() >= 2);
        let mut by_size: Vec<usize> = (0..self.sealed.len()).collect();
        by_size.sort_by_key(|&i| self.sealed[i].postings);
        let (a, b) = (by_size[0].min(by_size[1]), by_size[0].max(by_size[1]));
        let second = self.sealed.remove(b);
        let first = self.sealed.remove(a);
        let merged = self.merge_segments(vec![first, second]);
        self.sealed.push(merged);
        self.merges += 1;
    }

    /// Merge sealed segments into one: per-term k-way collect, sort,
    /// coalesce, tombstone purge, and exact stats recomputation.
    fn merge_segments(&self, segments: Vec<SealedSegment<P>>) -> SealedSegment<P> {
        let n_terms = segments.iter().map(|s| s.lists.len()).max().unwrap_or(0);
        let mut lists = Vec::with_capacity(n_terms);
        let mut stats = Vec::with_capacity(n_terms);
        let mut postings = 0usize;
        for i in 0..n_terms {
            let mut all: Vec<P> = Vec::new();
            for seg in &segments {
                if let Some(l) = seg.lists.get(i) {
                    all.extend(l.iter().filter(|p| !self.tomb.contains(p.key64())));
                }
            }
            let mut merged = PostingList::from_unsorted(all);
            let st = merged.finalize();
            postings += merged.len();
            stats.push(st);
            lists.push(merged);
        }
        SealedSegment {
            lists,
            stats,
            postings,
        }
    }

    /// Seal and fully compact — the batch-build epilogue. A freshly built
    /// index ends as exactly one sealed segment: every list sorted and
    /// coalesced, its stats cached.
    pub fn finalize(&mut self) {
        self.commit();
        self.merge();
    }

    /// Resolve a query term to its dense id — once per query term.
    pub fn sym(&self, term: &str) -> Option<Sym> {
        self.dict.lookup(term)
    }

    /// The postings of an interned term: a view merging the term's lists
    /// across every segment, with tombstoned postings filtered out. With
    /// one segment and no tombstones this is a single-list view.
    pub fn postings(&self, sym: Sym) -> Postings<'_, P> {
        let i = sym.0 as usize;
        let tomb = (!self.tomb.is_empty()).then_some(&self.tomb);
        Postings::from_segments(
            self.sealed
                .iter()
                .filter_map(|s| s.lists.get(i))
                .chain(self.realtime.get(i)),
            tomb,
        )
    }

    /// The postings of a term by string; the empty view if absent.
    pub fn postings_str(&self, term: &str) -> Postings<'_, P> {
        self.sym(term)
            .map(|s| self.postings(s))
            .unwrap_or_else(Postings::empty)
    }

    /// Per-term stats summed across segments. Exact while no tombstones
    /// are outstanding (segments are document-disjoint); an upper bound
    /// between a delete and the next [`merge`](Self::merge).
    pub fn term_stats(&self, sym: Sym) -> TermStats {
        let i = sym.0 as usize;
        let mut out = TermStats::default();
        for seg in &self.sealed {
            if let Some(st) = seg.stats.get(i) {
                out.df += st.df;
                out.total_tf += st.total_tf;
            }
        }
        if let Some(l) = self.realtime.get(i) {
            if !l.is_empty() {
                let st = l.stats();
                out.df += st.df;
                out.total_tf += st.total_tf;
            }
        }
        out
    }

    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Distinct terms indexed.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Total stored postings across all segments (tombstoned postings
    /// remain stored until a merge purges them).
    pub fn posting_count(&self) -> usize {
        self.sealed.iter().map(|s| s.postings).sum::<usize>()
            + self.realtime.iter().map(|l| l.len()).sum::<usize>()
    }

    /// All indexed terms, in id order.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.dict.terms()
    }

    /// Completed merge operations (pairwise folds and full compactions).
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Current segment census.
    pub fn segment_counts(&self) -> SegmentCounts {
        debug_assert_eq!(
            self.realtime_lists,
            self.realtime.iter().filter(|l| !l.is_empty()).count()
        );
        SegmentCounts {
            realtime: usize::from(self.realtime_lists > 0),
            sealed: self.sealed.len(),
        }
    }

    /// Whole-index size figures summed across segments.
    pub fn index_stats(&self) -> IndexStats {
        let bytes = self
            .sealed
            .iter()
            .flat_map(|s| &s.lists)
            .chain(&self.realtime)
            .map(|l| l.heap_bytes())
            .sum();
        IndexStats::new(self.term_count(), self.posting_count(), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test posting mirroring the relational shape: `(doc, slot, tf)`,
    /// coalescing on equal `(doc, slot)`, `key64` = doc (slot-blind) so one
    /// tombstone hides a whole document.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
            self.doc as u64
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

    /// Deterministic little generator so the tests cover out-of-order and
    /// multi-slot inserts without a rand dependency.
    fn doc_stream(n: u32, seed: u64) -> Vec<Occ> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                occ(i, (x >> 33) as u32 % 3)
            })
            .collect()
    }

    #[test]
    fn fresh_build_matches_sorted_coalesced_model() {
        // 500 documents, the first 50 occurring twice so coalescing has
        // work to do.
        let mut input = doc_stream(500, 7);
        input.extend_from_within(..50);
        // The model: sort by key, fold duplicate (doc, slot) occurrences.
        let mut sorted = input.clone();
        sorted.sort_by_key(|p| p.sort_key());
        let mut model: Vec<Occ> = Vec::new();
        for p in sorted {
            if !model.last_mut().is_some_and(|last| last.coalesce(&p)) {
                model.push(p);
            }
        }
        let stats = TermStats {
            df: 500, // one slot per document in `doc_stream`
            total_tf: input.len() as u64,
        };
        let mut seg: SegmentedIndex<Occ> = SegmentedIndex::new();
        for p in input.iter().rev() {
            seg.add("t", *p);
        }
        seg.finalize();
        let sym = seg.sym("t").unwrap();
        assert_eq!(seg.postings(sym).to_vec(), model);
        assert_eq!(seg.term_stats(sym), stats);
        assert_eq!(
            seg.segment_counts(),
            SegmentCounts {
                realtime: 0,
                sealed: 1
            }
        );
    }

    #[test]
    fn ingest_after_commit_equals_one_batch_build() {
        let all = doc_stream(800, 13);
        // build-once reference
        let mut once: SegmentedIndex<Occ> = SegmentedIndex::new();
        for p in &all {
            once.add("t", *p);
        }
        once.finalize();

        // build N, ingest M (out of order), commit
        let mut inc: SegmentedIndex<Occ> = SegmentedIndex::new();
        for p in &all[..500] {
            inc.add("t", *p);
        }
        inc.finalize();
        let mut tail: Vec<Occ> = all[500..].to_vec();
        tail.reverse(); // realtime must re-sort via binary insertion
        for p in tail {
            inc.add("t", p);
        }
        let sym = inc.sym("t").unwrap();
        let pre_commit = inc.postings(sym).to_vec();
        inc.commit();

        let o = once.sym("t").unwrap();
        assert_eq!(inc.postings(sym).to_vec(), once.postings(o).to_vec());
        assert_eq!(
            pre_commit,
            once.postings(o).to_vec(),
            "realtime already visible"
        );
        assert_eq!(inc.term_stats(sym), once.term_stats(o));
        assert_eq!(inc.posting_count(), once.posting_count());
        assert_eq!(inc.segment_counts().sealed, 2);
        inc.merge();
        assert_eq!(inc.segment_counts().sealed, 1);
        assert_eq!(inc.postings(sym).to_vec(), once.postings(o).to_vec());
        assert_eq!(inc.term_stats(sym), once.term_stats(o));
    }

    #[test]
    fn tombstones_filter_immediately_and_merge_purges() {
        let mut ix: SegmentedIndex<Occ> = SegmentedIndex::new();
        for p in doc_stream(300, 3) {
            ix.add("t", p);
        }
        ix.finalize();
        for doc in 300..320 {
            ix.add("t", occ(doc, 0));
        }
        let sym = ix.sym("t").unwrap();
        let full = ix.postings(sym).to_vec();

        // delete one sealed doc and one realtime doc
        assert!(ix.delete_key(100));
        assert!(ix.delete_key(310));
        assert!(!ix.delete_key(100), "double delete reports already-dead");
        let live: Vec<Occ> = full
            .iter()
            .copied()
            .filter(|p| p.doc != 100 && p.doc != 310)
            .collect();
        assert_eq!(ix.postings(sym).to_vec(), live, "iter filters tombstones");
        let mut c = ix.postings(sym).cursor();
        c.seek(100);
        assert_ne!(c.peek().unwrap().doc, 100, "cursor filters tombstones");
        assert_eq!(ix.postings(sym).len(), live.len());

        // stats are an upper bound until merge, exact after
        let naive_df = live
            .iter()
            .map(|p| p.doc)
            .collect::<std::collections::HashSet<_>>()
            .len() as u64;
        assert!(ix.term_stats(sym).df >= naive_df);
        let merges_before = ix.merges();
        ix.merge();
        assert_eq!(ix.merges(), merges_before + 1);
        assert!(ix.tombstones().is_empty());
        assert_eq!(ix.postings(sym).to_vec(), live);
        assert_eq!(
            ix.term_stats(sym).df,
            naive_df,
            "merge re-aggregates exactly"
        );
        let total: u64 = live.iter().map(|p| p.tf as u64).sum();
        assert_eq!(ix.term_stats(sym).total_tf, total);
    }

    #[test]
    fn commit_caps_sealed_segments_by_merging_smallest() {
        let mut ix: SegmentedIndex<Occ> = SegmentedIndex::new();
        let mut expect: Vec<Occ> = Vec::new();
        for round in 0..(2 * MAX_SEGMENTS as u32) {
            for d in 0..5 {
                let p = occ(round * 10 + d, 0);
                ix.add("t", p);
                expect.push(p);
            }
            ix.commit();
            assert!(
                ix.segment_counts().sealed < MAX_SEGMENTS,
                "cap violated: {:?}",
                ix.segment_counts()
            );
        }
        assert!(ix.merges() > 0, "cap enforcement actually merged");
        let sym = ix.sym("t").unwrap();
        assert_eq!(ix.postings(sym).to_vec(), expect);
        assert_eq!(ix.term_stats(sym).df, expect.len() as u64);
    }

    #[test]
    fn cross_segment_cursor_seeks_and_drains_in_order() {
        let mut ix: SegmentedIndex<Occ> = SegmentedIndex::new();
        // sealed segment: even docs 0..2000
        for d in (0..2000).step_by(2) {
            ix.add("t", occ(d, 0));
        }
        ix.finalize();
        // realtime segment: odd docs
        for d in (1..2000).step_by(2) {
            ix.add("t", occ(d, 0));
        }
        let sym = ix.sym("t").unwrap();
        let mut c = ix.postings(sym).cursor();
        assert_eq!(c.seek(777).unwrap().doc, 777);
        assert_eq!(c.next().unwrap().doc, 777);
        assert_eq!(c.peek().unwrap().doc, 778);
        // drain in order across segments
        let mut prev = 777;
        while let Some(p) = c.next() {
            assert!(p.doc > prev);
            prev = p.doc;
        }
        assert!(c.is_exhausted());

        // after commit both segments are sealed: same walk
        ix.commit();
        let mut c2 = ix.postings(sym).cursor();
        assert_eq!(c2.seek(1234).unwrap().doc, 1234);
        assert_eq!(c2.next().unwrap().doc, 1234);
        assert_eq!(c2.peek().unwrap().doc, 1235);
    }

    #[test]
    fn commit_of_fully_tombstoned_realtime_seals_nothing() {
        let mut ix: SegmentedIndex<Occ> = SegmentedIndex::new();
        ix.add("t", occ(1, 0));
        ix.delete_key(1);
        ix.commit();
        assert_eq!(
            ix.segment_counts(),
            SegmentCounts {
                realtime: 0,
                sealed: 0
            }
        );
        assert!(ix.postings_str("t").is_empty());
    }

    #[test]
    fn empty_and_absent_terms_behave() {
        let mut ix: SegmentedIndex<Occ> = SegmentedIndex::new();
        assert!(ix.postings_str("nope").is_empty());
        assert_eq!(ix.segment_counts(), SegmentCounts::default());
        assert_eq!(ix.merge(), SegmentCounts::default());
        assert_eq!(ix.merges(), 0, "empty merge is not counted");
        let s = ix.intern("t");
        assert_eq!(ix.term_stats(s), TermStats::default());
        assert_eq!(ix.postings(s).len(), 0);
    }
}
