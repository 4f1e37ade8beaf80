//! The term index: an [`Interner`] of terms plus one sorted [`PostingList`]
//! per term.

use super::posting::{IndexStats, Posting, PostingList, Postings};
use crate::intern::{Interner, Sym};

/// Term dictionary + one posting list per [`Sym`] — the index core all three
/// substrates store postings in.
///
/// [`add`](Self::add) keeps each list sorted and coalesced as it goes (an
/// in-order posting is a push at the end) and
/// [`remove_key`](Self::remove_key) drains one document's postings from one
/// list, so a read sees exactly the postings added and not removed.
#[derive(Debug, Clone)]
pub struct TermIndex<P> {
    /// Each distinct term interned once, to a dense [`Sym`].
    dict: Interner,
    /// Indexed by `Sym`: one list per dictionary term.
    lists: Vec<PostingList<P>>,
}

impl<P> Default for TermIndex<P> {
    fn default() -> Self {
        TermIndex {
            dict: Interner::new(),
            lists: Vec::new(),
        }
    }
}

impl<P: Posting> TermIndex<P> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one posting occurrence for `term`, keeping its list sorted and
    /// coalesced.
    pub fn add(&mut self, term: &str, posting: P) {
        let sym = self.dict.intern(term);
        if sym.0 as usize == self.lists.len() {
            self.lists.push(PostingList::default());
        }
        self.lists[sym.0 as usize].insert_coalesce(posting);
    }

    /// Remove every posting of `term` whose [`Posting::key64`] equals `key`
    /// and return how many there were. The term stays in the dictionary.
    pub fn remove_key(&mut self, term: &str, key: u64) -> usize {
        self.sym(term)
            .map_or(0, |sym| self.lists[sym.0 as usize].remove_key(key))
    }

    /// Release the slack of every list — the batch-build epilogue.
    pub fn shrink_to_fit(&mut self) {
        self.lists.iter_mut().for_each(PostingList::shrink_to_fit);
    }

    /// Resolve a query term to its dense id — once per query term.
    pub fn sym(&self, term: &str) -> Option<Sym> {
        self.dict.get(term)
    }

    /// The postings of an interned term.
    pub fn postings(&self, sym: Sym) -> Postings<'_, P> {
        self.lists
            .get(sym.0 as usize)
            .map_or_else(Postings::empty, PostingList::postings)
    }

    /// The postings of a term by string; the empty view if absent.
    pub fn postings_str(&self, term: &str) -> Postings<'_, P> {
        self.sym(term)
            .map_or_else(Postings::empty, |s| self.postings(s))
    }

    /// Distinct terms indexed.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Total stored postings.
    pub fn posting_count(&self) -> usize {
        self.lists.iter().map(PostingList::len).sum()
    }

    /// All indexed terms, in id order.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.dict.iter().map(|(_, term)| term)
    }

    /// Whole-index size figures.
    pub fn index_stats(&self) -> IndexStats {
        let bytes = self.lists.iter().map(PostingList::heap_bytes).sum();
        IndexStats::new(self.term_count(), self.posting_count(), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test posting mirroring the relational shape: `(doc, slot, tf)`,
    /// coalescing on equal `(doc, slot)`, `key64` = doc (slot-blind) so one
    /// `remove_key` drops a whole document.
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
        let mut ix: TermIndex<Occ> = TermIndex::new();
        for p in input.iter().rev() {
            ix.add("t", *p);
        }
        let sym = ix.sym("t").unwrap();
        assert_eq!(ix.postings(sym).to_vec(), model);
        ix.shrink_to_fit();
        assert_eq!(ix.postings(sym).to_vec(), model);
    }

    #[test]
    fn adds_sort_coalesce_and_size_the_index() {
        let mut ix: TermIndex<Occ> = TermIndex::new();
        ix.add("xml", occ(2, 0));
        ix.add("xml", occ(2, 0)); // duplicate → coalesced, tf 2
        ix.add("xml", occ(0, 1)); // out of order → sorted on insert
        ix.add("db", occ(1, 0));
        let x = ix.sym("xml").unwrap();
        assert_eq!(ix.postings(x), [occ(0, 1), Occ { tf: 2, ..occ(2, 0) }]);
        assert_eq!(ix.term_count(), 2);
        assert_eq!(ix.posting_count(), 3);
        let stats = ix.index_stats();
        assert_eq!((stats.terms, stats.postings), (2, 3));
        assert_eq!(stats.posting_bytes, 3 * std::mem::size_of::<Occ>());
        // removing a document takes every slot of it, in one list only
        ix.add("xml", occ(2, 1));
        assert_eq!(ix.remove_key("xml", 2), 2);
        assert_eq!(ix.postings(x), [occ(0, 1)]);
        assert_eq!(ix.postings_str("db"), [occ(1, 0)]);
    }

    #[test]
    fn empty_and_absent_terms_behave() {
        let mut ix: TermIndex<Occ> = TermIndex::new();
        assert!(ix.postings_str("nope").is_empty());
        assert_eq!(ix.remove_key("nope", 0), 0);
        assert_eq!(ix.index_stats(), IndexStats::new(0, 0, 0));
        ix.add("t", occ(4, 0));
        assert_eq!(ix.remove_key("t", 4), 1);
        let s = ix.sym("t").expect("a term outlives its postings");
        assert_eq!(ix.postings(s).len(), 0);
        assert_eq!(ix.postings(Sym(9)).len(), 0, "foreign sym");
    }

    /// Seeded adds (repeats coalesce) and document removals against a
    /// sorted, coalesced model: every list's slice and the posting count are
    /// checked after every step.
    #[test]
    fn add_remove_round_trip() {
        type Model =
            std::collections::BTreeMap<String, std::collections::BTreeMap<(u32, u32), u32>>;
        let mut rng = crate::Rng::seed_from_u64(0x5E9);
        let mut ix: TermIndex<Occ> = TermIndex::new();
        let mut model: Model = Model::new();
        let mut removed_total = 0;
        for _ in 0..400 {
            let term = format!("t{}", rng.gen_index(12));
            let (doc, slot) = (rng.gen_index(12) as u32, rng.gen_index(3) as u32);
            if rng.gen_bool(0.25) {
                let removed = ix.remove_key(&term, doc as u64);
                let gone = model.get_mut(&term).map_or(0, |occs| {
                    let before = occs.len();
                    occs.retain(|&(d, _), _| d != doc);
                    before - occs.len()
                });
                assert_eq!(removed, gone, "removed count");
                removed_total += removed;
            } else {
                ix.add(&term, occ(doc, slot));
                *model
                    .entry(term)
                    .or_default()
                    .entry((doc, slot))
                    .or_default() += 1;
            }
            for (term, occs) in &model {
                let want: Vec<Occ> = (occs.iter())
                    .map(|(&(doc, slot), &tf)| Occ { doc, slot, tf })
                    .collect();
                assert_eq!(ix.postings_str(term).as_slice(), want, "term {term:?}");
            }
            let stored: usize = model.values().map(|occs| occs.len()).sum();
            assert_eq!(ix.posting_count(), stored);
        }
        assert!(removed_total > 10, "the removals hit: {removed_total}");
    }
}
