//! Query tuple sets: `R^K` = rows of table `R` whose text contains exactly
//! the query-keyword subset `K` (and no other query keyword).
//!
//! The exact-subset partition is DISCOVER's: it makes candidate networks
//! assign each keyword to exactly one node, so a CN's results are total
//! (cover all keywords) and duplicate-free across CNs (a joining tree of
//! tuples matches exactly one CN).

use kwdb_common::index::kernels;
use kwdb_common::{Result, ShardedCache};
use kwdb_relational::{Database, RowId, TableId};
use std::collections::HashMap;
use std::sync::Arc;

/// The relational engine's per-term tuple-set cache: materialized sorted
/// `(table << 32 | row)` key lists, keyed by `(generation, term symbol)`.
/// The generation in the key is the whole invalidation story — a commit
/// bumps it, stale entries stop matching, and the LRU sweep reclaims them.
pub type TermCache = ShardedCache<(u64, u32), Arc<Vec<u64>>>;

/// One non-empty tuple set `R^K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleSet {
    pub table: TableId,
    /// Bitmask over the query keywords; never 0 for stored sets (the free
    /// set `R^{}` is implicit — it is the whole table).
    pub mask: u32,
    /// Matching rows, ascending.
    pub rows: Vec<RowId>,
}

/// All non-empty tuple sets of a query, keyed by `(table, mask)`.
#[derive(Debug, Clone, Default)]
pub struct TupleSets {
    sets: HashMap<(TableId, u32), TupleSet>,
    /// Per table: rows matching *any* query keyword (sorted) — the
    /// complement of the free set `R^∅`.
    matched: HashMap<TableId, Vec<RowId>>,
    n_keywords: usize,
}

impl TupleSets {
    /// Partition every table's matching rows by exact keyword subset.
    /// Requires a fresh full-text index on `db`.
    ///
    /// Rides the k-way cursor union kernel: tuple keys `(table, row)` arrive
    /// in ascending order with the bitmask of matching lists, so the
    /// per-set and per-table row vectors come out sorted with no hashing
    /// over postings and no post-sort — and the same code path serves both
    /// the plain and the block-compressed layout.
    pub fn build<S: AsRef<str>>(db: &Database, keywords: &[S]) -> Result<Self> {
        assert!(keywords.len() <= 32, "at most 32 keywords");
        let ix = db.text_index()?;
        // One dictionary lookup per keyword up front; absent keywords have
        // no postings and simply contribute no mask bits.
        let mut cursors = Vec::with_capacity(keywords.len());
        let mut bit_of = Vec::with_capacity(keywords.len());
        for (i, kw) in keywords.iter().enumerate() {
            let Some(sym) = ix.sym(kw.as_ref()) else {
                continue;
            };
            cursors.push(ix.postings_sym(sym).cursor());
            bit_of.push(i as u32);
        }
        let mut sets: HashMap<(TableId, u32), TupleSet> = HashMap::new();
        let mut matched: HashMap<TableId, Vec<RowId>> = HashMap::new();
        kernels::for_each_union_key(&mut cursors, |key, cursor_mask| {
            let mut mask = 0u32;
            let mut rest = cursor_mask;
            while rest != 0 {
                mask |= 1 << bit_of[rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
            let table = TableId((key >> 32) as u32);
            let row = RowId(key as u32);
            sets.entry((table, mask))
                .or_insert_with(|| TupleSet {
                    table,
                    mask,
                    rows: Vec::new(),
                })
                .rows
                .push(row);
            matched.entry(table).or_default().push(row);
        });
        Ok(TupleSets {
            sets,
            matched,
            n_keywords: keywords.len(),
        })
    }

    /// [`TupleSets::build`] through the per-term cache: each keyword's
    /// sorted tuple-key list is fetched from `cache` (keyed by the
    /// database's current generation and the term's symbol) or materialized
    /// from its postings and stored; the exact-subset partition is then a
    /// k-way merge over the per-term lists. Returns the tuple sets plus
    /// this query's (hit, miss) counts against the cache.
    ///
    /// Equivalent to `build` for any index state — proven by the cache
    /// parity tests — because a list materialized at generation `g` can
    /// only be observed while the index is still at `g`.
    pub fn build_cached<S: AsRef<str>>(
        db: &Database,
        keywords: &[S],
        cache: &TermCache,
    ) -> Result<(Self, u64, u64)> {
        assert!(keywords.len() <= 32, "at most 32 keywords");
        let ix = db.text_index()?;
        let generation = db.generation();
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut lists: Vec<Arc<Vec<u64>>> = Vec::with_capacity(keywords.len());
        let mut bit_of = Vec::with_capacity(keywords.len());
        for (i, kw) in keywords.iter().enumerate() {
            let Some(sym) = ix.sym(kw.as_ref()) else {
                continue;
            };
            let key = (generation, sym.0);
            let list = match cache.get(&key) {
                Some(list) => {
                    hits += 1;
                    list
                }
                None => {
                    misses += 1;
                    let mut keys = Vec::new();
                    let mut cursors = vec![ix.postings_sym(sym).cursor()];
                    kernels::for_each_union_key(&mut cursors, |k, _| keys.push(k));
                    let list = Arc::new(keys);
                    cache.insert(key, Arc::clone(&list), list.len() * 8 + 48);
                    list
                }
            };
            lists.push(list);
            bit_of.push(i as u32);
        }
        // K-way merge over the sorted per-term lists — the same ascending
        // (key, mask) stream the cursor-union kernel produces in `build`.
        let mut sets: HashMap<(TableId, u32), TupleSet> = HashMap::new();
        let mut matched: HashMap<TableId, Vec<RowId>> = HashMap::new();
        let mut idx = vec![0usize; lists.len()];
        loop {
            let mut min = u64::MAX;
            for (i, list) in lists.iter().enumerate() {
                if idx[i] < list.len() {
                    min = min.min(list[idx[i]]);
                }
            }
            if min == u64::MAX {
                break;
            }
            let mut mask = 0u32;
            for (i, list) in lists.iter().enumerate() {
                if idx[i] < list.len() && list[idx[i]] == min {
                    mask |= 1 << bit_of[i];
                    idx[i] += 1;
                }
            }
            let table = TableId((min >> 32) as u32);
            let row = RowId(min as u32);
            sets.entry((table, mask))
                .or_insert_with(|| TupleSet {
                    table,
                    mask,
                    rows: Vec::new(),
                })
                .rows
                .push(row);
            matched.entry(table).or_default().push(row);
        }
        Ok((
            TupleSets {
                sets,
                matched,
                n_keywords: keywords.len(),
            },
            hits,
            misses,
        ))
    }

    pub fn n_keywords(&self) -> usize {
        self.n_keywords
    }

    /// The full-cover mask `2^l − 1`.
    pub fn full_mask(&self) -> u32 {
        if self.n_keywords == 0 {
            0
        } else {
            (1u32 << self.n_keywords) - 1
        }
    }

    /// Get a non-empty tuple set.
    pub fn get(&self, table: TableId, mask: u32) -> Option<&TupleSet> {
        self.sets.get(&(table, mask))
    }

    /// All non-empty `(table, mask)` keys, sorted.
    pub fn keys(&self) -> Vec<(TableId, u32)> {
        let mut k: Vec<_> = self.sets.keys().copied().collect();
        k.sort();
        k
    }

    /// Non-empty masks available for `table`, sorted.
    pub fn masks_for(&self, table: TableId) -> Vec<u32> {
        let mut m: Vec<u32> = self
            .sets
            .keys()
            .filter(|(t, _)| *t == table)
            .map(|(_, m)| *m)
            .collect();
        m.sort();
        m
    }

    /// The free set `R^∅`: rows of `table` containing *no* query keyword.
    /// Using the exact partition keeps joining trees duplicate-free across
    /// CNs — every tree's node masks are its tuples' exact keyword sets.
    pub fn free_rows(&self, db: &Database, table: TableId) -> Vec<RowId> {
        let t = db.table(table);
        let matched = self.matched_rows(table);
        let mut mi = 0;
        let mut out = Vec::with_capacity(t.live_len() - matched.len());
        // Live rows only: the table iterator skips tombstoned slots, and
        // matched rows (from the index union) are always live.
        for (rid, _) in t.iter() {
            if mi < matched.len() && matched[mi] == rid {
                mi += 1;
            } else {
                out.push(rid);
            }
        }
        out
    }

    /// Rows of `table` matching any query keyword, ascending: a live row is
    /// in the free set `R^∅` exactly when a binary search here misses it.
    pub fn matched_rows(&self, table: TableId) -> &[RowId] {
        self.matched.get(&table).map_or(&[], |v| v.as_slice())
    }

    /// Size of the free set `R^∅` without materializing it — for cost
    /// estimation and scheduling, which only need counts.
    pub fn free_row_count(&self, db: &Database, table: TableId) -> usize {
        db.table(table).live_len() - self.matched_rows(table).len()
    }

    /// Every keyword must match somewhere for AND semantics to be satisfiable.
    pub fn covers_all_keywords(&self) -> bool {
        let mut seen = 0u32;
        for (_, m) in self.sets.keys() {
            seen |= m;
        }
        seen == self.full_mask()
    }

    pub fn len(&self) -> usize {
        self.sets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_relational::database::dblp_schema;

    fn db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        db.insert("author", vec![1.into(), "Jennifer Widom".into()])
            .unwrap();
        db.insert("author", vec![2.into(), "XML Hacker".into()])
            .unwrap();
        db.insert(
            "paper",
            vec![10.into(), "XML keyword search".into(), 1.into()],
        )
        .unwrap();
        db.insert("paper", vec![11.into(), "Widom on XML".into(), 1.into()])
            .unwrap();
        db.insert("write", vec![100.into(), 1.into(), 10.into()])
            .unwrap();
        db.build_text_index();
        db
    }

    #[test]
    fn exact_subset_partition() {
        let db = db();
        let ts = TupleSets::build(&db, &["widom", "xml"]).unwrap();
        let author = db.table_id("author").unwrap();
        let paper = db.table_id("paper").unwrap();
        // author 1: {widom} → mask 0b01; author 2: {xml} → mask 0b10
        assert_eq!(ts.get(author, 0b01).unwrap().rows, vec![RowId(0)]);
        assert_eq!(ts.get(author, 0b10).unwrap().rows, vec![RowId(1)]);
        // paper 10: {xml} only; paper 11: both
        assert_eq!(ts.get(paper, 0b10).unwrap().rows, vec![RowId(0)]);
        assert_eq!(ts.get(paper, 0b11).unwrap().rows, vec![RowId(1)]);
        assert!(ts.get(paper, 0b01).is_none());
        assert!(ts.covers_all_keywords());
    }

    #[test]
    fn masks_for_table_sorted() {
        let db = db();
        let ts = TupleSets::build(&db, &["widom", "xml"]).unwrap();
        let paper = db.table_id("paper").unwrap();
        assert_eq!(ts.masks_for(paper), vec![0b10, 0b11]);
    }

    #[test]
    fn unmatched_keyword_detected() {
        let db = db();
        let ts = TupleSets::build(&db, &["widom", "nonexistent"]).unwrap();
        assert!(!ts.covers_all_keywords());
    }

    #[test]
    fn free_rows_exclude_keyword_rows() {
        let db = db();
        let ts = TupleSets::build(&db, &["widom", "xml"]).unwrap();
        let paper = db.table_id("paper").unwrap();
        // both papers match a keyword → free set empty
        assert!(ts.free_rows(&db, paper).is_empty());
        let author = db.table_id("author").unwrap();
        assert!(ts.free_rows(&db, author).is_empty());
        let write = db.table_id("write").unwrap();
        // write has no text matches → whole table is free
        assert_eq!(ts.free_rows(&db, write), vec![RowId(0)]);
    }

    #[test]
    fn empty_query() {
        let db = db();
        let ts = TupleSets::build::<&str>(&db, &[]).unwrap();
        assert!(ts.is_empty());
        assert_eq!(ts.full_mask(), 0);
        assert!(ts.covers_all_keywords());
    }

    fn assert_same_partition(db: &Database, a: &TupleSets, b: &TupleSets) {
        assert_eq!(a.n_keywords(), b.n_keywords());
        assert_eq!(a.covers_all_keywords(), b.covers_all_keywords());
        for table in ["conference", "author", "paper", "write"] {
            let t = db.table_id(table).unwrap();
            assert_eq!(a.masks_for(t), b.masks_for(t), "masks for {table}");
            for mask in a.masks_for(t) {
                assert_eq!(
                    a.get(t, mask).unwrap().rows,
                    b.get(t, mask).unwrap().rows,
                    "rows for {table} mask {mask:b}"
                );
            }
            assert_eq!(a.free_rows(db, t), b.free_rows(db, t), "free rows {table}");
        }
    }

    #[test]
    fn cached_build_matches_uncached_and_hits_on_repeat() {
        let db = db();
        let cache = TermCache::new(kwdb_common::CacheConfig::default());
        let plain = TupleSets::build(&db, &["widom", "xml"]).unwrap();
        let (cached, hits, misses) =
            TupleSets::build_cached(&db, &["widom", "xml"], &cache).unwrap();
        assert_eq!((hits, misses), (0, 2));
        assert_same_partition(&db, &plain, &cached);
        let (again, hits, misses) =
            TupleSets::build_cached(&db, &["widom", "xml"], &cache).unwrap();
        assert_eq!((hits, misses), (2, 0));
        assert_same_partition(&db, &plain, &again);
        // A query with an unknown term never touches the cache for it.
        let (_, hits, misses) =
            TupleSets::build_cached(&db, &["widom", "nonexistent"], &cache).unwrap();
        assert_eq!((hits, misses), (1, 0));
    }

    #[test]
    fn generation_bump_invalidates_cached_terms() {
        let mut db = db();
        let cache = TermCache::new(kwdb_common::CacheConfig::default());
        let (_, _, misses) = TupleSets::build_cached(&db, &["xml"], &cache).unwrap();
        assert_eq!(misses, 1);
        db.insert("paper", vec![12.into(), "XML twig joins".into(), 1.into()])
            .unwrap();
        db.build_text_index();
        let (fresh, hits, misses) = TupleSets::build_cached(&db, &["xml"], &cache).unwrap();
        assert_eq!((hits, misses), (0, 1), "new generation must re-materialize");
        let plain = TupleSets::build(&db, &["xml"]).unwrap();
        assert_same_partition(&db, &plain, &fresh);
    }

    use kwdb_relational::RowId;
}
