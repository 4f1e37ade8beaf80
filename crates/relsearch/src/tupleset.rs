//! Query tuple sets: `R^K` = rows of table `R` whose text contains exactly
//! the query-keyword subset `K` (and no other query keyword).
//!
//! The exact-subset partition is DISCOVER's: it makes candidate networks
//! assign each keyword to exactly one node, so a CN's results are total
//! (cover all keywords) and duplicate-free across CNs (a joining tree of
//! tuples matches exactly one CN).
//!
//! A tuple set also keeps what the index said about *how often* each of its
//! keywords occurs in each row. The postings that put a row into the set
//! carry the term frequency, so the set is everything the monotone score
//! needs ([`crate::score::ScoreTable`]): no executor goes back to the
//! tuple's text to rank it.
//!
//! The build reads each keyword's posting list twice and merges none: the
//! lists OR their keyword bits into a per-table array of row masks, then
//! each list emits the rows whose lowest bit is its own — in list order, so
//! ascending — and the last list to read an entry leaves the row's position
//! in its set there. The sets keep that array: the executor and the facet
//! count find a row by it, and [`TupleSets::recycle`] hands it back zeroed
//! for the next build. No step branches on a posting's mask
//! (`TupleSets::partition`).

use crate::pexec::EvalScratch;
use kwdb_common::index::kernels::gallop_by;
use kwdb_common::{CacheConfig, KwdbError, Result};
use kwdb_relational::index::{tuple_key, Posting};
use kwdb_relational::{Database, RowId, TableId, TupleId};
use std::collections::HashMap;

/// Most keywords one query may have: tuple-set masks are `u32` bitmasks.
pub const MAX_KEYWORDS: usize = 32;

/// A query's row array: per table, one `u32` per row slot up to the last
/// row a build has matched there — 0 for a row no query keyword matches,
/// the row's keyword mask while the build runs, and after it the row's
/// position in its tuple set plus 1.
#[derive(Debug, Clone, Default)]
struct RowSlots {
    tables: Vec<Vec<u32>>,
}

/// The build's pooled buffers, part of an [`EvalScratch`]: the row array
/// between queries, every entry 0 — [`TupleSets::build_with`] takes it,
/// [`TupleSets::recycle`] hands it back — and one posting run's compaction
/// buffers.
#[derive(Default)]
pub(crate) struct BuildBuffers {
    slots: RowSlots,
    rows: Vec<RowId>,
    tfs: Vec<u32>,
    shared: Vec<(RowId, u32)>,
}

/// Where `row` sits in its tuple set, by `map` (a table's entries of the
/// row array, [`TupleSets::positions`]), or [`NIL`] when no query keyword
/// matches it.
#[inline]
pub(crate) fn position(map: &[u32], row: RowId) -> u32 {
    map.get(row.0 as usize).map_or(NIL, |&e| e.wrapping_sub(1))
}

/// [`position`] of a row no query keyword matches.
pub(crate) const NIL: u32 = u32::MAX;

/// A posting list's runs of one table each.
fn runs(list: &[Posting]) -> impl Iterator<Item = &[Posting]> {
    list.chunk_by(|a, b| a.tuple.table == b.tuple.table)
}

impl RowSlots {
    /// The entries of `table`, grown to cover `last`.
    fn table(&mut self, table: TableId, last: RowId) -> &mut [u32] {
        let t = table.0 as usize;
        if self.tables.len() <= t {
            self.tables.resize_with(t + 1, Vec::new);
        }
        let map = &mut self.tables[t];
        if map.len() <= last.0 as usize {
            map.resize(last.0 as usize + 1, 0);
        }
        map
    }
}

impl EvalScratch {
    /// The row-array entries this scratch holds for the next build, if
    /// every one is unmatched (`None` if one is not). 0 after a query whose
    /// sets were dropped without [`TupleSets::recycle`]: the next build
    /// starts fresh arrays.
    pub fn unmatched_rows(&self) -> Option<usize> {
        let tables = &self.build.slots.tables;
        (tables.iter().flatten())
            .all(|&e| e == 0)
            .then(|| tables.iter().map(Vec::len).sum())
    }
}

/// Holds nothing: tuple sets are built from the index's postings directly.
/// Kept only for `benchmark/`, deleted by ROADMAP 1(a).
#[derive(Debug)]
pub struct TermCache;

impl TermCache {
    /// Kept only for `benchmark/`, deleted by ROADMAP 1(a).
    pub fn new(_: CacheConfig) -> Self {
        TermCache
    }
}

/// One non-empty tuple set `R^K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleSet {
    pub table: TableId,
    /// Bitmask over the query keywords; never 0 for stored sets (the free
    /// set `R^{}` is implicit — it is the whole table).
    pub mask: u32,
    /// Matching rows, ascending.
    pub rows: Vec<RowId>,
    /// Term frequencies, `mask.count_ones()` per row: row `i`'s counts of
    /// the mask's keywords, lowest keyword index first.
    pub tfs: Vec<u32>,
}

impl TupleSet {
    /// Row `i`'s frequencies of the mask's keywords, lowest keyword index
    /// first.
    pub fn row_tfs(&self, i: usize) -> &[u32] {
        let width = self.mask.count_ones() as usize;
        &self.tfs[i * width..(i + 1) * width]
    }
}

/// All non-empty tuple sets of a query, keyed by `(table, mask)`, and the
/// row array their build wrote.
#[derive(Debug, Clone, Default)]
pub struct TupleSets {
    sets: HashMap<(TableId, u32), TupleSet>,
    n_keywords: usize,
    slots: RowSlots,
}

impl TupleSets {
    /// Partition every table's matching rows by exact keyword subset.
    /// Requires a fresh full-text index on `db`; more than [`MAX_KEYWORDS`]
    /// keywords is an [`KwdbError::InvalidQuery`].
    ///
    /// One dictionary lookup per keyword, then the partition over
    /// the keywords' posting lists; absent keywords have no postings and
    /// simply contribute no mask bits. Its row array is a fresh one: a
    /// caller that builds many queries' sets passes a pooled one to
    /// [`TupleSets::build_with`].
    pub fn build<S: AsRef<str>>(db: &Database, keywords: &[S]) -> Result<Self> {
        Self::build_with(db, keywords, &mut EvalScratch::new())
    }

    /// [`TupleSets::build`] on the row array and buffers `scratch` pools.
    /// The sets take the array, holding every matched row's position in
    /// its set, until [`TupleSets::recycle`] hands it back.
    pub fn build_with<S: AsRef<str>>(
        db: &Database,
        keywords: &[S],
        scratch: &mut EvalScratch,
    ) -> Result<Self> {
        if keywords.len() > MAX_KEYWORDS {
            return Err(KwdbError::InvalidQuery(format!(
                "{} keywords; a relational query takes at most {MAX_KEYWORDS}",
                keywords.len()
            )));
        }
        let ix = db.text_index()?;
        let lists: Vec<(u32, &[Posting])> = (keywords.iter().enumerate())
            .filter_map(|(i, kw)| Some((i as u32, ix.sym(kw.as_ref())?)))
            .map(|(bit, sym)| (bit, ix.postings_sym(sym).as_slice()))
            .collect();
        debug_assert!(scratch.unmatched_rows().is_some(), "a pooled row array");
        Ok(Self::partition(&lists, keywords.len(), &mut scratch.build))
    }

    /// End the query: mark the sets' rows unmatched and hand the row array
    /// to `scratch`, for its next build. Sets dropped without this cost
    /// that build a fresh array, never a dirty one.
    pub fn recycle(mut self, scratch: &mut EvalScratch) {
        for set in self.sets.values() {
            let map = &mut self.slots.tables[set.table.0 as usize];
            set.rows.iter().for_each(|r| map[r.0 as usize] = 0);
        }
        scratch.build.slots = self.slots;
    }

    /// [`TupleSets::build`], with 0 cache hits and 0 misses. Kept only for
    /// `benchmark/`, deleted by ROADMAP 1(a).
    pub fn build_cached<S: AsRef<str>>(
        db: &Database,
        keywords: &[S],
        _: &TermCache,
    ) -> Result<(Self, u64, u64)> {
        Ok((Self::build(db, keywords)?, 0, 0))
    }

    /// The exact-subset partition of the keywords' posting lists, each
    /// paired with its keyword's bit, in two passes over the postings. A
    /// list holds one posting per tuple, in `(table, row)` order.
    ///
    /// 1. Each list ORs its bit into its rows' entries of `buf`'s row array
    ///    (per table, one `u32` per row slot, all 0 on entry), so every
    ///    entry ends up holding its row's mask.
    /// 2. Each list, highest bit first, reads its rows' masks run by table
    ///    run and emits the rows whose lowest bit is its own. Each posting
    ///    is written to two buffers, and the mask only decides which write
    ///    position moves on: one collects the rows matching this keyword
    ///    alone — set `(table, bit)`, copied out when the run ends — the
    ///    other the rows matching more, which then read their other
    ///    keywords' counts from those lists by galloping cursors (their keys
    ///    ascend) and go to a set per mask. The lowest bit's list is the last
    ///    to read an entry, so it writes there the row's position in the set
    ///    it goes to, plus 1: no pass fills a second array.
    ///
    /// Every set's rows come from one list, so they arrive ascending, with
    /// no post-sort, and a row's frequencies in keyword order because the
    /// lists are. Only a row matching several keywords is hashed, to find
    /// its set. The sets take the row array.
    fn partition(lists: &[(u32, &[Posting])], n_keywords: usize, buf: &mut BuildBuffers) -> Self {
        let mut slots = std::mem::take(&mut buf.slots);
        let row = |p: &Posting| p.tuple.row.0 as usize;
        for &(bit, list) in lists {
            for run in runs(list) {
                let map = slots.table(run[0].tuple.table, run[run.len() - 1].tuple.row);
                run.iter().for_each(|p| map[row(p)] |= 1 << bit);
            }
        }
        let mut out = TupleSets {
            n_keywords,
            slots,
            ..Default::default()
        };
        let BuildBuffers {
            rows, tfs, shared, ..
        } = buf;
        for &(bit, list) in lists.iter().rev() {
            let mut cursors = vec![0; lists.len()];
            for run in runs(list) {
                let table = run[0].tuple.table;
                let map = &mut out.slots.tables[table.0 as usize];
                rows.resize(run.len(), RowId(0));
                tfs.resize(run.len(), 0);
                shared.resize(run.len(), (RowId(0), 0));
                let (mut alone, mut more) = (0, 0);
                for p in run {
                    let mask = map[row(p)];
                    let lowest = mask.trailing_zeros() == bit;
                    // (the lowest bit's list reads the entry last and leaves
                    // the row's position: in this set for a row matching
                    // this keyword alone, in its own set below for the rest)
                    map[row(p)] = if lowest { alone as u32 + 1 } else { mask };
                    (rows[alone], tfs[alone]) = (p.tuple.row, p.tf);
                    alone += (mask == 1 << bit) as usize;
                    shared[more] = (p.tuple.row, mask);
                    more += (lowest && mask != 1 << bit) as usize;
                }
                let set = |mask, rows, tfs| TupleSet {
                    table,
                    mask,
                    rows,
                    tfs,
                };
                if alone > 0 {
                    let single = set(1 << bit, rows[..alone].to_vec(), tfs[..alone].to_vec());
                    out.sets.insert((table, 1 << bit), single);
                }
                for &(r, mask) in &shared[..more] {
                    // (the keys ascend over the list's runs, and so do the cursors)
                    let key = tuple_key(TupleId::new(table, r));
                    let row_tfs = (lists.iter().zip(&mut cursors))
                        .filter(|((bit, _), _)| mask >> bit & 1 == 1)
                        .map(|((_, list), at)| {
                            *at = gallop_by(list, *at, |p| tuple_key(p.tuple) >= key);
                            debug_assert_eq!(tuple_key(list[*at].tuple), key, "a mask bit's list");
                            list[*at].tf
                        });
                    let set = (out.sets.entry((table, mask)))
                        .or_insert_with(|| set(mask, vec![], vec![]));
                    map[r.0 as usize] = set.rows.len() as u32 + 1;
                    set.tfs.extend(row_tfs);
                    set.rows.push(r);
                }
            }
        }
        out
    }

    pub fn n_keywords(&self) -> usize {
        self.n_keywords
    }

    /// `table`'s entries of the row array: index them with [`position`].
    pub(crate) fn positions(&self, table: TableId) -> &[u32] {
        self.slots.tables.get(table.0 as usize).map_or(&[], |m| m)
    }

    /// The full-cover mask `2^l − 1`.
    pub fn full_mask(&self) -> u32 {
        match self.n_keywords {
            0 => 0,
            n => u32::MAX >> (MAX_KEYWORDS - n),
        }
    }

    /// Get a non-empty tuple set.
    pub fn get(&self, table: TableId, mask: u32) -> Option<&TupleSet> {
        self.sets.get(&(table, mask))
    }

    /// Every non-empty tuple set, in no particular order.
    pub fn sets(&self) -> impl Iterator<Item = &TupleSet> {
        self.sets.values()
    }

    /// All non-empty `(table, mask)` keys, sorted.
    pub fn keys(&self) -> Vec<(TableId, u32)> {
        let mut k: Vec<_> = self.sets.keys().copied().collect();
        k.sort();
        k
    }

    /// The free set `R^∅`: rows of `table` containing *no* query keyword.
    /// Using the exact partition keeps joining trees duplicate-free across
    /// CNs — every tree's node masks are its tuples' exact keyword sets.
    pub fn free_rows(&self, db: &Database, table: TableId) -> Vec<RowId> {
        let mut matched: Vec<RowId> = (self.sets.values())
            .filter(|s| s.table == table)
            .flat_map(|s| s.rows.iter().copied())
            .collect();
        matched.sort_unstable();
        // Live rows only: the table iterator skips tombstoned slots, and
        // matched rows (from the index) are always live.
        (db.table(table).iter())
            .map(|(rid, _)| rid)
            .filter(|rid| matched.binary_search(rid).is_err())
            .collect()
    }

    /// Size of the free set `R^∅` without materializing it — for cost
    /// estimation and scheduling, which only need counts.
    pub fn free_row_count(&self, db: &Database, table: TableId) -> usize {
        let matched: usize = (self.sets.values())
            .filter(|s| s.table == table)
            .map(|s| s.rows.len())
            .sum();
        db.table(table).live_len() - matched
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
        // one count per mask bit per row: "Widom on XML" has each once
        assert_eq!(ts.get(paper, 0b11).unwrap().tfs, vec![1, 1]);
        assert_eq!(ts.get(author, 0b01).unwrap().row_tfs(0), [1]);
        assert!(ts.get(paper, 0b01).is_none());
        assert!(ts.covers_all_keywords());
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

    /// The partition by definition: every live row of every table is
    /// tokenized, the query keywords it holds are its mask and their
    /// occurrence counts its frequencies, and rows go to their `(table,
    /// mask)` through a map, one hash per row.
    #[allow(clippy::type_complexity)]
    fn naive_partition(
        db: &Database,
        keywords: &[&str],
    ) -> (
        HashMap<(TableId, u32), (Vec<RowId>, Vec<u32>)>,
        HashMap<TableId, Vec<RowId>>,
    ) {
        let mut sets: HashMap<(TableId, u32), (Vec<RowId>, Vec<u32>)> = HashMap::new();
        let mut matched: HashMap<TableId, Vec<RowId>> = HashMap::new();
        for t in db.tables() {
            for (rid, _) in t.iter() {
                let tokens = db.tuple_tokens(kwdb_relational::TupleId::new(t.id, rid));
                let mut mask = 0u32;
                let mut tfs = Vec::new();
                for (i, kw) in keywords.iter().enumerate() {
                    let tf = tokens.iter().filter(|tok| tok == kw).count() as u32;
                    if tf > 0 {
                        mask |= 1 << i;
                        tfs.push(tf);
                    }
                }
                if mask != 0 {
                    let set = sets.entry((t.id, mask)).or_default();
                    set.0.push(rid);
                    set.1.extend(tfs);
                    matched.entry(t.id).or_default().push(rid);
                }
            }
        }
        (sets, matched)
    }

    #[test]
    fn streamed_partition_equals_the_per_row_hash_partition() {
        use kwdb_common::Rng;
        let vocab = [
            "xml", "data", "query", "widom", "stream", "graph", "index", "join", "rank", "tree",
            "web", "cube", "top", "skyline",
        ];
        let mut rng = Rng::seed_from_u64(0x7ab1e);
        let text = |rng: &mut Rng| -> String {
            let n = rng.gen_range(0..6usize);
            let words: Vec<&str> = (0..n).map(|_| *rng.choose(&vocab)).collect();
            words.join(" ") // repeats give tf > 1, n = 0 a row matching nothing
        };
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        for cid in 0..6 {
            db.insert(
                "conference",
                vec![cid.into(), text(&mut rng).into(), 2000.into()],
            )
            .unwrap();
        }
        for aid in 0..60 {
            db.insert("author", vec![aid.into(), text(&mut rng).into()])
                .unwrap();
        }
        db.insert("author", vec![60.into(), "xml data query widom".into()])
            .unwrap(); // matches every keyword of the four-keyword query below
        db.insert("author", vec![61.into(), "zeta eta theta eta".into()])
            .unwrap(); // the only row holding any of these three words
        for pid in 0..150 {
            db.insert(
                "paper",
                vec![pid.into(), text(&mut rng).into(), (pid % 6).into()],
            )
            .unwrap();
        }
        // A table with three text columns: a keyword's postings there sum
        // its occurrences over all of them.
        db.create_table(
            TableBuilder::new("product")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("brand", ColumnType::Text)
                .column("price", ColumnType::Int)
                .column("description", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        let product = |id: i64, rng: &mut Rng| -> Vec<kwdb_common::Value> {
            let texts = [text(rng), text(rng), text(rng)];
            let [name, brand, description] = texts.map(Into::into);
            vec![id.into(), name, brand, 100.into(), description]
        };
        for id in 0..40 {
            db.insert("product", product(id, &mut rng)).unwrap();
        }
        let in_three_columns = vec![
            40.into(),
            "xml stream".into(),
            "xml".into(),
            100.into(),
            "stream xml data".into(),
        ];
        db.insert("product", in_three_columns).unwrap();
        db.build_text_index();
        // ingests and deletes on top of the built index
        for pid in 150..190 {
            let row = vec![pid.into(), text(&mut rng).into(), (pid % 6).into()];
            db.ingest("paper", row).unwrap();
        }
        for id in 41..60 {
            db.ingest("product", product(id, &mut rng)).unwrap();
        }
        for pid in (0..190).step_by(7) {
            db.delete("paper", &pid.into()).unwrap();
        }
        for id in (3..60).step_by(5) {
            db.delete("product", &id.into()).unwrap();
        }
        // The widest masks: the first twelve words, and MAX_KEYWORDS
        // keywords — every word, an absent one, and repeats.
        let twelve = &vocab[..12];
        let widest: Vec<&str> = (0..MAX_KEYWORDS)
            .map(|i| {
                vocab
                    .get(i)
                    .copied()
                    .unwrap_or(["absent", "xml", "top"][i % 3])
            })
            .collect();
        let queries: [&[&str]; 9] = [
            &["xml"],
            &["absent"],
            &["xml", "data"],
            &["widom", "absent", "graph"],
            &["xml", "data", "query", "widom"],
            &["stream", "xml", "absent", "stream"],
            twelve,
            &widest,
            &["eta", "theta", "zeta"],
        ];
        // One pooled scratch for every query, as an engine holds one.
        let mut scratch = EvalScratch::new();
        for keywords in queries {
            let ts = TupleSets::build(&db, keywords).unwrap();
            let pooled = TupleSets::build_with(&db, keywords, &mut scratch).unwrap();
            assert_eq!(pooled.keys(), ts.keys(), "{keywords:?}");
            assert!(ts.sets().all(|s| pooled.get(s.table, s.mask) == Some(s)));
            // Either build leaves each matched row's position in its set,
            // and every other entry unmatched ...
            for sets in [&ts, &pooled] {
                let placed = |s: &TupleSet| {
                    let map = sets.positions(s.table);
                    (s.rows.iter().enumerate()).all(|(at, &r)| position(map, r) == at as u32)
                };
                assert!(sets.sets().all(placed), "{keywords:?}");
                let marked = sets.slots.tables.iter().flatten().filter(|&&e| e != 0);
                assert_eq!(marked.count(), sets.sets().map(|s| s.rows.len()).sum());
            }
            // ... until the query ends: then the scratch holds the array
            // again, every entry unmatched.
            let entries: usize = pooled.slots.tables.iter().map(Vec::len).sum();
            pooled.recycle(&mut scratch);
            assert_eq!(scratch.unmatched_rows(), Some(entries), "{keywords:?}");
            let (sets, matched) = naive_partition(&db, keywords);
            let mut keys: Vec<_> = sets.keys().copied().collect();
            keys.sort();
            assert_eq!(ts.keys(), keys, "{keywords:?}");
            assert_eq!(ts.len(), sets.len());
            for (&(table, mask), (rows, tfs)) in &sets {
                let set = ts.get(table, mask).unwrap();
                assert_eq!((set.table, set.mask), (table, mask));
                assert_eq!(&set.rows, rows, "{keywords:?} {table:?} {mask:b}");
                assert_eq!(&set.tfs, tfs, "{keywords:?} {table:?} {mask:b}");
            }
            for t in db.tables() {
                let naive = matched.get(&t.id).map_or(&[][..], |v| v);
                let free: Vec<RowId> = (t.iter().map(|(rid, _)| rid))
                    .filter(|rid| !naive.contains(rid))
                    .collect();
                assert_eq!(ts.free_rows(&db, t.id), free, "{keywords:?} {:?}", t.id);
                assert_eq!(ts.free_row_count(&db, t.id), free.len());
            }
        }
        let all = TupleSets::build(&db, queries[4]).unwrap();
        let author = db.table_id("author").unwrap();
        assert!(all.get(author, 0b1111).unwrap().rows.contains(&RowId(60)));
        let one_row = TupleSets::build(&db, queries[8]).unwrap();
        assert_eq!(one_row.keys(), [(author, 0b111)]);
        let set = one_row.get(author, 0b111).unwrap();
        assert_eq!(
            (&set.rows[..], &set.tfs[..]),
            (&[RowId(61)][..], &[2, 1, 1][..])
        );
        let widest = TupleSets::build(&db, queries[7]).unwrap();
        assert!(widest
            .keys()
            .iter()
            .any(|&(_, mask)| mask.count_ones() > 12));
        let product = db.table_id("product").unwrap();
        let xml = TupleSets::build(&db, &["xml"]).unwrap();
        let set = xml.get(product, 0b1).unwrap();
        let at = set.rows.binary_search(&RowId(40)).unwrap();
        assert_eq!(set.row_tfs(at), [3], "one posting, tf summed over columns");
    }

    use kwdb_relational::{ColumnType, RowId, TableBuilder};
}
