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

use kwdb_common::{CacheConfig, KwdbError, Result};
use kwdb_relational::index::{tuple_key, Posting};
use kwdb_relational::{Database, RowId, TableId};
use std::collections::HashMap;

/// Most keywords one query may have: tuple-set masks are `u32` bitmasks.
pub const MAX_KEYWORDS: usize = 32;

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
    /// Requires a fresh full-text index on `db`; more than [`MAX_KEYWORDS`]
    /// keywords is an [`KwdbError::InvalidQuery`].
    ///
    /// One dictionary lookup per keyword, then one merge over the keywords'
    /// posting lists; absent keywords have no postings and simply contribute
    /// no mask bits.
    pub fn build<S: AsRef<str>>(db: &Database, keywords: &[S]) -> Result<Self> {
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
        Ok(Self::partition(&lists, keywords.len()))
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

    /// The exact-subset partition: a k-way merge over the keywords' posting
    /// lists, each paired with its keyword's bit. A list holds one posting
    /// per tuple, in `(table, row)` order, so tuples come out ascending with
    /// the mask of lists holding them: the per-set and per-table row vectors
    /// are sorted with no post-sort, and a row's frequencies land in keyword
    /// order because the lists are.
    ///
    /// Ascending keys also mean a table's rows are contiguous: the table's
    /// `matched` vector and its few `(mask → set)` slots are plain locals
    /// while its rows stream by, and reach the maps once, when the table
    /// changes. No row is hashed.
    fn partition(lists: &[(u32, &[Posting])], n_keywords: usize) -> Self {
        let mut out = TupleSets {
            n_keywords,
            ..Default::default()
        };
        let mut idx = vec![0usize; lists.len()];
        let mut row_tfs: Vec<u32> = Vec::with_capacity(lists.len());
        // The table being streamed: its sets in order of first appearance,
        // and where the previous row went (runs of one mask are common).
        let mut table = TableId(0);
        let mut open: Vec<TupleSet> = Vec::new();
        let mut matched: Vec<RowId> = Vec::new();
        let mut at = 0usize;
        let key = |list: &[Posting], i: usize| list.get(i).map(|p| tuple_key(p.tuple));
        loop {
            let min = lists
                .iter()
                .zip(&idx)
                .filter_map(|(&(_, list), &i)| key(list, i))
                .min();
            let Some(min) = min else { break };
            if TableId((min >> 32) as u32) != table {
                out.close_table(table, &mut open, &mut matched);
                table = TableId((min >> 32) as u32);
            }
            let mut mask = 0u32;
            row_tfs.clear();
            for (&(bit, list), i) in lists.iter().zip(&mut idx) {
                if key(list, *i) == Some(min) {
                    mask |= 1 << bit;
                    row_tfs.push(list[*i].tf);
                    *i += 1;
                }
            }
            if open.get(at).map(|s| s.mask) != Some(mask) {
                at = open.iter().position(|s| s.mask == mask).unwrap_or_else(|| {
                    open.push(TupleSet {
                        table,
                        mask,
                        rows: Vec::new(),
                        tfs: Vec::new(),
                    });
                    open.len() - 1
                });
            }
            open[at].rows.push(RowId(min as u32));
            open[at].tfs.extend_from_slice(&row_tfs);
            matched.push(RowId(min as u32));
        }
        out.close_table(table, &mut open, &mut matched);
        out
    }

    /// Move a streamed table's sets and matched rows into the maps.
    fn close_table(&mut self, table: TableId, open: &mut Vec<TupleSet>, matched: &mut Vec<RowId>) {
        if matched.is_empty() {
            return;
        }
        self.sets
            .extend(open.drain(..).map(|set| ((table, set.mask), set)));
        self.matched.insert(table, std::mem::take(matched));
    }

    pub fn n_keywords(&self) -> usize {
        self.n_keywords
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
        // one count per mask bit per row: "Widom on XML" has each once
        assert_eq!(ts.get(paper, 0b11).unwrap().tfs, vec![1, 1]);
        assert_eq!(ts.get(author, 0b01).unwrap().row_tfs(0), [1]);
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
        let vocab = ["xml", "data", "query", "widom", "stream", "graph"];
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
            .unwrap(); // matches every keyword of every query below
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
        let queries: [&[&str]; 6] = [
            &["xml"],
            &["absent"],
            &["xml", "data"],
            &["widom", "absent", "graph"],
            &["xml", "data", "query", "widom"],
            &["stream", "xml", "absent", "stream"],
        ];
        for keywords in queries {
            let ts = TupleSets::build(&db, keywords).unwrap();
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
                assert_eq!(ts.matched_rows(t.id), naive, "{keywords:?} {:?}", t.id);
            }
        }
        let all = TupleSets::build(&db, queries[4]).unwrap();
        let author = db.table_id("author").unwrap();
        assert!(all.get(author, 0b1111).unwrap().rows.contains(&RowId(60)));
        let product = db.table_id("product").unwrap();
        let xml = TupleSets::build(&db, &["xml"]).unwrap();
        let set = xml.get(product, 0b1).unwrap();
        let at = set.rows.binary_search(&RowId(40)).unwrap();
        assert_eq!(set.row_tfs(at), [3], "one posting, tf summed over columns");
    }

    use kwdb_relational::{ColumnType, RowId, TableBuilder};
}
