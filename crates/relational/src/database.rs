//! The database: tables, schema graph, and the three structures derived
//! from them — the full-text index, the foreign-key index and the per-tuple
//! document statistics.

use crate::fkindex::FkIndex;
use crate::index::{InvertedIndex, Posting};
use crate::schema::{SchemaEdge, SchemaGraph, TableBuilder, TableId};
use crate::table::{Row, RowId, Table, TupleId};
use kwdb_common::index::Layout;
use kwdb_common::text::tokenize;
use kwdb_common::{KwdbError, Result, Value};
use kwdb_rank::CorpusStats;
use std::collections::HashMap;
use std::sync::Arc;

/// An in-memory relational database.
///
/// Construction order matters only for foreign keys: a referenced table must
/// exist (with a primary key) before the referencing table is created, so the
/// FK can be resolved into a [`SchemaGraph`] edge eagerly.
///
/// # Generations
///
/// Every mutation bumps a monotonically increasing **generation counter**;
/// `indexed_generation` records the generation the text index reflects.
/// [`ingest`](Self::ingest) and [`delete`](Self::delete) maintain the index
/// incrementally (each edits the touched posting lists in place), so they
/// advance both counters together. Raw [`insert`](Self::insert) does
/// **not** touch the index, leaving it behind until the next
/// [`build_text_index`](Self::build_text_index) — queries in between get a
/// typed [`KwdbError::IndexStale`] instead of silently missing rows.
///
/// Everything else derived from the rows lives by the same rule — built with
/// the text index, maintained by `ingest` / `delete`, left behind by raw
/// `insert`: the foreign-key index behind
/// [`referenced_row`](Self::referenced_row) and
/// [`referencing_rows`](Self::referencing_rows), and the document statistics
/// behind [`corpus`](Self::corpus). The database is their only owner; an
/// engine over it keeps no copy.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    schema_graph: SchemaGraph,
    text_index: InvertedIndex,
    /// One FK index (both directions) per schema-graph edge, in edge order.
    fk_index: Vec<FkIndex>,
    /// Term statistics over the live tuples, one "document" per tuple.
    /// Behind an `Arc` so a per-query scorer shares them and a
    /// copy-on-write clone of the database does not copy them.
    corpus: Arc<CorpusStats>,
    /// Bumped by every data mutation (`insert`/`ingest`/`delete`).
    generation: u64,
    /// Generation the text index reflects; `None` until the first build.
    indexed_generation: Option<u64>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table from a builder. Resolves foreign keys against already
    /// existing tables and extends the schema graph.
    pub fn create_table(&mut self, builder: TableBuilder) -> Result<TableId> {
        let schema = builder.build()?;
        if self.by_name.contains_key(&schema.name) {
            return Err(KwdbError::Schema(format!(
                "table {} already exists",
                schema.name
            )));
        }
        let id = TableId(self.tables.len() as u32);
        // Resolve every FK before touching any state: a table that fails
        // to resolve leaves no edge behind.
        let mut edges = Vec::with_capacity(schema.foreign_keys.len());
        for fk in &schema.foreign_keys {
            let ref_id = self
                .by_name
                .get(&fk.ref_table)
                .copied()
                .ok_or_else(|| KwdbError::UnknownObject(fk.ref_table.clone()))?;
            let pk_column = self.tables[ref_id.0 as usize]
                .schema
                .primary_key
                .ok_or_else(|| {
                    KwdbError::Schema(format!("FK target {} has no primary key", fk.ref_table))
                })?;
            edges.push(SchemaEdge {
                from: id,
                to: ref_id,
                fk_column: fk.column,
                pk_column,
            });
        }
        for edge in edges {
            // The new table is empty; the referenced one may already have
            // rows (and a built index that `ingest` goes on maintaining).
            let referenced_len = self.tables[edge.to.0 as usize].len();
            self.fk_index.push(FkIndex::for_new_table(referenced_len));
            self.schema_graph.add_edge(edge);
        }
        self.by_name.insert(schema.name.clone(), id);
        self.tables.push(Table::new(id, schema));
        Ok(id)
    }

    /// Insert a row into a table by name **without** maintaining the text
    /// index: bumps the data generation and leaves the index behind. Use for
    /// bulk loads that end with [`build_text_index`](Self::build_text_index),
    /// or use [`ingest`](Self::ingest) to keep the index live.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<TupleId> {
        let id = self.table_id(table)?;
        let rid = self.tables[id.0 as usize].insert(row)?;
        self.generation += 1;
        Ok(TupleId::new(id, rid))
    }

    /// Insert a row **and** index it incrementally: the tuple's text tokens
    /// land in their posting lists, visible to queries immediately (no
    /// rebuild, no [`commit_index`](Self::commit_index) needed).
    ///
    /// Unlike [`insert`](Self::insert), `ingest` validates foreign keys: a
    /// non-NULL FK value must resolve to an existing (live) referenced row.
    ///
    /// Requires a fresh index — build once (even over an empty database)
    /// before switching to ingest. Raw `insert`s since the last build make
    /// the index unmaintainable incrementally and yield the same typed error
    /// a query would get.
    pub fn ingest(&mut self, table: &str, row: Row) -> Result<TupleId> {
        let id = self.table_id(table)?;
        self.check_index_fresh()?;
        // FK validation before any state changes.
        for fk in self.schema_graph.edges().iter().filter(|e| e.from == id) {
            let Some(key) = row.get(fk.fk_column) else {
                continue; // arity error surfaces from Table::insert below
            };
            if key.is_null() {
                continue;
            }
            let target = self.table(fk.to);
            if target.lookup_pk(key).is_none() {
                return Err(KwdbError::Schema(format!(
                    "table {}: FK {} = {} has no match in {}",
                    self.tables[id.0 as usize].schema.name,
                    self.tables[id.0 as usize].schema.columns[fk.fk_column].name,
                    key,
                    target.schema.name
                )));
            }
        }
        // A primary key that a tombstoned row held before: the new row
        // takes over that row's referencing rows (joins are by value).
        let table = &self.tables[id.0 as usize];
        let replaces = table
            .schema
            .primary_key
            .and_then(|pk| table.pk_slot(row.get(pk)?));
        let rid = self.tables[id.0 as usize].insert(row)?;
        self.generation += 1;
        self.indexed_generation = Some(self.generation);
        for (edge, fx) in self.schema_graph.edges().iter().zip(&mut self.fk_index) {
            if edge.to == id {
                fx.push_referenced();
                match replaces {
                    Some(old) => fx.inherit(old, rid),
                    None => fx.adopt_orphans(
                        &self.tables[edge.from.0 as usize],
                        edge.fk_column,
                        self.tables[id.0 as usize].get(rid, edge.pk_column),
                        rid,
                    ),
                }
            }
            if edge.from == id {
                fx.push_referencing(edge, &self.tables, rid);
            }
        }
        let tid = TupleId::new(id, rid);
        let t = &self.tables[id.0 as usize];
        let mut tokens: Vec<String> = Vec::new();
        for column in t.schema.text_columns() {
            if let Some(text) = t.get(rid, column).as_text() {
                for tok in tokenize(text) {
                    self.text_index.add(&tok, Posting { tuple: tid, tf: 1 });
                    tokens.push(tok);
                }
            }
        }
        Arc::make_mut(&mut self.corpus).add_doc(&tokens);
        self.text_index.set_tuple_count(id, t.live_len());
        Ok(tid)
    }

    /// Delete the row of `table` whose primary key equals `pk`: tombstones
    /// the row slot and removes every index posting of the tuple, so it is
    /// gone from all query paths on return. Requires a fresh index, like
    /// [`ingest`](Self::ingest). No cascade: referencing rows keep their FK
    /// value and simply lose the join partner.
    pub fn delete(&mut self, table: &str, pk: &Value) -> Result<TupleId> {
        let id = self.table_id(table)?;
        self.check_index_fresh()?;
        let t = &mut self.tables[id.0 as usize];
        let rid = t.lookup_pk(pk).ok_or_else(|| {
            KwdbError::UnknownObject(format!("{table} row with primary key {pk}"))
        })?;
        t.delete(rid);
        let live = t.live_len();
        let tid = TupleId::new(id, rid);
        // The payload stays in place under the row tombstone, so the tokens
        // the row was indexed and counted with are still readable.
        let tokens = self.tuple_tokens(tid);
        self.text_index.delete_tuple(tid, &tokens);
        self.text_index.set_tuple_count(id, live);
        Arc::make_mut(&mut self.corpus).remove_doc(&tokens);
        self.generation += 1;
        self.indexed_generation = Some(self.generation);
        Ok(tid)
    }

    /// A generation event and nothing else: the index needs no sealing
    /// (`ingest` and `delete` edit it in place), but a commit still bumps
    /// the generation, so anything keyed on it (result cache, tuple-set
    /// cache) recomputes. Only on a fresh index — a stale database stays
    /// stale (the gap between `generation` and `indexed_generation` is
    /// preserved) so a commit can never mask a missing rebuild.
    pub fn commit_index(&mut self) {
        if self.is_index_fresh() {
            self.generation += 1;
            self.indexed_generation = Some(self.generation);
        }
    }

    /// [`commit_index`](Self::commit_index) under its old compaction name.
    /// Kept only for `benchmark/`, deleted by ROADMAP 1(a).
    pub fn merge_index(&mut self) {
        self.commit_index();
    }

    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| KwdbError::UnknownObject(name.to_string()))
    }

    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    /// Resolve a `"table.column"` attribute reference — a facet, a
    /// refinement, a navigation attribute — to `(TableId, column index)`.
    pub fn resolve_attr(&self, attr: &str) -> Result<(TableId, usize)> {
        let (tname, cname) = attr.split_once('.').ok_or_else(|| {
            KwdbError::InvalidQuery(format!(
                "facet attribute `{attr}` must be of the form table.column"
            ))
        })?;
        let table = self.table_id(tname)?;
        let col = self
            .table(table)
            .schema
            .columns
            .iter()
            .position(|c| c.name == cname)
            .ok_or_else(|| KwdbError::UnknownObject(format!("{tname}.{cname}")))?;
        Ok((table, col))
    }

    pub fn table_by_name(&self, name: &str) -> Result<&Table> {
        Ok(self.table(self.table_id(name)?))
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of live tuples across all tables.
    pub fn tuple_count(&self) -> usize {
        self.tables.iter().map(|t| t.live_len()).sum()
    }

    pub fn schema_graph(&self) -> &SchemaGraph {
        &self.schema_graph
    }

    /// A stable fingerprint of the schema: table names, column names and
    /// order, primary keys, and schema-graph edges. Two databases with equal
    /// fingerprints generate identical candidate networks for the same
    /// tuple-set masks, which is what keys the plan cache.
    pub fn schema_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for t in &self.tables {
            t.schema.name.hash(&mut h);
            t.schema.primary_key.hash(&mut h);
            for c in &t.schema.columns {
                c.name.hash(&mut h);
            }
        }
        for e in self.schema_graph.edges() {
            (e.from.0, e.to.0, e.fk_column, e.pk_column).hash(&mut h);
        }
        h.finish()
    }

    /// (Re)build the full-text inverted index over all text columns,
    /// recording the build wall-clock in the index's stats.
    pub fn build_text_index(&mut self) {
        let start = std::time::Instant::now();
        let mut ix = InvertedIndex::new();
        for t in &self.tables {
            ix.set_tuple_count(t.id, t.live_len());
            let text_cols: Vec<usize> = t.schema.text_columns().collect();
            for (rid, row) in t.iter() {
                let tuple = TupleId::new(t.id, rid);
                for &c in &text_cols {
                    if let Some(text) = row[c].as_text() {
                        for tok in tokenize(text) {
                            ix.add(&tok, Posting { tuple, tf: 1 });
                        }
                    }
                }
            }
        }
        ix.shrink_to_fit();
        self.fk_index = self
            .schema_graph
            .edges()
            .iter()
            .map(|edge| FkIndex::build(edge, &self.tables))
            .collect();
        ix.set_build_time(start.elapsed());
        self.text_index = ix;
        self.corpus = Arc::new(self.scan_corpus());
        self.indexed_generation = Some(self.generation);
    }

    /// Document statistics of the live tuples, by a scan of all of them.
    fn scan_corpus(&self) -> CorpusStats {
        let mut stats = CorpusStats::new();
        for t in &self.tables {
            for (rid, _) in t.iter() {
                stats.add_doc(&self.tuple_tokens(TupleId::new(t.id, rid)));
            }
        }
        stats
    }

    /// A no-op: every posting list is a sorted `Vec`. Kept only for
    /// `benchmark/`, deleted by ROADMAP 1(a).
    pub fn set_posting_layout(&mut self, _: Layout) {}

    /// The full-text index, or a typed error when it does not reflect the
    /// current data: [`KwdbError::IndexNotBuilt`] before the first
    /// [`build_text_index`](Self::build_text_index), [`KwdbError::IndexStale`]
    /// after a raw [`insert`](Self::insert) left it behind.
    pub fn text_index(&self) -> Result<&InvertedIndex> {
        self.check_index_fresh()?;
        Ok(&self.text_index)
    }

    /// Term statistics over every live tuple, one "document" per tuple —
    /// what a tf·idf scorer weighs keywords with. Equal to a scan of the
    /// tuples as of the last [`build_text_index`](Self::build_text_index),
    /// [`ingest`](Self::ingest) or [`delete`](Self::delete), and behind the
    /// same typed freshness check as [`text_index`](Self::text_index).
    pub fn corpus(&self) -> Result<&Arc<CorpusStats>> {
        self.check_index_fresh()?;
        Ok(&self.corpus)
    }

    fn check_index_fresh(&self) -> Result<()> {
        match self.indexed_generation {
            None => Err(KwdbError::IndexNotBuilt),
            Some(g) if g != self.generation => Err(KwdbError::IndexStale {
                indexed: g,
                current: self.generation,
            }),
            Some(_) => Ok(()),
        }
    }

    /// Whether the index reflects the current data.
    pub fn is_index_fresh(&self) -> bool {
        self.indexed_generation == Some(self.generation)
    }

    /// Current data generation: bumped by every mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generation the text index reflects; `None` until the first build.
    pub fn indexed_generation(&self) -> Option<u64> {
        self.indexed_generation
    }

    /// All tokens of a tuple's indexed text columns, for scoring.
    pub fn tuple_tokens(&self, tid: TupleId) -> Vec<String> {
        let t = self.table(tid.table);
        let mut toks = Vec::new();
        for c in t.schema.text_columns() {
            if let Some(text) = t.get(tid.row, c).as_text() {
                toks.extend(tokenize(text));
            }
        }
        toks
    }

    /// Follow a tuple's foreign keys to the referenced tuples.
    pub fn fk_neighbors(&self, tid: TupleId) -> Vec<TupleId> {
        let mut out = Vec::new();
        let t = self.table(tid.table);
        for fk in self
            .schema_graph
            .edges()
            .iter()
            .filter(|e| e.from == tid.table)
        {
            let key = t.get(tid.row, fk.fk_column);
            if key.is_null() {
                continue;
            }
            let target = self.table(fk.to);
            if let Some(r) = target.lookup_pk(key) {
                out.push(TupleId::new(fk.to, r));
            }
        }
        out
    }

    /// The live row of schema edge `edge`'s referenced (`to`) table that
    /// `referencing`, a row of its `from` table, points at — one hop of
    /// [`fk_neighbors`](Self::fk_neighbors) read off the FK index: no value
    /// is fetched, hashed or compared. By value all the same, exactly
    /// `lookup_pk` of the row's FK value: a NULL or dangling FK finds
    /// nothing, nor does one whose target was deleted, and once a deleted
    /// row's primary key is ingested again its referencing rows find the
    /// new row.
    ///
    /// Reflects the data as of the last
    /// [`build_text_index`](Self::build_text_index) or
    /// [`ingest`](Self::ingest), like
    /// [`referencing_rows`](Self::referencing_rows).
    pub fn referenced_row(&self, edge: usize, referencing: RowId) -> Option<RowId> {
        let to = self.table(self.schema_graph.edges()[edge].to);
        self.fk_index[edge]
            .target(referencing)
            .filter(|&r| !to.is_deleted(r))
    }

    /// Live rows of schema edge `edge`'s referencing (`from`) table whose FK
    /// column equals the primary key of `referenced`, a live row of its
    /// `to` table — the reverse direction of
    /// [`referenced_row`](Self::referenced_row), read off the same index
    /// without touching any other row. By value, like a hash join over the
    /// same rows: a NULL FK is chained nowhere, and a row that re-uses a
    /// deleted row's primary key has that row's referencing rows.
    ///
    /// Reflects the data as of the last
    /// [`build_text_index`](Self::build_text_index) or
    /// [`ingest`](Self::ingest), exactly like the text index; callers hold
    /// a fresh one (tuple sets cannot be built otherwise).
    pub fn referencing_rows(
        &self,
        edge: usize,
        referenced: RowId,
    ) -> impl Iterator<Item = RowId> + '_ {
        let from = self.table(self.schema_graph.edges()[edge].from);
        self.fk_index[edge]
            .chain(referenced)
            .filter(|&r| !from.is_deleted(r))
    }

    /// Rows of `table` whose column `col` equals `value` (sequential scan;
    /// FK joins go through [`crate::join`] with a hash table, or through
    /// the FK index: [`referenced_row`](Self::referenced_row) and
    /// [`referencing_rows`](Self::referencing_rows)).
    pub fn scan_eq(&self, table: TableId, col: usize, value: &Value) -> Vec<RowId> {
        self.table(table)
            .iter()
            .filter(|(_, row)| &row[col] == value)
            .map(|(rid, _)| rid)
            .collect()
    }

    /// Render a tuple for display: `table(v1, v2, …)`.
    pub fn format_tuple(&self, tid: TupleId) -> String {
        let t = self.table(tid.table);
        let vals: Vec<String> = t.row(tid.row).iter().map(|v| v.to_string()).collect();
        format!("{}({})", t.schema.name, vals.join(", "))
    }
}

/// Convenience: the classic DBLP-style schema used in the tutorial's examples
/// (author, paper, conference, write, cite). Tests across the workspace share
/// this fixture.
pub fn dblp_schema(db: &mut Database) -> Result<()> {
    use crate::schema::ColumnType;
    db.create_table(
        TableBuilder::new("conference")
            .column("cid", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("year", ColumnType::Int)
            .primary_key("cid"),
    )?;
    db.create_table(
        TableBuilder::new("author")
            .column("aid", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key("aid"),
    )?;
    db.create_table(
        TableBuilder::new("paper")
            .column("pid", ColumnType::Int)
            .column("title", ColumnType::Text)
            .column("cid", ColumnType::Int)
            .primary_key("pid")
            .foreign_key("cid", "conference"),
    )?;
    db.create_table(
        TableBuilder::new("write")
            .column("wid", ColumnType::Int)
            .column("aid", ColumnType::Int)
            .column("pid", ColumnType::Int)
            .primary_key("wid")
            .foreign_key("aid", "author")
            .foreign_key("pid", "paper"),
    )?;
    db.create_table(
        TableBuilder::new("cite")
            .column("id", ColumnType::Int)
            .column("citing", ColumnType::Int)
            .column("cited", ColumnType::Int)
            .primary_key("id")
            .foreign_key("citing", "paper")
            .foreign_key("cited", "paper"),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn small_db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        db.insert("author", vec![1.into(), "Jennifer Widom".into()])
            .unwrap();
        db.insert("author", vec![2.into(), "John Smith".into()])
            .unwrap();
        db.insert(
            "paper",
            vec![10.into(), "XML keyword search".into(), 1.into()],
        )
        .unwrap();
        db.insert("write", vec![100.into(), 1.into(), 10.into()])
            .unwrap();
        db.build_text_index();
        db
    }

    #[test]
    fn create_and_insert() {
        let db = small_db();
        assert_eq!(db.table_count(), 5);
        assert_eq!(db.tuple_count(), 5);
        assert_eq!(db.table_by_name("author").unwrap().len(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = Database::new();
        db.create_table(TableBuilder::new("t").column("a", ColumnType::Int))
            .unwrap();
        assert!(db
            .create_table(TableBuilder::new("t").column("a", ColumnType::Int))
            .is_err());
    }

    #[test]
    fn fk_requires_existing_target_with_pk() {
        let mut db = Database::new();
        let r = db.create_table(
            TableBuilder::new("w")
                .column("aid", ColumnType::Int)
                .foreign_key("aid", "missing"),
        );
        assert!(r.is_err());
        db.create_table(TableBuilder::new("nopk").column("x", ColumnType::Int))
            .unwrap();
        let r = db.create_table(
            TableBuilder::new("w")
                .column("aid", ColumnType::Int)
                .foreign_key("aid", "nopk"),
        );
        assert!(r.is_err());
    }

    #[test]
    fn schema_graph_built_from_fks() {
        let db = small_db();
        // paper→conference, write→author, write→paper, cite→paper ×2 = 5 edges
        assert_eq!(db.schema_graph().edges().len(), 5);
        let paper = db.table_id("paper").unwrap();
        // paper touches: paper→conference, write→paper, cite→paper ×2
        assert_eq!(db.schema_graph().degree(paper), 4);
    }

    #[test]
    fn text_index_finds_keywords() {
        let db = small_db();
        let ix = db.text_index().unwrap();
        assert_eq!(ix.postings("widom").len(), 1);
        assert_eq!(ix.postings("xml").len(), 1);
        let author = db.table_id("author").unwrap();
        assert_eq!(ix.rows_in("john", author), vec![RowId(1)]);
    }

    #[test]
    fn never_built_index_is_typed_error() {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("author", vec![1.into(), "Widom".into()]).unwrap();
        assert_eq!(db.text_index().unwrap_err(), KwdbError::IndexNotBuilt);
        assert!(!db.is_index_fresh());
    }

    #[test]
    fn stale_index_is_typed_error() {
        let mut db = small_db();
        let gen_at_build = db.generation();
        db.insert("author", vec![3.into(), "New Author".into()])
            .unwrap();
        match db.text_index() {
            Err(KwdbError::IndexStale { indexed, current }) => {
                assert_eq!(indexed, gen_at_build);
                assert_eq!(current, gen_at_build + 1);
            }
            other => panic!("expected IndexStale, got {other:?}"),
        }
        // ingest refuses to maintain an index that is already behind
        assert!(matches!(
            db.ingest("author", vec![4.into(), "X".into()]),
            Err(KwdbError::IndexStale { .. })
        ));
        // a rebuild restores freshness
        db.build_text_index();
        assert!(db.is_index_fresh());
        assert!(db.text_index().is_ok());
    }

    #[test]
    fn ingest_indexes_immediately_and_validates_fks() {
        let mut db = small_db();
        let t0 = db
            .ingest("author", vec![3.into(), "Alan Turing".into()])
            .unwrap();
        assert!(db.is_index_fresh());
        let ix = db.text_index().unwrap();
        assert_eq!(ix.postings("turing").len(), 1, "visible without commit");
        assert_eq!(ix.postings("turing").to_vec()[0].tuple, t0);

        // dangling FK rejected, and nothing was inserted or indexed
        let before = db.tuple_count();
        assert!(matches!(
            db.ingest("paper", vec![11.into(), "Bad ref".into(), 99.into()]),
            Err(KwdbError::Schema(_))
        ));
        assert_eq!(db.tuple_count(), before);
        assert!(db.text_index().unwrap().postings("bad").is_empty());
        assert!(db.is_index_fresh(), "failed ingest does not dirty anything");

        // valid FK accepted; NULL FK accepted
        db.ingest("paper", vec![11.into(), "Turing award".into(), 1.into()])
            .unwrap();
        db.ingest("paper", vec![12.into(), "Orphan note".into(), Value::Null])
            .unwrap();
        assert_eq!(db.text_index().unwrap().postings("turing").len(), 2);

        // commit is a generation event only; results unchanged
        let generation = db.generation();
        db.commit_index();
        assert_eq!(db.generation(), generation + 1);
        assert_eq!(db.text_index().unwrap().postings("turing").len(), 2);
    }

    #[test]
    fn delete_removes_row_and_postings() {
        let mut db = small_db();
        let author = db.table_id("author").unwrap();
        let tid = db.delete("author", &2.into()).unwrap();
        assert_eq!(tid, TupleId::new(author, RowId(1)));
        assert!(db.is_index_fresh());
        let ix = db.text_index().unwrap();
        assert!(ix.postings("john").is_empty(), "postings gone at once");
        assert!(ix.rows_in("smith", author).is_empty());
        assert_eq!(ix.index_stats().postings, 6, "the two postings are freed");
        assert_eq!(db.tuple_count(), 4);
        assert!(db.scan_eq(author, 0, &2.into()).is_empty());
        // unknown pk is a typed error
        assert!(matches!(
            db.delete("author", &99.into()),
            Err(KwdbError::UnknownObject(_))
        ));
        assert_eq!(db.text_index().unwrap().doc_freq("widom"), 1);
        assert_eq!(
            db.text_index().unwrap().doc_freq("john"),
            0,
            "exact at once"
        );
    }

    #[test]
    fn generation_counts_every_mutation() {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        assert_eq!(db.generation(), 0);
        assert_eq!(db.indexed_generation(), None);
        db.insert("author", vec![1.into(), "A".into()]).unwrap();
        assert_eq!(db.generation(), 1);
        db.build_text_index();
        assert_eq!(db.indexed_generation(), Some(1));
        db.ingest("author", vec![2.into(), "B".into()]).unwrap();
        assert_eq!(db.generation(), 2);
        assert_eq!(db.indexed_generation(), Some(2));
        db.delete("author", &1.into()).unwrap();
        assert_eq!(db.generation(), 3);
        assert_eq!(db.indexed_generation(), Some(3));
    }

    #[test]
    fn fk_neighbors_follow_references() {
        let db = small_db();
        let write = db.table_id("write").unwrap();
        let n = db.fk_neighbors(TupleId::new(write, RowId(0)));
        assert_eq!(n.len(), 2); // author 1 and paper 10
        let author = db.table_id("author").unwrap();
        assert!(db.fk_neighbors(TupleId::new(author, RowId(0))).is_empty());
    }

    /// The maintained document statistics against a fresh scan of the live
    /// tuples: document and token totals, and every term's two frequencies.
    fn assert_corpus_matches_scan(db: &Database) {
        let (kept, scanned) = (db.corpus().unwrap(), db.scan_corpus());
        assert_eq!(kept.doc_count(), scanned.doc_count());
        assert_eq!(kept.doc_count(), db.tuple_count());
        assert_eq!(kept.total_tokens(), scanned.total_tokens());
        let terms = |stats: &CorpusStats| {
            let mut terms: Vec<(String, usize, u64)> = stats
                .terms()
                .map(|t| (t.to_string(), stats.doc_freq(t), stats.coll_freq(t)))
                .collect();
            terms.sort();
            terms
        };
        assert_eq!(terms(kept), terms(&scanned));
    }

    /// Both directions of the FK index against their by-value definitions:
    /// `referencing_rows` of every live referenced row is a scan of the
    /// referencing table for its key, and `referenced_row` of every live
    /// referencing row is `lookup_pk` of its FK value. The other structure
    /// the same mutations maintain rides along: the document statistics
    /// equal a fresh scan.
    fn assert_fk_index_matches_values(db: &Database) {
        assert_corpus_matches_scan(db);
        for (ei, e) in db.schema_graph().edges().iter().enumerate() {
            for (rid, row) in db.table(e.to).iter() {
                let mut indexed: Vec<RowId> = db.referencing_rows(ei, rid).collect();
                indexed.sort();
                let scanned = db.scan_eq(e.from, e.fk_column, &row[e.pk_column]);
                assert_eq!(indexed, scanned, "edge {ei}, referenced row {rid:?}");
            }
            for (rid, row) in db.table(e.from).iter() {
                assert_eq!(
                    db.referenced_row(ei, rid),
                    db.table(e.to).lookup_pk(&row[e.fk_column]),
                    "edge {ei}, referencing row {rid:?}"
                );
            }
        }
    }

    #[test]
    fn reverse_fk_index_joins_by_value_through_every_mutation() {
        let mut db = small_db();
        db.insert("write", vec![101.into(), Value::Null, 10.into()])
            .unwrap(); // NULL FK: chained nowhere
        db.insert("write", vec![102.into(), 1.into(), 77.into()])
            .unwrap(); // dangling FK: paper 77 does not exist yet
        db.build_text_index();
        assert_fk_index_matches_values(&db);
        let write = db.table_id("write").unwrap();
        let edge_to = |to: &str| {
            let to = db.table_id(to).unwrap();
            let edges = db.schema_graph().edges();
            let found = edges.iter().position(|e| e.from == write && e.to == to);
            found.unwrap()
        };
        let (wa, wp) = (edge_to("author"), edge_to("paper"));
        let (w100, w101, w102) = (RowId(0), RowId(1), RowId(2));
        assert_eq!(
            db.referenced_row(wa, w101),
            None,
            "a NULL FK points nowhere"
        );
        assert_eq!(db.referenced_row(wp, w102), None, "a dangling FK too");

        // the paper the dangling write was waiting for arrives
        let p77 = db
            .ingest("paper", vec![77.into(), "Late".into(), 1.into()])
            .unwrap();
        assert_eq!(db.referencing_rows(wp, p77.row).count(), 1);
        assert_eq!(db.referenced_row(wp, w102), Some(p77.row));
        assert_fk_index_matches_values(&db);

        // delete a referenced row, then re-ingest its primary key: the
        // referencing rows lose their partner and get it back
        db.ingest("write", vec![103.into(), 2.into(), 10.into()])
            .unwrap();
        let old_p10 = db.referenced_row(wp, w100).unwrap();
        db.delete("paper", &10.into()).unwrap();
        assert_eq!(db.referenced_row(wp, w100), None, "the target is dead");
        assert_fk_index_matches_values(&db);
        let p10 = db
            .ingest("paper", vec![10.into(), "Again".into(), 1.into()])
            .unwrap();
        assert_ne!(p10.row, old_p10);
        assert_eq!(db.referencing_rows(wp, p10.row).count(), 3);
        for w in [w100, w101, RowId(3)] {
            assert_eq!(db.referenced_row(wp, w), Some(p10.row), "re-pointed");
        }
        assert_fk_index_matches_values(&db);

        // a second death and rebirth of the same key moves the chain again
        db.delete("paper", &10.into()).unwrap();
        assert_fk_index_matches_values(&db);
        let p10 = db
            .ingest("paper", vec![10.into(), "Thrice".into(), 1.into()])
            .unwrap();
        assert_eq!(db.referenced_row(wp, w100), Some(p10.row));
        assert_fk_index_matches_values(&db);

        // a deleted referencing row drops out of its chain
        db.delete("write", &103.into()).unwrap();
        assert_eq!(db.referencing_rows(wp, p10.row).count(), 2);
        assert_fk_index_matches_values(&db);

        // a commit leaves the FK index alone
        db.commit_index();
        assert_fk_index_matches_values(&db);

        // and a rebuild from scratch agrees with the maintained index
        let mut rebuilt = db.clone();
        rebuilt.build_text_index();
        assert_fk_index_matches_values(&rebuilt);

        // a raw insert leaves the statistics behind, like the text index
        let kept = Arc::clone(db.corpus().unwrap());
        db.insert("author", vec![9.into(), "Raw Insert".into()])
            .unwrap();
        assert!(matches!(db.corpus(), Err(KwdbError::IndexStale { .. })));
        db.build_text_index();
        assert_eq!(db.corpus().unwrap().doc_count(), kept.doc_count() + 1);
        assert_eq!(kept.doc_freq("raw"), 0, "a handle keeps what it saw");
        assert_fk_index_matches_values(&db);
    }

    #[test]
    fn table_created_after_the_build_joins_through_the_reverse_index() {
        // The index over `author` is built and fresh; a table referencing
        // it arrives afterwards (no generation bump) and is ingested into.
        let mut db = small_db();
        let note = db
            .create_table(
                TableBuilder::new("note")
                    .column("nid", ColumnType::Int)
                    .column("aid", ColumnType::Int)
                    .column("body", ColumnType::Text)
                    .primary_key("nid")
                    .foreign_key("aid", "author"),
            )
            .unwrap();
        assert!(db.is_index_fresh());
        let edge = db
            .schema_graph()
            .edges()
            .iter()
            .position(|e| e.from == note)
            .unwrap();
        assert_eq!(db.referencing_rows(edge, RowId(0)).count(), 0);
        db.ingest("note", vec![1.into(), 1.into(), "first".into()])
            .unwrap();
        db.ingest("author", vec![3.into(), "Late Author".into()])
            .unwrap();
        db.ingest("note", vec![2.into(), 3.into(), "second".into()])
            .unwrap();
        db.ingest("note", vec![3.into(), 1.into(), "third".into()])
            .unwrap();
        let widom: Vec<RowId> = db.referencing_rows(edge, RowId(0)).collect();
        assert_eq!(widom, vec![RowId(2), RowId(0)]);
        assert_fk_index_matches_values(&db);
        let mut rebuilt = db.clone();
        rebuilt.build_text_index();
        assert_fk_index_matches_values(&rebuilt);

        // A table whose second FK does not resolve leaves no edge behind.
        let edges = db.schema_graph().edges().len();
        assert!(db
            .create_table(
                TableBuilder::new("bad")
                    .column("aid", ColumnType::Int)
                    .column("xid", ColumnType::Int)
                    .foreign_key("aid", "author")
                    .foreign_key("xid", "missing"),
            )
            .is_err());
        assert_eq!(db.schema_graph().edges().len(), edges);
        db.build_text_index();
        assert_fk_index_matches_values(&db);
    }

    #[test]
    fn scan_eq_finds_rows() {
        let db = small_db();
        let paper = db.table_id("paper").unwrap();
        assert_eq!(db.scan_eq(paper, 2, &1.into()), vec![RowId(0)]);
        assert!(db.scan_eq(paper, 2, &99.into()).is_empty());
    }

    #[test]
    fn tuple_tokens_concatenate_text_cols() {
        let db = small_db();
        let author = db.table_id("author").unwrap();
        let toks = db.tuple_tokens(TupleId::new(author, RowId(0)));
        assert_eq!(toks, vec!["jennifer", "widom"]);
    }

    #[test]
    fn format_tuple_renders() {
        let db = small_db();
        let author = db.table_id("author").unwrap();
        assert_eq!(
            db.format_tuple(TupleId::new(author, RowId(0))),
            "author(1, Jennifer Widom)"
        );
    }
}
