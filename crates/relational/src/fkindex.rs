//! Reverse foreign-key index: for one schema edge, the referencing rows of
//! each referenced row, as intrusive singly linked chains.
//!
//! The forward direction of an FK join is already indexed — a referencing
//! row's FK value resolves through the referenced table's primary-key index
//! ([`Table::lookup_pk`]). This is the other direction: given a referenced
//! row, which rows point at it. Two flat `u32` arrays per edge and nothing
//! per key value:
//!
//! * `first[r]` — the most recently linked referencing row of referenced
//!   row slot `r`;
//! * `next[s]` — the row that follows referencing row slot `s` in its chain.
//!
//! That is 4 bytes per referenced row slot plus 4 bytes per referencing row
//! slot, per edge, whatever the key type.
//!
//! # Joins stay by value
//!
//! A chain hangs off a row *slot*, but what it stands for is a primary-key
//! *value*: every row of the referencing table whose FK column equals that
//! value. The owner ([`crate::Database`]) keeps the two in step:
//!
//! * deleting a referenced row leaves its chain on the dead slot — nothing
//!   reaches it, because chains are only entered from live rows;
//! * inserting a row whose primary key a dead slot held before
//!   [`inherit`](FkIndex::inherit)s that slot's chain, so the referencing
//!   rows get their partner back;
//! * a referencing row whose FK value matches no primary key ever seen (a
//!   dangling reference left by a raw `insert`) waits in `orphans` and is
//!   [`adopt`](FkIndex::adopt_orphans)ed by the first row that arrives with
//!   that key.
//!
//! Tombstoned referencing rows stay linked and are skipped by the reader.

use crate::schema::SchemaEdge;
use crate::table::{RowId, Table};
use kwdb_common::Value;

const NIL: u32 = u32::MAX;

/// The reverse index of one schema edge. Row arguments are slots of the
/// edge's `to` table (`referenced`) or `from` table (`referencing`).
#[derive(Debug, Clone)]
pub(crate) struct FkIndex {
    first: Vec<u32>,
    next: Vec<u32>,
    /// Referencing rows with a non-NULL FK value no referenced row slot has
    /// ever held. Empty unless raw `insert` left dangling references.
    orphans: Vec<u32>,
}

impl FkIndex {
    /// The index of an edge whose referencing table was just created, and
    /// is empty, over a referenced table of `referenced_len` row slots.
    pub(crate) fn for_new_table(referenced_len: usize) -> Self {
        FkIndex {
            first: vec![NIL; referenced_len],
            next: Vec::new(),
            orphans: Vec::new(),
        }
    }

    /// Build the index of `edge` over every live referencing row.
    pub(crate) fn build(edge: &SchemaEdge, tables: &[Table]) -> Self {
        let from = &tables[edge.from.0 as usize];
        let mut ix = FkIndex {
            first: vec![NIL; tables[edge.to.0 as usize].len()],
            next: vec![NIL; from.len()],
            orphans: Vec::new(),
        };
        // Newest first, so chains read in ascending row order.
        for slot in (0..from.len() as u32).rev() {
            if !from.is_deleted(RowId(slot)) {
                ix.link(edge, tables, RowId(slot));
            }
        }
        ix
    }

    /// A row was appended to the referenced table.
    pub(crate) fn push_referenced(&mut self) {
        self.first.push(NIL);
    }

    /// A row was appended to the referencing table: chain it under the
    /// slot holding its FK value.
    pub(crate) fn push_referencing(&mut self, edge: &SchemaEdge, tables: &[Table], row: RowId) {
        self.next.push(NIL);
        self.link(edge, tables, row);
    }

    fn link(&mut self, edge: &SchemaEdge, tables: &[Table], row: RowId) {
        let key = tables[edge.from.0 as usize].get(row, edge.fk_column);
        if key.is_null() {
            return;
        }
        match tables[edge.to.0 as usize].pk_slot(key) {
            Some(slot) => self.prepend(slot, row.0),
            None => self.orphans.push(row.0),
        }
    }

    fn prepend(&mut self, referenced: RowId, referencing: u32) {
        let head = &mut self.first[referenced.0 as usize];
        self.next[referencing as usize] = *head;
        *head = referencing;
    }

    /// Referenced row `new` took over the primary key dead slot `old` held:
    /// move `old`'s chain under it.
    pub(crate) fn inherit(&mut self, old: RowId, new: RowId) {
        self.first[new.0 as usize] = std::mem::replace(&mut self.first[old.0 as usize], NIL);
    }

    /// Referenced row `new` arrived with a never-seen primary key `pk`:
    /// chain the orphans that were waiting for it.
    pub(crate) fn adopt_orphans(&mut self, from: &Table, fk_column: usize, pk: &Value, new: RowId) {
        let mut orphans = std::mem::take(&mut self.orphans);
        orphans.retain(|&o| {
            let waiting = from.get(RowId(o), fk_column) != pk;
            if !waiting {
                self.prepend(new, o);
            }
            waiting
        });
        self.orphans = orphans;
    }

    /// Every referencing row slot chained under `referenced`, tombstoned
    /// ones included. A slot past the indexed range (the index is behind
    /// the table) has no chain.
    pub(crate) fn chain(&self, referenced: RowId) -> impl Iterator<Item = RowId> + '_ {
        let mut at = self
            .first
            .get(referenced.0 as usize)
            .copied()
            .unwrap_or(NIL);
        std::iter::from_fn(move || {
            let row = at;
            at = *self.next.get(row as usize)?; // NIL is out of range
            Some(RowId(row))
        })
    }
}
