//! Foreign-key index: for one schema edge, every FK resolved to a row id
//! once — the referenced row of each referencing row, and the referencing
//! rows of each referenced row as intrusive singly linked chains.
//!
//! Three flat `u32` arrays per edge and nothing per key value:
//!
//! * `target[s]` — the referenced row slot that referencing row slot `s`
//!   points at (the forward direction: what [`Table::lookup_pk`] of its FK
//!   value would find, without hashing the value);
//! * `first[r]` — the most recently linked referencing row of referenced
//!   row slot `r`;
//! * `next[s]` — the row that follows referencing row slot `s` in its chain.
//!
//! That is 4 bytes per referenced row slot plus 8 bytes per referencing row
//! slot, per edge, whatever the key type. `target[s] == r` exactly when `s`
//! is on `r`'s chain.
//!
//! # Joins stay by value
//!
//! A chain hangs off a row *slot*, and a `target` entry names one, but what
//! they stand for is a primary-key *value*: every row of the referencing
//! table whose FK column equals that value, and the live row holding it.
//! The owner ([`crate::Database`]) keeps slots and values in step, in both
//! directions at once:
//!
//! * deleting a referenced row leaves its chain on the dead slot and the
//!   chain's `target`s pointing at it — nothing enters the chain, because
//!   chains are only entered from live rows, and the forward reader drops a
//!   tombstoned target;
//! * inserting a row whose primary key a dead slot held before
//!   [`inherit`](FkIndex::inherit)s that slot's chain and re-points every
//!   `target` along it, so the referencing rows get their partner back;
//! * a referencing row whose FK value matches no primary key ever seen (a
//!   dangling reference left by a raw `insert`) has no `target`, waits in
//!   `orphans` and is [`adopt`](FkIndex::adopt_orphans)ed by the first row
//!   that arrives with that key. A NULL FK has no `target` and waits nowhere.
//!
//! Tombstoned referencing rows stay linked and are skipped by the reader.

use crate::schema::SchemaEdge;
use crate::table::{bit_set, RowId, Table};
use kwdb_common::Value;

const NIL: u32 = u32::MAX;

/// The index of one schema edge. Row arguments are slots of the edge's `to`
/// table (`referenced`) or `from` table (`referencing`).
#[derive(Debug, Clone)]
pub(crate) struct FkIndex {
    target: Vec<u32>,
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
            target: Vec::new(),
            first: vec![NIL; referenced_len],
            next: Vec::new(),
            orphans: Vec::new(),
        }
    }

    /// Build the index of `edge` over every live referencing row.
    pub(crate) fn build(edge: &SchemaEdge, tables: &[Table]) -> Self {
        let from = &tables[edge.from.0 as usize];
        let mut ix = FkIndex {
            target: vec![NIL; from.len()],
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
        self.target.push(NIL);
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
        self.target[referencing as usize] = referenced.0;
    }

    /// Referenced row `new` took over the primary key dead slot `old` held:
    /// move `old`'s chain under it and point the chain's rows at it.
    pub(crate) fn inherit(&mut self, old: RowId, new: RowId) {
        let mut at = std::mem::replace(&mut self.first[old.0 as usize], NIL);
        self.first[new.0 as usize] = at;
        while at != NIL {
            self.target[at as usize] = new.0;
            at = self.next[at as usize];
        }
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

    /// This index read together with the tombstones of `from`, its edge's
    /// referencing table, and `to`, its referenced one.
    pub(crate) fn view<'a>(&'a self, from: &'a Table, to: &'a Table) -> FkEdge<'a> {
        FkEdge {
            target: &self.target,
            first: &self.first,
            next: &self.next,
            from_dead: from.tombstones(),
            to_dead: to.tombstones(),
        }
    }
}

/// One schema edge's FK index with both tables' tombstone words, resolved
/// once ([`crate::Database::fk_edge`]): following the edge from a row is a
/// few array reads, with no lookup through the database, its tables or its
/// edge list. A join step holds one for as long as it runs. By value, like
/// [`crate::Database::referenced_row`] and
/// [`crate::Database::referencing_rows`], which read through it.
#[derive(Debug, Clone, Copy)]
pub struct FkEdge<'a> {
    target: &'a [u32],
    first: &'a [u32],
    next: &'a [u32],
    /// Tombstone words of the referencing (`from`) and referenced (`to`)
    /// tables.
    from_dead: &'a [u64],
    to_dead: &'a [u64],
}

impl<'a> FkEdge<'a> {
    /// The live referenced row `referencing` points at. A NULL or dangling
    /// FK, a tombstoned target, and a slot past the indexed range (the
    /// index is behind the table) point nowhere.
    #[inline]
    pub fn referenced(&self, referencing: RowId) -> Option<RowId> {
        match self.target.get(referencing.0 as usize) {
            Some(&slot) if slot != NIL && !bit_set(self.to_dead, slot as usize) => {
                Some(RowId(slot))
            }
            _ => None,
        }
    }

    /// The live referencing rows chained under `referenced`, in chain
    /// order; tombstoned ones are skipped. A slot past the indexed range
    /// has no chain.
    #[inline]
    pub fn referencing(&self, referenced: RowId) -> impl Iterator<Item = RowId> + 'a {
        let (next, dead) = (self.next, self.from_dead);
        let mut at = self
            .first
            .get(referenced.0 as usize)
            .copied()
            .unwrap_or(NIL);
        std::iter::from_fn(move || loop {
            let row = at;
            at = *next.get(row as usize)?; // NIL is out of range
            if !bit_set(dead, row as usize) {
                return Some(RowId(row));
            }
        })
    }
}
