//! Tuple storage.

use crate::schema::{TableId, TableSchema};
use kwdb_common::{KwdbError, Result, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Dense row identifier within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

/// Globally unique tuple identifier: `(table, row)`. This is also the node
/// identity when a database is viewed as a data graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    pub table: TableId,
    pub row: RowId,
}

impl TupleId {
    pub fn new(table: TableId, row: RowId) -> Self {
        TupleId { table, row }
    }
}

/// A tuple: one value per column.
pub type Row = Vec<Value>;

/// A table: schema plus row store plus a primary-key index.
#[derive(Debug, Clone)]
pub struct Table {
    pub id: TableId,
    pub schema: TableSchema,
    rows: Vec<Row>,
    /// PK value → the row slot that last held it, maintained when a primary
    /// key is declared. A tombstoned row keeps its entry (lookups filter it
    /// out) so a later insert of the same key can find the slot it replaces
    /// — the reverse-FK index re-homes that slot's referencing rows.
    pk_index: HashMap<Value, RowId>,
    /// Tombstone bitmap, one bit per row slot. Row ids are never reused:
    /// deleted slots stay allocated so `RowId`s held by postings and FK
    /// edges remain stable; iteration and scans skip dead slots.
    deleted: Vec<u64>,
    dead: u32,
}

impl Table {
    pub(crate) fn new(id: TableId, schema: TableSchema) -> Self {
        Table {
            id,
            schema,
            rows: Vec::new(),
            pk_index: HashMap::new(),
            deleted: Vec::new(),
            dead: 0,
        }
    }

    /// Insert a typed row; checks arity, column types and PK uniqueness.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        if row.len() != self.schema.arity() {
            return Err(KwdbError::Schema(format!(
                "table {}: expected {} values, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.schema.columns) {
            if let Some(vt) = v.value_type() {
                let compatible = vt == c.ty
                    || (vt == kwdb_common::value::ValueType::Int
                        && c.ty == kwdb_common::value::ValueType::Float);
                if !compatible {
                    return Err(KwdbError::TypeMismatch {
                        expected: match c.ty {
                            kwdb_common::value::ValueType::Int => "int",
                            kwdb_common::value::ValueType::Float => "float",
                            kwdb_common::value::ValueType::Text => "text",
                            kwdb_common::value::ValueType::Bool => "bool",
                        },
                        found: v.type_name(),
                    });
                }
            }
        }
        let rid = RowId(self.rows.len() as u32);
        if let Some(pk) = self.schema.primary_key {
            let key = row[pk].clone();
            if key.is_null() {
                return Err(KwdbError::Schema(format!(
                    "table {}: NULL primary key",
                    self.schema.name
                )));
            }
            match self.pk_index.entry(key) {
                Entry::Occupied(e) if !bit_set(&self.deleted, e.get().0 as usize) => {
                    return Err(KwdbError::Schema(format!(
                        "table {}: duplicate primary key {}",
                        self.schema.name, row[pk]
                    )));
                }
                Entry::Occupied(mut e) => {
                    e.insert(rid);
                }
                Entry::Vacant(e) => {
                    e.insert(rid);
                }
            }
        }
        self.rows.push(row);
        Ok(rid)
    }

    /// Tombstone a row: mark the slot dead, which hides it from
    /// [`lookup_pk`](Self::lookup_pk). The slot itself (and its `RowId`)
    /// stays allocated forever. Returns `false` if the row was already dead.
    pub fn delete(&mut self, id: RowId) -> bool {
        let i = id.0 as usize;
        assert!(i < self.rows.len(), "delete: row {i} out of bounds");
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.deleted.len() <= word {
            self.deleted.resize(word + 1, 0);
        }
        if self.deleted[word] & bit != 0 {
            return false;
        }
        self.deleted[word] |= bit;
        self.dead += 1;
        true
    }

    /// Whether this row slot has been tombstoned by [`Table::delete`].
    pub fn is_deleted(&self, id: RowId) -> bool {
        bit_set(&self.deleted, id.0 as usize)
    }

    /// The tombstone bitmap, one bit per row slot, as far as any slot has
    /// been deleted.
    pub(crate) fn tombstones(&self) -> &[u64] {
        &self.deleted
    }

    pub fn row(&self, id: RowId) -> &Row {
        &self.rows[id.0 as usize]
    }

    pub fn get(&self, id: RowId, col: usize) -> &Value {
        &self.rows[id.0 as usize][col]
    }

    /// Look up a live row by primary-key value.
    pub fn lookup_pk(&self, key: &Value) -> Option<RowId> {
        self.pk_slot(key).filter(|&r| !self.is_deleted(r))
    }

    /// The row slot that last held primary key `key`, live or tombstoned.
    pub fn pk_slot(&self, key: &Value) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Number of row **slots** (including tombstoned ones); `RowId`s range
    /// over `0..len()`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Number of live (non-deleted) rows.
    pub fn live_len(&self) -> usize {
        self.rows.len() - self.dead as usize
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate `(RowId, &Row)` over **live** rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| (RowId(i as u32), r))
            .filter(|(id, _)| !self.is_deleted(*id))
    }
}

pub(crate) fn bit_set(bitmap: &[u64], i: usize) -> bool {
    bitmap
        .get(i / 64)
        .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, TableBuilder};

    fn table() -> Table {
        let schema = TableBuilder::new("author")
            .column("aid", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key("aid")
            .build()
            .unwrap();
        Table::new(TableId(0), schema)
    }

    #[test]
    fn insert_and_read() {
        let mut t = table();
        let r = t.insert(vec![1.into(), "Widom".into()]).unwrap();
        assert_eq!(t.get(r, 1).as_text(), Some("Widom"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_checked() {
        let mut t = table();
        assert!(t.insert(vec![1.into()]).is_err());
    }

    #[test]
    fn type_checked() {
        let mut t = table();
        assert!(t.insert(vec!["oops".into(), "Widom".into()]).is_err());
    }

    #[test]
    fn null_allowed_in_non_pk() {
        let mut t = table();
        assert!(t.insert(vec![1.into(), Value::Null]).is_ok());
    }

    #[test]
    fn pk_uniqueness_and_lookup() {
        let mut t = table();
        t.insert(vec![7.into(), "a".into()]).unwrap();
        assert!(t.insert(vec![7.into(), "b".into()]).is_err());
        assert!(t.insert(vec![Value::Null, "c".into()]).is_err());
        assert_eq!(t.lookup_pk(&7.into()), Some(RowId(0)));
        assert_eq!(t.lookup_pk(&8.into()), None);
    }

    #[test]
    fn delete_tombstones_and_frees_pk() {
        let mut t = table();
        let r0 = t.insert(vec![1.into(), "a".into()]).unwrap();
        let r1 = t.insert(vec![2.into(), "b".into()]).unwrap();
        assert!(t.delete(r0));
        assert!(!t.delete(r0), "double delete is a no-op");
        assert!(t.is_deleted(r0));
        assert!(!t.is_deleted(r1));
        assert_eq!(t.len(), 2, "slots stay allocated");
        assert_eq!(t.live_len(), 1);
        assert_eq!(t.lookup_pk(&1.into()), None, "dead rows are not found");
        assert_eq!(t.pk_slot(&1.into()), Some(r0), "the slot is remembered");
        assert_eq!(t.lookup_pk(&2.into()), Some(r1));
        let live: Vec<RowId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(live, vec![r1], "iteration skips tombstones");
        // The PK value of a deleted row may be inserted again (new slot).
        let r2 = t.insert(vec![1.into(), "a2".into()]).unwrap();
        assert_eq!(r2, RowId(2));
        assert_eq!(t.lookup_pk(&1.into()), Some(r2));
    }

    #[test]
    fn int_widens_to_float_column() {
        let schema = TableBuilder::new("m")
            .column("price", ColumnType::Float)
            .build()
            .unwrap();
        let mut t = Table::new(TableId(0), schema);
        assert!(t.insert(vec![3.into()]).is_ok());
    }
}
