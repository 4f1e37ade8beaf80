//! In-memory relational substrate for kwdb.
//!
//! Relational keyword search (DISCOVER, SPARK, BANKS over tuple graphs, …)
//! needs a database engine underneath: a typed schema with foreign keys, a
//! tuple store, equi-joins, selections, and a full-text inverted index over
//! text attributes. This crate is that engine, sized for the workloads the
//! ICDE 2011 tutorial discusses (10⁵–10⁶ tuples) and instrumented so the
//! benchmark harness can count tuples scanned, join probes performed, and
//! rows produced — the cost metrics the tutorial's efficiency section
//! compares engines on.
//!
//! # Quick tour
//!
//! ```
//! use kwdb_relational::{Database, TableBuilder, ColumnType};
//!
//! let mut db = Database::new();
//! db.create_table(
//!     TableBuilder::new("author")
//!         .column("aid", ColumnType::Int)
//!         .column("name", ColumnType::Text)
//!         .primary_key("aid"),
//! ).unwrap();
//! db.create_table(
//!     TableBuilder::new("paper")
//!         .column("pid", ColumnType::Int)
//!         .column("title", ColumnType::Text)
//!         .primary_key("pid"),
//! ).unwrap();
//! db.create_table(
//!     TableBuilder::new("write")
//!         .column("aid", ColumnType::Int)
//!         .column("pid", ColumnType::Int)
//!         .foreign_key("aid", "author")
//!         .foreign_key("pid", "paper"),
//! ).unwrap();
//!
//! db.insert("author", vec![1.into(), "Jennifer Widom".into()]).unwrap();
//! db.insert("paper", vec![10.into(), "XML query processing".into()]).unwrap();
//! db.insert("write", vec![1.into(), 10.into()]).unwrap();
//! db.build_text_index();
//!
//! let hits = db.text_index().unwrap().postings("widom");
//! assert_eq!(hits.len(), 1);
//!
//! // Incremental ingest: indexed immediately, no rebuild needed.
//! db.ingest("author", vec![2.into(), "Alan Turing".into()]).unwrap();
//! assert_eq!(db.text_index().unwrap().postings("turing").len(), 1);
//! db.delete("author", &2.into()).unwrap();
//! assert!(db.text_index().unwrap().postings("turing").is_empty());
//! ```

pub mod database;
mod fkindex;
pub mod index;
pub mod join;
pub mod schema;
pub mod stats;
pub mod table;

pub use database::Database;
pub use fkindex::FkEdge;
pub use index::InvertedIndex;
pub use schema::{
    ColumnDef, ColumnType, ForeignKey, SchemaGraph, TableBuilder, TableId, TableSchema,
};
pub use stats::ExecStats;
pub use table::{Row, RowId, Table, TupleId};
