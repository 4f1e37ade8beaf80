//! Data-graph substrate for kwdb.
//!
//! Graph-based keyword search (BANKS, DPBF, BLINKS, EASE, …) models the
//! database as a graph: tuples (or XML elements, or RDF resources) are nodes,
//! foreign keys are edges, and answers are small connecting structures. This
//! crate provides:
//!
//! * [`graph::DataGraph`] — weighted undirected graphs with node kinds,
//!   content keywords, and a keyword → node index;
//! * [`graph::from_database`] — the tuple-graph view of a relational
//!   [`Database`](kwdb_relational::Database) (node per tuple, edge per FK
//!   pair), the representation BANKS introduced;
//! * [`shortest`] — Dijkstra and multi-source Dijkstra;
//! * [`hub`] — the hub-based distance index of Goldman et al. (VLDB 98):
//!   `d(x,y) = min(d*(x,y), d*(x,A) + d_H(A,B) + d*(B,y))`;
//! * [`node2kw`] — node-to-keyword distance lists (the SLINKS/BLINKS index),
//!   with distance-sorted cursors for threshold-algorithm consumption and a
//!   next-hop link per node for answer paths; the graph builds one per
//!   keyword, on first use.

pub mod graph;
pub mod hub;
pub mod node2kw;
pub mod shortest;

pub use graph::{DataGraph, GraphBuilder, NodeId};
pub use hub::HubIndex;
pub use node2kw::DistanceList;
