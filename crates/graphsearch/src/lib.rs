//! Graph-based keyword search.
//!
//! Slide 29 of the tutorial lays out the taxonomy of graph answer semantics;
//! this crate implements one engine per family:
//!
//! | Semantics | System | Module |
//! |---|---|---|
//! | (Group) Steiner tree, exact top-k | DPBF (Ding et al., ICDE 07) | [`dpbf`] |
//! | Steiner tree, approximate | BANKS I backward search (ICDE 02) | [`banks1`] |
//! | Steiner tree, approximate | BANKS II bidirectional search (VLDB 05) | [`banks2`] |
//! | Steiner tree, approximate | shortest-path-tree heuristic (STAR-style) | [`approx`] |
//! | Distinct root | BLINKS node→keyword index + TA (SIGMOD 07) | [`blinks`] |
//! | Distinct core / community | Qin et al. (ICDE 09) | [`community`] |
//! | r-radius Steiner subgraph | EASE (SIGMOD 08) | [`ease`] |
//!
//! [`proximity_search`] is the family's ancestor (Goldman et al., VLDB 98;
//! slide 25): rank *find*-objects by distance to *near*-objects, optionally
//! served from the hub index.
//!
//! All engines consume a [`kwdb_graph::DataGraph`] and produce
//! [`answer::AnswerTree`]s (or subgraphs), so they are directly comparable —
//! experiment E34 runs the whole zoo on one graph.

pub mod answer;
pub mod approx;
pub mod banks1;
pub mod banks2;
pub mod blinks;
pub mod community;
pub mod dpbf;
pub mod ease;
pub mod proximity_search;
pub mod scratch;

pub use answer::AnswerTree;
pub use banks1::BanksI;
pub use banks2::BanksII;
pub use blinks::Blinks;
pub use dpbf::Dpbf;
pub use scratch::SearchScratch;

/// Per-query work counters returned by the budgeted graph engines.
///
/// Each engine fills only the counters that describe its own work and
/// leaves the rest at zero, so one type serves the whole zoo and callers
/// (the unified engine, benches) can translate into [`kwdb_common::QueryStats`]
/// without per-engine plumbing. Returning the counters alongside the
/// results — instead of stashing them in the engine as BANKS/DPBF/BLINKS
/// historically did — keeps every engine `&self`-callable and `Sync`, so a
/// single instance can serve concurrent queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Nodes settled by backward expansion (BANKS I).
    pub nodes_expanded: usize,
    /// Settled nodes whose edges the expansions relaxed (BANKS I); the rest
    /// were settled past the last distance the search had to know.
    pub nodes_relaxed: usize,
    /// DP states popped from the priority queue (DPBF).
    pub states_popped: usize,
    /// Sorted index accesses (BLINKS TA).
    pub sorted_accesses: usize,
    /// Random index accesses (BLINKS TA).
    pub random_accesses: usize,
}
