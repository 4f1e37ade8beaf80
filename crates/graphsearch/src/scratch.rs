//! Reusable per-query buffers for BANKS, DPBF and BLINKS.
//!
//! Everything the three engines key by node during a search is an array
//! indexed by `NodeId.0`, as long as the graph. Allocating those per query
//! would cost `O(|V|)` before the first node is settled, so a caller that
//! serves many queries keeps a [`SearchScratch`] (the unified engine pools
//! them) and each structure resets only the entries its last query touched.
//! A search's result never depends on what the scratch was used for before.

use crate::dpbf::StateTable;
use kwdb_graph::shortest::Expansion;
use kwdb_graph::{DataGraph, NodeId};

/// Buffers for one query at a time; `Default` is an empty scratch that
/// grows to the graph on first use.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// BANKS: one backward expansion per keyword.
    pub(crate) expansions: Vec<Expansion>,
    /// BANKS: the groups that settled a node. BLINKS: roots already scored.
    pub(crate) marks: NodeMarks,
    /// DPBF's `(node, keyword subset)` states.
    pub(crate) states: StateTable,
}

/// The first `n` of `pool`, created on demand.
pub(crate) fn first_n(pool: &mut Vec<Expansion>, n: usize) -> &mut [Expansion] {
    if pool.len() < n {
        pool.resize_with(n, Expansion::default);
    }
    &mut pool[..n]
}

/// A `u32` of flag bits per node, all zero after [`begin`](Self::begin).
#[derive(Debug, Default)]
pub(crate) struct NodeMarks {
    bits: Vec<u32>,
    touched: Vec<NodeId>,
}

impl NodeMarks {
    pub(crate) fn begin(&mut self, g: &DataGraph) {
        for n in self.touched.drain(..) {
            self.bits[n.0 as usize] = 0;
        }
        self.bits.resize(g.node_count(), 0);
    }

    /// OR `bits` (non-zero) into `n`'s mark and return the mark it had.
    pub(crate) fn or(&mut self, n: NodeId, bits: u32) -> u32 {
        let slot = &mut self.bits[n.0 as usize];
        let before = *slot;
        if before == 0 {
            self.touched.push(n);
        }
        *slot |= bits;
        before
    }
}
