//! The shared term-dictionary + posting-list core every substrate index is
//! built on.
//!
//! The three data models (relational tuples, XML nodes, graph nodes) all
//! start a query the same way: look a normalized term up in a dictionary and
//! walk its sorted posting list. Before this module each substrate kept its
//! own `HashMap<String, Vec<…>>`, re-hashing raw strings on every probe and
//! cloning every term during build. The shared core instead:
//!
//! * interns each distinct term exactly once, to a dense [`Sym`] id
//!   ([`crate::intern::Interner`]);
//! * stores one [`PostingList`] per term in a [`TermIndex`], indexed by
//!   `Sym`: a `Vec` sorted by the posting's [`Posting::sort_key`], the only
//!   physical format, which adds and removals edit in place;
//! * provides the merge/intersection kernels ([`kernels`]) — linear merge
//!   and galloping (exponential-search) intersection chosen by list-size
//!   ratio — plus the `lm`/`rm` binary probes the SLCA family is built from.
//!
//! Query paths resolve each term to a [`Sym`] **once** up front
//! (one dictionary lookup per query term), then work purely on dense ids
//! and slices — no string hashing in any per-candidate loop.
//!
//! [`Sym`]: crate::intern::Sym

pub mod kernels;
pub mod posting;
pub mod term_index;

pub use posting::{IndexStats, Posting, PostingCursor, PostingIter, PostingList, Postings};
pub use term_index::TermIndex;

/// Selects nothing: every posting list is a sorted `Vec`. Kept only for
/// `benchmark/`, deleted by ROADMAP 1(a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Layout {
    #[default]
    Plain,
    Blocks,
}
