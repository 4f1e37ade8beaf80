//! Shared primitives for the `kwdb` workspace.
//!
//! This crate deliberately has no dependency on any of the search or storage
//! crates: it holds the vocabulary types everything else speaks —
//! [`Value`] for typed cell contents, the
//! [tokenizer](text::tokenize) every full-text index uses, the bounded
//! [top-k collector](topk::TopK), string-edit distances for query cleaning, a
//! string [interner](intern::Interner), and the shared
//! [term-dictionary + posting-list index core](index) every substrate's
//! inverted index is built on.

pub mod budget;
pub mod cache;
pub mod error;
pub mod facet;
pub mod index;
pub mod intern;
pub mod rng;
pub mod scratch;
pub mod strutil;
pub mod text;
pub mod topk;
pub mod value;

pub use budget::{
    Budget, OperatorCounts, Phase, PhaseTimings, QueryStats, Stopwatch, TruncationReason,
};
pub use cache::{CacheConfig, CacheStats, Looked, ShardedCache};
pub use error::{KwdbError, Result};
pub use facet::{FacetCount, FacetCounts, FacetSpec, RangeBucket};
pub use rng::Rng;
pub use scratch::{Scratch, ScratchPool};
pub use value::Value;

/// The cores this process may run on
/// ([`std::thread::available_parallelism`], 1 when it cannot say), asked
/// once per process. The standard-library call re-reads the scheduler
/// affinity mask and the cgroup CPU quota files every time — microseconds,
/// which is most of a result-cache hit — and what it reports is fixed at
/// process start. The dispatcher sizes its pool by it.
pub fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// An ordered `f64` wrapper for use in heaps and sorted maps.
///
/// Scores in keyword search are finite floats; this wrapper defines a total
/// order by treating NaN as the smallest value so it can never win a top-k
/// slot by accident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score(pub f64);

impl Eq for Score {}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.0.is_nan(), other.0.is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (false, false) => self.0.partial_cmp(&other.0).unwrap(),
        }
    }
}

impl From<f64> for Score {
    fn from(v: f64) -> Self {
        Score(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_orders_floats() {
        assert!(Score(1.0) < Score(2.0));
        assert!(Score(-1.0) < Score(0.0));
        assert_eq!(Score(3.5), Score(3.5));
    }

    #[test]
    fn score_nan_is_smallest() {
        assert!(Score(f64::NAN) < Score(f64::NEG_INFINITY));
        assert_eq!(
            Score(f64::NAN).cmp(&Score(f64::NAN)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn score_sorts_in_vec() {
        let mut v = [Score(2.0), Score(f64::NAN), Score(1.0)];
        v.sort();
        assert_eq!(v[1], Score(1.0));
        assert_eq!(v[2], Score(2.0));
    }
}
