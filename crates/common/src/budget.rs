//! Execution budgets and per-query statistics — the observability and
//! robustness substrate every engine threads through its pipeline.
//!
//! A [`Budget`] caps how long a single query may run (wall-clock deadline)
//! and how many candidates it may consider (candidate networks for the
//! relational engines, expanded answer roots for the graph engines, result
//! subtrees for XML). Engines check it at phase boundaries and inside their
//! top-k loops; an exhausted budget makes them return the best results found
//! so far, flagged as truncated, instead of running unbounded — the
//! industrial-strength behaviour of Baid et al. (ICDE 10) generalized to all
//! three data models.
//!
//! [`QueryStats`] is the matching observability record: per-phase wall-clock
//! timings, the operator counters the tutorial compares engines on, candidate
//! and pruned counts, and plan-cache hit/miss counters. Every search through
//! the unified API returns one instead of dropping it on the floor.

use std::time::{Duration, Instant};

/// A per-query execution budget.
///
/// The default budget is unlimited; builders add constraints:
///
/// ```
/// use kwdb_common::budget::Budget;
/// use std::time::Duration;
/// let b = Budget::unlimited()
///     .with_timeout(Duration::from_millis(50))
///     .with_max_candidates(10_000);
/// assert!(!b.exhausted());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Absolute wall-clock deadline; `None` = no time limit.
    deadline: Option<Instant>,
    /// Cap on candidates considered (CNs evaluated, roots expanded…);
    /// `None` = no cap.
    max_candidates: Option<u64>,
}

impl Budget {
    /// A budget with no constraints — every check passes.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Constrain by a deadline `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Constrain the number of candidates considered.
    pub fn with_max_candidates(mut self, n: u64) -> Self {
        self.max_candidates = Some(n);
        self
    }

    /// The absolute deadline, if one is set: what a loop that reads the
    /// clock only every so many iterations holds, paying one branch per
    /// iteration when there is none.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True if the deadline has passed (cheap: one `Instant::now()`).
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// True if `candidates` exceeds the candidate cap.
    pub fn candidates_exceeded(&self, candidates: u64) -> bool {
        self.max_candidates.is_some_and(|m| candidates >= m)
    }

    /// True if the deadline alone is violated (candidate-free check for
    /// phase boundaries).
    pub fn exhausted(&self) -> bool {
        self.deadline_exceeded()
    }

    /// Whether this budget constrains anything at all.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_candidates.is_none()
    }

    /// Remaining wall-clock time, if a deadline is set.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Why the budget is exhausted at `candidates` consumed, if it is.
    ///
    /// The candidate cap is checked first: it is deterministic (a function
    /// of the work done, not the wall clock), so when both constraints are
    /// violated the reported reason is stable across runs and identical
    /// between serial and concurrent execution.
    pub fn truncation_at(&self, candidates: u64) -> Option<TruncationReason> {
        if self.candidates_exceeded(candidates) {
            Some(TruncationReason::CandidateCapReached)
        } else if self.deadline_exceeded() {
            Some(TruncationReason::DeadlineExceeded)
        } else {
            None
        }
    }

    /// Deadline-only variant of [`Budget::truncation_at`] for phase
    /// boundaries, where no candidate count applies.
    pub fn truncation(&self) -> Option<TruncationReason> {
        self.deadline_exceeded()
            .then_some(TruncationReason::DeadlineExceeded)
    }
}

/// Why a query was cut short: the typed replacement for the old bare
/// `truncated: bool`, so callers (and the metrics registry) can tell an
/// overloaded deployment (deadlines firing) from an over-tight candidate
/// cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// The wall-clock deadline passed mid-query.
    DeadlineExceeded,
    /// The candidate cap was consumed before evaluation finished.
    CandidateCapReached,
}

impl TruncationReason {
    /// Stable metric-label value: `"deadline"` or `"candidate_cap"`.
    pub fn as_str(self) -> &'static str {
        match self {
            TruncationReason::DeadlineExceeded => "deadline",
            TruncationReason::CandidateCapReached => "candidate_cap",
        }
    }

    /// The inverse of [`as_str`](Self::as_str), for readers of serialized
    /// records (the flight-recorder dump); `None` for unknown labels.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "deadline" => Some(TruncationReason::DeadlineExceeded),
            "candidate_cap" => Some(TruncationReason::CandidateCapReached),
            _ => None,
        }
    }
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Wall-clock timings of the pipeline phases every engine shares.
///
/// Phases a given engine does not have (XML has no CN generation) stay at
/// zero. `candidates` covers "build the per-keyword material" — tuple sets
/// for relational, the node→keyword index for BLINKS, inverted-list lookups
/// for XML.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Query-string parsing / keyword extraction.
    pub parse: Duration,
    /// Tuple-set build / keyword-index build / inverted-list lookup.
    pub build: Duration,
    /// Candidate-network generation / answer enumeration setup.
    pub plan: Duration,
    /// Top-k evaluation (the main loop).
    pub evaluate: Duration,
    /// The facet count pass and finalization (sorting/truncating the
    /// distributions), then hit rendering and summaries.
    pub facets: Duration,
}

impl PhaseTimings {
    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        self.parse + self.build + self.plan + self.evaluate + self.facets
    }
}

/// Operator-level counters, mirroring `ExecStats` from the relational
/// storage layer so the unified response type needs no dependency on it.
/// Graph engines report sorted/random index accesses; XML engines report
/// scanned inverted-list entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorCounts {
    pub tuples_scanned: u64,
    pub join_probes: u64,
    pub joins_executed: u64,
    pub rows_output: u64,
    /// Sorted index accesses (BLINKS TA, inverted-list cursors).
    pub sorted_accesses: u64,
    /// Random index accesses (BLINKS TA probes).
    pub random_accesses: u64,
    /// Rows matched by hash-join probes (the build-table hit volume, as
    /// opposed to `join_probes` which counts probe *attempts*).
    pub join_probe_rows: u64,
    /// Always zero: nothing writes or merges it. Kept only for
    /// `benchmark/`, deleted by ROADMAP 1(a).
    pub blocks_skipped: u64,
}

/// Everything a single query execution reports back.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Per-phase wall-clock timings.
    pub phases: PhaseTimings,
    /// Operator counters accumulated during evaluation.
    pub operators: OperatorCounts,
    /// Candidates generated (CNs, graph roots discovered, XML roots).
    pub candidates_generated: u64,
    /// Candidates pruned/skipped by bounds or the budget.
    pub candidates_pruned: u64,
    /// Candidate networks actually joined during top-k evaluation
    /// (relational engines only; zero elsewhere).
    pub cns_evaluated: u64,
    /// Candidate networks skipped — bound-pruned, cut by the budget, or
    /// without a node a drill-down refinement could match —
    /// so `cns_evaluated + cns_pruned` equals the CNs generated.
    pub cns_pruned: u64,
    /// Plan-cache hits for this query (1 when the CN set came from cache).
    pub cache_hits: u64,
    /// Plan-cache misses for this query.
    pub cache_misses: u64,
    /// Result-cache hits (1 when the whole sealed response came from the
    /// engine's result cache; all other work counters are then near-zero).
    pub result_cache_hits: u64,
    /// Result-cache misses (1 when the result cache was consulted and the
    /// response had to be computed). Queries that never consult the cache —
    /// cache disabled, tracing on, constrained budget — report 0/0.
    pub result_cache_misses: u64,
}

impl QueryStats {
    pub fn new() -> Self {
        QueryStats::default()
    }

    /// Accumulate another query's record into this one: phase timings,
    /// operator counters, candidate counts, and cache counters all add up.
    /// The dispatcher uses this to report fleet-wide totals for a batch of
    /// concurrently executed requests.
    ///
    /// The implementation destructures `other` exhaustively (no `..` rest
    /// pattern), so adding a field to [`QueryStats`], [`PhaseTimings`], or
    /// [`OperatorCounts`] without deciding how it merges is a compile
    /// error — a counter can never again be silently dropped from
    /// dispatcher totals.
    pub fn merge(&mut self, other: &QueryStats) {
        let QueryStats {
            phases:
                PhaseTimings {
                    parse,
                    build,
                    plan,
                    evaluate,
                    facets,
                },
            operators:
                OperatorCounts {
                    tuples_scanned,
                    join_probes,
                    joins_executed,
                    rows_output,
                    sorted_accesses,
                    random_accesses,
                    join_probe_rows,
                    blocks_skipped: _,
                },
            candidates_generated,
            candidates_pruned,
            cns_evaluated,
            cns_pruned,
            cache_hits,
            cache_misses,
            result_cache_hits,
            result_cache_misses,
        } = other;
        self.phases.parse += *parse;
        self.phases.build += *build;
        self.phases.plan += *plan;
        self.phases.evaluate += *evaluate;
        self.phases.facets += *facets;
        self.operators.tuples_scanned += tuples_scanned;
        self.operators.join_probes += join_probes;
        self.operators.joins_executed += joins_executed;
        self.operators.rows_output += rows_output;
        self.operators.sorted_accesses += sorted_accesses;
        self.operators.random_accesses += random_accesses;
        self.operators.join_probe_rows += join_probe_rows;
        self.candidates_generated += candidates_generated;
        self.candidates_pruned += candidates_pruned;
        self.cns_evaluated += cns_evaluated;
        self.cns_pruned += cns_pruned;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.result_cache_hits += result_cache_hits;
        self.result_cache_misses += result_cache_misses;
    }
}

/// A tiny stopwatch for phase timing: `lap()` returns the time since the
/// previous lap (or construction) and restarts.
#[derive(Debug)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            last: Instant::now(),
        }
    }

    /// Elapsed time since the last lap; resets the lap marker.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.last;
        self.last = now;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.exhausted());
        assert!(b.is_unlimited());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn zero_timeout_exhausts_immediately() {
        let b = Budget::unlimited().with_timeout(Duration::ZERO);
        assert!(b.exhausted());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn candidate_cap_checks_count() {
        let b = Budget::unlimited().with_max_candidates(10);
        assert!(!b.candidates_exceeded(9));
        assert!(b.candidates_exceeded(10));
        assert!(b.candidates_exceeded(11));
        assert!(!b.exhausted(), "no deadline set");
    }

    #[test]
    fn generous_deadline_not_exceeded() {
        let b = Budget::unlimited().with_timeout(Duration::from_secs(3600));
        assert!(!b.exhausted());
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn merge_accumulates_every_counter() {
        let mut a = QueryStats {
            phases: PhaseTimings {
                parse: Duration::from_millis(1),
                build: Duration::from_millis(2),
                plan: Duration::from_millis(3),
                evaluate: Duration::from_millis(4),
                facets: Duration::from_millis(5),
            },
            operators: OperatorCounts {
                tuples_scanned: 1,
                join_probes: 2,
                joins_executed: 3,
                rows_output: 4,
                sorted_accesses: 5,
                random_accesses: 6,
                join_probe_rows: 7,
                blocks_skipped: 0,
            },
            candidates_generated: 7,
            candidates_pruned: 8,
            cns_evaluated: 11,
            cns_pruned: 12,
            cache_hits: 9,
            cache_misses: 10,
            result_cache_hits: 15,
            result_cache_misses: 16,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.phases.total(), Duration::from_millis(30));
        assert_eq!(a.operators.tuples_scanned, 2);
        assert_eq!(a.operators.random_accesses, 12);
        assert_eq!(a.operators.join_probe_rows, 14);
        assert_eq!(a.candidates_generated, 14);
        assert_eq!(a.candidates_pruned, 16);
        assert_eq!(a.cns_evaluated, 22);
        assert_eq!(a.cns_pruned, 24);
        assert_eq!(a.cache_hits, 18);
        assert_eq!(a.cache_misses, 20);
        assert_eq!(a.result_cache_hits, 30);
        assert_eq!(a.result_cache_misses, 32);
    }

    #[test]
    fn merge_of_default_is_identity() {
        let mut a = QueryStats::new();
        a.cache_hits = 3;
        a.merge(&QueryStats::default());
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.phases.total(), Duration::ZERO);
    }

    /// Compile guard: constructs every stats struct with a full field list
    /// (no `..Default::default()`), so adding a field breaks this test's
    /// compilation until both the literal here and [`QueryStats::merge`]
    /// (itself an exhaustive destructure) account for it.
    #[test]
    fn merge_compile_guard_covers_every_field() {
        let unit = QueryStats {
            phases: PhaseTimings {
                parse: Duration::from_nanos(1),
                build: Duration::from_nanos(1),
                plan: Duration::from_nanos(1),
                evaluate: Duration::from_nanos(1),
                facets: Duration::from_nanos(1),
            },
            operators: OperatorCounts {
                tuples_scanned: 1,
                join_probes: 1,
                joins_executed: 1,
                rows_output: 1,
                sorted_accesses: 1,
                random_accesses: 1,
                join_probe_rows: 1,
                blocks_skipped: 0,
            },
            candidates_generated: 1,
            candidates_pruned: 1,
            cns_evaluated: 1,
            cns_pruned: 1,
            cache_hits: 1,
            cache_misses: 1,
            result_cache_hits: 1,
            result_cache_misses: 1,
        };
        let mut acc = QueryStats::new();
        acc.merge(&unit);
        // every field of the all-ones record must land in the total
        assert_eq!(acc.phases.total(), Duration::from_nanos(5));
        let OperatorCounts {
            tuples_scanned,
            join_probes,
            joins_executed,
            rows_output,
            sorted_accesses,
            random_accesses,
            join_probe_rows,
            blocks_skipped: _,
        } = acc.operators;
        assert_eq!(
            [
                tuples_scanned,
                join_probes,
                joins_executed,
                rows_output,
                sorted_accesses,
                random_accesses,
                join_probe_rows,
                acc.candidates_generated,
                acc.candidates_pruned,
                acc.cns_evaluated,
                acc.cns_pruned,
                acc.cache_hits,
                acc.cache_misses,
                acc.result_cache_hits,
                acc.result_cache_misses,
            ],
            [1; 15],
            "merge dropped a counter"
        );
    }

    #[test]
    fn truncation_reason_prefers_deterministic_cap() {
        let b = Budget::unlimited()
            .with_max_candidates(5)
            .with_timeout(Duration::ZERO);
        // both constraints violated ⇒ the deterministic one wins
        assert_eq!(
            b.truncation_at(5),
            Some(TruncationReason::CandidateCapReached)
        );
        // only the deadline violated
        assert_eq!(b.truncation_at(0), Some(TruncationReason::DeadlineExceeded));
        assert_eq!(b.truncation(), Some(TruncationReason::DeadlineExceeded));

        let unlimited = Budget::unlimited();
        assert_eq!(unlimited.truncation_at(u64::MAX - 1), None);
        assert_eq!(unlimited.truncation(), None);
        assert_eq!(TruncationReason::DeadlineExceeded.as_str(), "deadline");
        assert_eq!(
            TruncationReason::CandidateCapReached.to_string(),
            "candidate_cap"
        );
        for r in [
            TruncationReason::DeadlineExceeded,
            TruncationReason::CandidateCapReached,
        ] {
            assert_eq!(TruncationReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(TruncationReason::parse("bogus"), None);
    }

    #[test]
    fn stopwatch_laps_accumulate() {
        let mut sw = Stopwatch::start();
        let a = sw.lap();
        let b = sw.lap();
        let t = PhaseTimings {
            parse: a,
            evaluate: b,
            ..Default::default()
        };
        assert_eq!(t.total(), a + b);
    }
}
