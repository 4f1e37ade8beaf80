//! The bridge from per-query [`QueryStats`] records to registry metrics.
//!
//! Every engine already returns a `QueryStats` per query;
//! [`EngineInstruments::seal`] folds one into a [`MetricsRegistry`] under
//! `engine × algorithm` labels so fleet-wide totals, rates, and latency
//! distributions accumulate across queries and threads. The metric family
//! names are stable — CI checks them in the exported `BENCH_*.json` — and
//! enumerated in [`families`].
//!
//! # Handle resolution
//!
//! A seal runs on every query, result-cache hits included, so it must cost
//! what it writes: some thirty relaxed atomic adds. An engine therefore
//! attaches to a registry through one [`EngineInstruments`], which resolves
//! each instrument **once, at the moment the string-keyed lookup it
//! replaces would have created it** — everything an `engine × algorithm`
//! class records on every seal at the class's first sealed query, a
//! truncation counter at the first truncation with that reason, the facet
//! counters at the first faceted query — and keeps the `Arc` handle from
//! then on. Resolving lazily rather than at
//! attach time is what keeps a snapshot's label sets what they always were:
//! an engine that never ran SPARK exports no `algorithm="spark"` series.

use crate::flight::QueryRecord;
use crate::hist::Histogram;
use crate::registry::{Counter, MetricsRegistry};
use kwdb_common::budget::TruncationReason;
use kwdb_common::index::IndexStats;
use kwdb_common::{Phase, QueryStats};
use std::sync::{Arc, OnceLock};

/// Stable metric family names: the per-query families recorded by
/// [`EngineInstruments::seal`], the relational plan-cache families, and the
/// dispatcher families. The bench JSON validator checks these exact strings.
pub mod families {
    /// Counter: queries executed, by engine × algorithm.
    pub const QUERIES: &str = "kwdb_queries_total";
    /// Histogram: end-to-end query latency in nanoseconds.
    pub const QUERY_LATENCY: &str = "kwdb_query_latency_ns";
    /// Histogram: per-phase latency in nanoseconds (label `phase`).
    pub const PHASE_LATENCY: &str = "kwdb_phase_latency_ns";
    /// Counter: operator work (label `op`).
    pub const OPERATORS: &str = "kwdb_operators_total";
    /// Counter: candidates generated/pruned (label `kind`).
    pub const CANDIDATES: &str = "kwdb_candidates_total";
    /// Counter: plan-cache lookups (label `outcome` = hit|miss).
    pub const PLAN_CACHE: &str = "kwdb_plan_cache_total";
    /// Counter: truncated queries (label `reason` = deadline|candidate_cap).
    pub const TRUNCATED: &str = "kwdb_queries_truncated_total";
    /// Gauge: current CN plan-cache entry count (relational engine).
    pub const PLAN_CACHE_SIZE: &str = "kwdb_plan_cache_size";
    /// Counter: CN plans generated (cache-miss work), relational engine.
    pub const PLAN_CACHE_GENERATIONS: &str = "kwdb_plan_cache_generations_total";
    /// Counter: CN plan-cache evictions, relational engine.
    pub const PLAN_CACHE_EVICTIONS: &str = "kwdb_plan_cache_evictions_total";
    /// Histogram: time a dispatched request waited before a worker claimed
    /// it (label `mode` = serial|concurrent).
    pub const DISPATCH_QUEUE_WAIT: &str = "kwdb_dispatch_queue_wait_ns";
    /// Gauge: requests currently executing inside a dispatcher.
    pub const DISPATCH_INFLIGHT: &str = "kwdb_dispatch_inflight";
    /// Counter: dispatched requests (label `outcome` = ok|error).
    pub const DISPATCH_REQUESTS: &str = "kwdb_dispatch_requests_total";
    /// Counter: dispatched requests per worker (label `worker`).
    pub const DISPATCH_WORKER_REQUESTS: &str = "kwdb_dispatch_worker_requests_total";
    /// Histogram: index build wall-clock in nanoseconds (label `index`).
    pub const INDEX_BUILD: &str = "kwdb_index_build_ns";
    /// Gauge: distinct terms in an index (label `index`).
    pub const INDEX_TERMS: &str = "kwdb_index_terms";
    /// Gauge: stored postings in an index (label `index`).
    pub const INDEX_POSTINGS: &str = "kwdb_index_postings";
    /// Gauge: approximate posting payload bytes of an index (label `index`).
    pub const INDEX_POSTING_BYTES: &str = "kwdb_index_posting_bytes";
    /// Counter: candidate networks actually joined during top-k evaluation.
    pub const CN_EVALUATED: &str = "kwdb_cn_evaluated_total";
    /// Counter: candidate networks skipped (bound-pruned or budget-cut);
    /// together with [`CN_EVALUATED`] this accounts for every CN generated.
    pub const CN_PRUNED: &str = "kwdb_cn_pruned_total";
    /// Counter: rows matched by hash- and index-join probes (probe hit volume).
    pub const JOIN_PROBE_ROWS: &str = "kwdb_join_probe_rows_total";
    /// Counter: faceted queries executed (queries whose request carried at
    /// least one facet spec), by engine.
    pub const FACET_QUERIES: &str = "kwdb_facet_queries_total";
    /// Counter: facet values emitted across all faceted responses (the sum
    /// of `FacetCounts::values.len()` per query), by engine.
    pub const FACET_VALUES: &str = "kwdb_facet_values_total";
    /// Counter: faceted queries whose counts were inexact — the budget
    /// truncated the result multiset, or the scoring model counts only the
    /// returned hits (SPARK), by engine.
    pub const FACET_INEXACT: &str = "kwdb_facet_inexact_total";
    /// Counter: flight-recorder entries overwritten by ring wrap, labeled
    /// by the *overwritten* record's engine — the recorder observing
    /// itself, so dashboards can tell when the retained window is shorter
    /// than the traffic they are diagnosing.
    pub const FLIGHT_DROPPED: &str = "kwdb_flightrec_dropped_total";
    /// Gauge: records currently held in the flight recorder ring.
    pub const FLIGHT_ENTRIES: &str = "kwdb_flightrec_entries";
    /// Counter: queries whose trace was promoted by the registry's
    /// [`SamplePolicy`](crate::flight::SamplePolicy) rather than requested
    /// by the caller, by engine.
    pub const TRACE_SAMPLED: &str = "kwdb_trace_sampled_total";
    /// Gauge: a mutable engine's data generation — bumped by every
    /// successful mutation (label `engine`).
    pub const ENGINE_GENERATION: &str = "kwdb_engine_generation";
    /// Counter: tuples ingested through the incremental path (label
    /// `engine`).
    pub const INGESTED_TUPLES: &str = "kwdb_ingested_tuples_total";
    /// Counter: result-cache hits — queries answered entirely from the
    /// generation-keyed result cache (label `engine`).
    pub const RESULT_CACHE_HITS: &str = "kwdb_result_cache_hits_total";
    /// Counter: result-cache misses — queries that consulted the result
    /// cache and had to compute (label `engine`).
    pub const RESULT_CACHE_MISSES: &str = "kwdb_result_cache_misses_total";
    /// Counter: result-cache entries evicted by the byte/entry budget
    /// (label `engine`).
    pub const RESULT_CACHE_EVICTIONS: &str = "kwdb_result_cache_evictions_total";
    /// Gauge: live result-cache entries (label `engine`).
    pub const RESULT_CACHE_ENTRIES: &str = "kwdb_result_cache_entries";
    /// Gauge: estimated bytes held by the result cache (label `engine`).
    pub const RESULT_CACHE_BYTES: &str = "kwdb_result_cache_bytes";
    /// Never emitted: there is no tuple-set cache. Kept only for
    /// `benchmark/`, deleted by ROADMAP 1(a).
    pub const TUPLESET_CACHE_HITS: &str = "kwdb_tupleset_cache_hits_total";
    /// Never emitted: there is no tuple-set cache. Kept only for
    /// `benchmark/`, deleted by ROADMAP 1(a).
    pub const TUPLESET_CACHE_MISSES: &str = "kwdb_tupleset_cache_misses_total";

    /// The `# HELP` text for a family, used by the Prometheus exporter.
    /// Every emitted family above has an entry; `None` for foreign names
    /// (bench-local families pass through without a HELP line).
    pub fn help(family: &str) -> Option<&'static str> {
        Some(match family {
            QUERIES => "Queries executed, by engine and algorithm.",
            QUERY_LATENCY => "End-to-end query latency in nanoseconds.",
            PHASE_LATENCY => "Per-phase query latency in nanoseconds.",
            OPERATORS => "Operator-level work counts (label op).",
            CANDIDATES => "Candidates generated/pruned (label kind).",
            PLAN_CACHE => "CN plan-cache lookups (label outcome).",
            TRUNCATED => "Queries cut short by their budget (label reason).",
            PLAN_CACHE_SIZE => "Current CN plan-cache entry count.",
            PLAN_CACHE_GENERATIONS => "CN plans generated on cache misses.",
            PLAN_CACHE_EVICTIONS => "CN plan-cache evictions.",
            DISPATCH_QUEUE_WAIT => "Time a dispatched request waited before a worker claimed it.",
            DISPATCH_INFLIGHT => "Requests currently executing inside a dispatcher.",
            DISPATCH_REQUESTS => "Dispatched requests (label outcome).",
            DISPATCH_WORKER_REQUESTS => "Dispatched requests per worker.",
            INDEX_BUILD => "Index build wall-clock in nanoseconds (label index).",
            INDEX_TERMS => "Distinct terms in an index (label index).",
            INDEX_POSTINGS => "Stored postings in an index (label index).",
            INDEX_POSTING_BYTES => "Approximate posting payload bytes of an index (label index).",
            CN_EVALUATED => "Candidate networks joined during top-k evaluation.",
            CN_PRUNED => "Candidate networks skipped by bounds, budget or a refinement none of their results can pass.",
            JOIN_PROBE_ROWS => "Rows matched by hash-join probes.",
            FACET_QUERIES => "Queries that requested at least one facet.",
            FACET_VALUES => "Facet values emitted across faceted responses.",
            FACET_INEXACT => "Faceted queries whose counts are inexact: a deadline cut the count pass.",
            FLIGHT_DROPPED => "Flight-recorder entries overwritten by ring wrap, by the overwritten record's engine.",
            FLIGHT_ENTRIES => "Records currently held in the flight recorder ring.",
            TRACE_SAMPLED => "Queries whose trace was promoted by the sampling policy.",
            ENGINE_GENERATION => "A mutable engine's data generation (bumped per mutation).",
            INGESTED_TUPLES => "Tuples ingested through the incremental path.",
            RESULT_CACHE_HITS => "Queries answered entirely from the result cache.",
            RESULT_CACHE_MISSES => "Queries that consulted the result cache and computed.",
            RESULT_CACHE_EVICTIONS => "Result-cache entries evicted by the byte/entry budget.",
            RESULT_CACHE_ENTRIES => "Live result-cache entries.",
            RESULT_CACHE_BYTES => "Estimated bytes held by the result cache.",
            _ => return None,
        })
    }
}

/// The handles one `engine × algorithm` class of sealed queries records
/// into — every instrument the class touches on every seal, resolved
/// together at the class's first seal.
struct QueryInstruments {
    queries: Arc<Counter>,
    latency: Arc<Histogram>,
    /// By [`Phase`], in [`Phase::ALL`] order.
    phases: [Arc<Histogram>; 5],
    /// In [`Self::record`]'s order.
    operators: [Arc<Counter>; 6],
    /// generated, pruned.
    candidates: [Arc<Counter>; 2],
    cn_evaluated: Arc<Counter>,
    cn_pruned: Arc<Counter>,
    join_probe_rows: Arc<Counter>,
    /// hit, miss — per engine, shared by the engine's classes.
    plan_cache: [Arc<Counter>; 2],
    /// hit, miss — per engine. Both exist from the first seal, even at
    /// zero, so `metrics_check` can require the families before the first
    /// hit ever lands.
    result_cache: [Arc<Counter>; 2],
}

impl QueryInstruments {
    fn resolve(reg: &MetricsRegistry, engine: &str, algorithm: &str) -> Self {
        let ea = [("engine", engine), ("algorithm", algorithm)];
        let with = |key: &'static str, value: &'static str| {
            [("engine", engine), ("algorithm", algorithm), (key, value)]
        };
        let phase = |name| reg.histogram(families::PHASE_LATENCY, &with("phase", name));
        let op = |name| reg.counter(families::OPERATORS, &with("op", name));
        QueryInstruments {
            queries: reg.counter(families::QUERIES, &ea),
            latency: reg.histogram(families::QUERY_LATENCY, &ea),
            phases: Phase::ALL.map(|p| phase(p.name())),
            operators: [
                "tuples_scanned",
                "join_probes",
                "joins_executed",
                "rows_output",
                "sorted_accesses",
                "random_accesses",
            ]
            .map(op),
            candidates: ["generated", "pruned"]
                .map(|kind| reg.counter(families::CANDIDATES, &with("kind", kind))),
            cn_evaluated: reg.counter(families::CN_EVALUATED, &ea),
            cn_pruned: reg.counter(families::CN_PRUNED, &ea),
            join_probe_rows: reg.counter(families::JOIN_PROBE_ROWS, &ea),
            plan_cache: ["hit", "miss"].map(|outcome| {
                reg.counter(
                    families::PLAN_CACHE,
                    &[("engine", engine), ("outcome", outcome)],
                )
            }),
            result_cache: [families::RESULT_CACHE_HITS, families::RESULT_CACHE_MISSES]
                .map(|family| reg.counter(family, &[("engine", engine)])),
        }
    }

    /// Fold one query's stats into the class's instruments.
    fn record(&self, stats: &QueryStats) {
        self.queries.inc();
        self.latency.record_duration(stats.phases.total());
        for (hist, phase) in self.phases.iter().zip(Phase::ALL) {
            hist.record_duration(stats.phases[phase]);
        }
        let o = &stats.operators;
        for (counter, n) in self.operators.iter().zip([
            o.tuples_scanned,
            o.join_probes,
            o.joins_executed,
            o.rows_output,
            o.sorted_accesses,
            o.random_accesses,
        ]) {
            counter.add(n);
        }
        self.candidates[0].add(stats.candidates_generated);
        self.candidates[1].add(stats.candidates_pruned);
        self.cn_evaluated.add(stats.cns_evaluated);
        self.cn_pruned.add(stats.cns_pruned);
        self.join_probe_rows.add(o.join_probe_rows);
        self.plan_cache[0].add(stats.cache_hits);
        self.plan_cache[1].add(stats.cache_misses);
        self.result_cache[0].add(stats.result_cache_hits);
        self.result_cache[1].add(stats.result_cache_misses);
    }
}

/// One class's slot in an [`EngineInstruments`]: the per-seal bundle plus
/// the truncation counters, each resolved at its first use.
struct QueryClass {
    algorithm: &'static str,
    instruments: OnceLock<QueryInstruments>,
    /// By [`TruncationReason`]: deadline, candidate cap.
    truncated: [OnceLock<Arc<Counter>>; 2],
}

/// One faceted query's outcome: how many facet values the response carried
/// and whether the counts were exact over the full result multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FacetOutcome {
    /// The sum of `FacetCounts::values.len()` over the response's facets.
    pub values: u64,
    pub exact: bool,
}

/// The facet counters of one engine, resolved at its first faceted query.
struct FacetInstruments {
    queries: Arc<Counter>,
    values: Arc<Counter>,
    /// Registered even at zero, so the family is always present in
    /// snapshots and dashboards can alert on it.
    inexact: Arc<Counter>,
}

/// One engine's attachment to a [`MetricsRegistry`]: the registry plus the
/// handle of every instrument the engine's sealed queries record into (see
/// the [module docs](self) for when each is resolved). With these a seal is
/// a flight-record append and some thirty relaxed atomic adds — no key is
/// built, no map is searched and no registry lock is taken.
pub struct EngineInstruments {
    registry: Arc<MetricsRegistry>,
    engine: &'static str,
    classes: Vec<QueryClass>,
    facets: OnceLock<FacetInstruments>,
}

impl EngineInstruments {
    /// Attach `engine` to `registry`. `algorithms` names every executor
    /// label the engine can seal a query under; nothing is created in the
    /// registry until a query is.
    pub fn new(
        registry: Arc<MetricsRegistry>,
        engine: &'static str,
        algorithms: &[&'static str],
    ) -> Self {
        EngineInstruments {
            registry,
            engine,
            classes: algorithms
                .iter()
                .map(|&algorithm| QueryClass {
                    algorithm,
                    instruments: OnceLock::new(),
                    truncated: [OnceLock::new(), OnceLock::new()],
                })
                .collect(),
            facets: OnceLock::new(),
        }
    }

    /// The registry this engine records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The engine label every instrument here carries.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    fn class(&self, algorithm: &str) -> &QueryClass {
        self.classes
            .iter()
            .find(|c| c.algorithm == algorithm)
            .unwrap_or_else(|| panic!("{}: undeclared algorithm {algorithm:?}", self.engine))
    }

    /// Seal one query: append `record` to the flight recorder, then fold
    /// `stats`, the truncation verdict and — for a request that asked for
    /// facets — the facet outcome into the registry. The flight record goes
    /// first, so the slow flag compares this query against the traffic
    /// recorded *before* it.
    ///
    /// ```
    /// use kwdb_common::QueryStats;
    /// use kwdb_obs::{families, EngineInstruments, MetricsRegistry, QueryRecord};
    /// use std::sync::Arc;
    ///
    /// let reg = Arc::new(MetricsRegistry::new());
    /// let obs = EngineInstruments::new(Arc::clone(&reg), "relational", &["parallel_cn"]);
    /// let stats = QueryStats::new();
    /// let record = QueryRecord::new(
    ///     "relational", "parallel_cn", "data query", 10, &stats, None, false, None,
    /// );
    /// obs.seal(record, &stats, None);
    /// let labels = [("engine", "relational"), ("algorithm", "parallel_cn")];
    /// assert_eq!(reg.counter_value(families::QUERIES, &labels), 1);
    /// assert_eq!(reg.flight().len(), 1);
    /// ```
    pub fn seal(&self, record: QueryRecord, stats: &QueryStats, facets: Option<FacetOutcome>) {
        let reg = &*self.registry;
        let class = self.class(&record.algorithm);
        let instruments = class
            .instruments
            .get_or_init(|| QueryInstruments::resolve(reg, self.engine, class.algorithm));
        let truncation = record.truncation;
        reg.record_flight(record, &instruments.latency);
        instruments.record(stats);
        if let Some(reason) = truncation {
            let slot = match reason {
                TruncationReason::DeadlineExceeded => 0,
                TruncationReason::CandidateCapReached => 1,
            };
            class.truncated[slot]
                .get_or_init(|| {
                    reg.counter(
                        families::TRUNCATED,
                        &[
                            ("engine", self.engine),
                            ("algorithm", class.algorithm),
                            ("reason", reason.as_str()),
                        ],
                    )
                })
                .inc();
        }
        if let Some(outcome) = facets {
            let f = self.facets.get_or_init(|| {
                let labels = [("engine", self.engine)];
                FacetInstruments {
                    queries: reg.counter(families::FACET_QUERIES, &labels),
                    values: reg.counter(families::FACET_VALUES, &labels),
                    inexact: reg.counter(families::FACET_INEXACT, &labels),
                }
            });
            f.queries.inc();
            f.values.add(outcome.values);
            if !outcome.exact {
                f.inexact.inc();
            }
        }
    }
}

/// Publish one mutable engine's generation gauge. Engines call this once at
/// registry attach time and after every mutation, so both families —
/// including the ingest counter, touched here at zero — are present in
/// snapshots before the first mutation.
pub fn record_generation(reg: &MetricsRegistry, engine: &str, generation: u64) {
    let labels = [("engine", engine)];
    reg.gauge(families::ENGINE_GENERATION, &labels)
        .set(generation as i64);
    let _ = reg.counter(families::INGESTED_TUPLES, &labels);
}

/// Record one substrate index's size figures (and, when known, its build
/// wall-clock) under the `index` label. Engines call this once per index
/// build, so the gauges reflect the currently-live index while the build
/// histogram accumulates across rebuilds.
pub fn record_index_stats(reg: &MetricsRegistry, index: &str, stats: &IndexStats) {
    let labels = [("index", index)];
    reg.gauge(families::INDEX_TERMS, &labels)
        .set(stats.terms as i64);
    reg.gauge(families::INDEX_POSTINGS, &labels)
        .set(stats.postings as i64);
    reg.gauge(families::INDEX_POSTING_BYTES, &labels)
        .set(stats.posting_bytes as i64);
    if let Some(build) = stats.build {
        reg.histogram(families::INDEX_BUILD, &labels)
            .record_duration(build);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stats() -> QueryStats {
        let mut s = QueryStats::new();
        s.phases.parse = Duration::from_micros(10);
        s.phases.evaluate = Duration::from_micros(400);
        s.operators.tuples_scanned = 100;
        s.operators.join_probes = 40;
        s.candidates_generated = 12;
        s.candidates_pruned = 5;
        s.cns_evaluated = 9;
        s.cns_pruned = 3;
        s.operators.join_probe_rows = 25;
        s.cache_hits = 1;
        s
    }

    fn seal(
        obs: &EngineInstruments,
        algorithm: &'static str,
        truncation: Option<TruncationReason>,
        facets: Option<FacetOutcome>,
    ) {
        let stats = stats();
        let record = QueryRecord::new(
            obs.engine(),
            algorithm,
            "data query",
            5,
            &stats,
            truncation,
            false,
            None,
        );
        obs.seal(record, &stats, facets);
    }

    #[test]
    fn seal_populates_every_family() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = EngineInstruments::new(Arc::clone(&reg), "relational", &["parallel_cn", "spark"]);
        seal(&obs, "parallel_cn", None, None);
        seal(
            &obs,
            "parallel_cn",
            Some(TruncationReason::DeadlineExceeded),
            None,
        );
        let ea = [("engine", "relational"), ("algorithm", "parallel_cn")];
        assert_eq!(reg.counter_value(families::QUERIES, &ea), 2);
        assert_eq!(
            reg.counter_value(
                families::OPERATORS,
                &[
                    ("engine", "relational"),
                    ("algorithm", "parallel_cn"),
                    ("op", "tuples_scanned")
                ]
            ),
            200
        );
        assert_eq!(
            reg.counter_value(
                families::TRUNCATED,
                &[
                    ("engine", "relational"),
                    ("algorithm", "parallel_cn"),
                    ("reason", "deadline")
                ]
            ),
            1
        );
        assert_eq!(
            reg.counter_value(
                families::PLAN_CACHE,
                &[("engine", "relational"), ("outcome", "hit")]
            ),
            2
        );
        assert_eq!(reg.counter_value(families::CN_EVALUATED, &ea), 18);
        assert_eq!(reg.counter_value(families::CN_PRUNED, &ea), 6);
        assert_eq!(reg.counter_value(families::JOIN_PROBE_ROWS, &ea), 50);
        assert_eq!(reg.flight().len(), 2, "every seal appends a flight record");
        let snap = reg.snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|(id, _)| id.name == families::QUERY_LATENCY)
            .expect("latency histogram exists");
        assert_eq!(hist.1.count, 2);
        assert!(snap.family_names().contains(&families::PHASE_LATENCY));
        assert!(snap.family_names().contains(&families::CANDIDATES));
        assert!(snap.family_names().contains(&families::CN_EVALUATED));
        assert!(snap.family_names().contains(&families::CN_PRUNED));
        assert!(snap.family_names().contains(&families::JOIN_PROBE_ROWS));
    }

    #[test]
    fn instruments_appear_when_first_used_not_when_attached() {
        // The label sets of a snapshot say what ran: a declared class that
        // sealed nothing, a reason that never truncated and facets nobody
        // asked for export no series.
        let reg = Arc::new(MetricsRegistry::new());
        let obs = EngineInstruments::new(Arc::clone(&reg), "relational", &["parallel_cn", "spark"]);
        assert_eq!(reg.snapshot(), Default::default());
        seal(&obs, "parallel_cn", None, None);
        let snap = reg.snapshot();
        let mentions = |needle: &str| {
            snap.counters
                .iter()
                .any(|(id, _)| id.labels.iter().any(|(_, v)| v == needle))
        };
        assert!(mentions("parallel_cn"));
        assert!(!mentions("spark"));
        assert!(!snap.family_names().contains(&families::TRUNCATED));
        assert!(!snap.family_names().contains(&families::FACET_QUERIES));
        seal(
            &obs,
            "spark",
            Some(TruncationReason::CandidateCapReached),
            None,
        );
        assert_eq!(
            reg.counter_value(
                families::TRUNCATED,
                &[
                    ("engine", "relational"),
                    ("algorithm", "spark"),
                    ("reason", "candidate_cap")
                ]
            ),
            1
        );
    }

    #[test]
    fn seal_counts_facet_queries_values_and_inexactness() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = EngineInstruments::new(Arc::clone(&reg), "relational", &["parallel_cn"]);
        let outcome = |values, exact| Some(FacetOutcome { values, exact });
        seal(&obs, "parallel_cn", None, outcome(7, true));
        seal(&obs, "parallel_cn", None, outcome(3, false));
        seal(&obs, "parallel_cn", None, None);
        let labels = [("engine", "relational")];
        assert_eq!(reg.counter_value(families::FACET_QUERIES, &labels), 2);
        assert_eq!(reg.counter_value(families::FACET_VALUES, &labels), 10);
        assert_eq!(reg.counter_value(families::FACET_INEXACT, &labels), 1);
    }

    #[test]
    fn record_index_stats_sets_gauges_and_build_histogram() {
        let reg = MetricsRegistry::new();
        let stats = IndexStats::new(12, 340, 340 * 16).with_build(Some(Duration::from_micros(250)));
        record_index_stats(&reg, "relational_text", &stats);
        // a rebuild overwrites the gauges but accumulates in the histogram
        record_index_stats(&reg, "relational_text", &stats);
        let labels = [("index", "relational_text")];
        assert_eq!(reg.gauge(families::INDEX_TERMS, &labels).get(), 12);
        assert_eq!(reg.gauge(families::INDEX_POSTINGS, &labels).get(), 340);
        assert_eq!(
            reg.gauge(families::INDEX_POSTING_BYTES, &labels).get(),
            340 * 16
        );
        let snap = reg.snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|(id, _)| id.name == families::INDEX_BUILD)
            .expect("build histogram exists");
        assert_eq!(hist.1.count, 2);

        // an index with no recorded build time still reports sizes
        let unbuilt = IndexStats::new(1, 1, 8);
        record_index_stats(&reg, "graph_keyword", &unbuilt);
        assert_eq!(
            reg.gauge(families::INDEX_TERMS, &[("index", "graph_keyword")])
                .get(),
            1
        );
    }
}
