//! # kwdb-obs — query observability for kwdb
//!
//! The tutorial's core comparisons (BANKS vs DPBF vs BLINKS node accesses,
//! DISCOVER/SPARK candidate-network costs) are quantitative claims, and a
//! production deployment needs the same numbers continuously — per-query
//! `QueryStats` alone evaporate the moment the response is dropped. This
//! crate is the retention layer, hermetic like the rest of the workspace
//! (no external dependencies):
//!
//! * [`MetricsRegistry`] — a thread-safe table of named, labeled
//!   [`Counter`]s, [`Gauge`]s, and log-linear [`Histogram`]s with
//!   p50/p90/p99 extraction. Engines record under `engine × algorithm ×
//!   phase` labels through an [`EngineInstruments`]: every handle a sealed
//!   query writes to is looked up once and kept, so a seal is atomic adds
//!   only and concurrent dispatcher workers never serialize on it.
//! * [`QueryTrace`] — a structured span tree of one query (phases →
//!   operator events with timestamps, counter deltas, budget verdicts,
//!   cache outcomes), built through a [`TraceBuilder`] gated by the
//!   [`TraceLevel`] knob on a request, rendered as an `EXPLAIN
//!   ANALYZE`-style text tree or JSON.
//! * [`FlightRecorder`] — a bounded, lock-striped ring of the last N
//!   queries, always on once a registry is attached: every sealed query
//!   appends a compact [`QueryRecord`] (engine, executor, redacted digest,
//!   per-phase durations, truncation/cache outcome, and the trace when one
//!   exists). A [`SamplePolicy`] on the registry upgrades selected queries
//!   to traced without the caller asking (1-in-N plus slow-query
//!   promotion), so tail-latency forensics works after the fact — dump
//!   with [`FlightDump::to_json`] and analyze offline with `kwdb-doctor`.
//! * Exporters — [`export::to_prometheus`] (text exposition format with
//!   `# HELP`/`# TYPE` headers), [`export::to_json`]/[`export::from_json`]
//!   (an exact round-trip the bench harness uses to emit `BENCH_*.json`
//!   perf baselines), and [`chrome::to_chrome_trace`] (Chrome/Perfetto
//!   `trace_event` JSON for one query's span tree).
//!
//! ```
//! use kwdb_obs::{EngineInstruments, MetricsRegistry, QueryRecord};
//! use kwdb_common::QueryStats;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(MetricsRegistry::new());
//! let obs = EngineInstruments::new(Arc::clone(&reg), "relational", &["parallel_cn"]);
//! let stats = QueryStats::new();
//! let record =
//!     QueryRecord::new("relational", "parallel_cn", "data query", 10, &stats, None, false, None);
//! obs.seal(record, &stats, None);
//! let prom = kwdb_obs::export::to_prometheus(&reg.snapshot());
//! assert!(prom.contains("kwdb_queries_total"));
//! ```

pub mod chrome;
pub mod export;
pub mod flight;
pub mod hist;
pub mod json;
pub mod record;
pub mod registry;
pub mod trace;

pub use flight::{
    query_digest, CacheOutcome, FlightDump, FlightRecorder, QueryRecord, SamplePolicy,
    SlowThreshold,
};
pub use hist::{Histogram, HistogramSnapshot};
pub use record::{
    families, record_generation, record_index_stats, EngineInstruments, FacetOutcome,
};
pub use registry::{Counter, Gauge, Labels, MetricId, MetricsRegistry, Snapshot, Watermark};
pub use trace::{PhaseSpan, QueryTrace, TraceBuilder, TraceEvent, TraceLevel};
