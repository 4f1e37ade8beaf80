//! The thread-safe metrics registry: named, labeled counters, gauges, and
//! histograms.
//!
//! A [`MetricsRegistry`] is a process-wide (or deployment-unit-wide) table
//! of metric instruments keyed by family name plus a sorted label set —
//! `kwdb_queries_total{engine="relational", algorithm="parallel_cn"}`.
//! Lookup uses the same double-checked read-mostly locking as the CN plan
//! cache: the hot path takes a read lock and clones an `Arc` handle;
//! creation upgrades to the write lock exactly once per instrument.
//! Recording through a handle is lock-free (atomics only). A lookup is not
//! free — it builds and compares an owned key under the read lock — so the
//! paths that run per query resolve each handle once and keep it (see
//! [`crate::record::EngineInstruments`]); string-keyed lookups are for
//! set-up, mutation and the rare branches.

use crate::flight::{FlightRecorder, QueryRecord, SamplePolicy, SlowThreshold};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::record::families;
use crate::trace::TraceLevel;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        // Most of what a seal adds is zero (a result-cache hit did no
        // operator work); a branch is cheaper than a locked add of nothing.
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The cumulative total one publisher last folded into a shared [`Counter`]
/// — for counts kept elsewhere (a cache's evictions, an index's merges).
/// Each publisher owns one and adds only what its own total gained, so
/// publishers sharing a counter (two engines under one label) sum, and
/// racing publishes of one total count it once, in any order.
#[derive(Debug, Default)]
pub struct Watermark(AtomicU64);

impl Watermark {
    /// A mark at `total`: what the source counted before is not this
    /// publisher's to report.
    pub fn new(total: u64) -> Self {
        Watermark(AtomicU64::new(total))
    }

    /// Add to `counter` what `total` gained since the last publish.
    pub fn publish(&self, total: u64, counter: &Counter) {
        // Most publishes find the total unchanged; as in `Counter::add`, a
        // load and a branch are cheaper than a locked update that changes
        // nothing.
        if self.0.load(Ordering::Relaxed) < total {
            let before = self.0.fetch_max(total, Ordering::Relaxed);
            counter.add(total.saturating_sub(before));
        }
    }
}

/// A gauge: a value that can go up and down (queue depths, cache sizes,
/// in-flight request counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A sorted, deduplicated label set. Construction sorts by key, so
/// `[("b","2"),("a","1")]` and `[("a","1"),("b","2")]` address the same
/// instrument.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    pub fn new(pairs: &[(&str, &str)]) -> Self {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|&(k, val)| (k.to_string(), val.to_string()))
            .collect();
        v.sort();
        v.dedup_by(|a, b| a.0 == b.0);
        Labels(v)
    }

    pub fn empty() -> Self {
        Labels::default()
    }

    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<(String, String)>> for Labels {
    fn from(mut v: Vec<(String, String)>) -> Self {
        v.sort();
        v.dedup_by(|a, b| a.0 == b.0);
        Labels(v)
    }
}

/// Fully qualified instrument identity: family name + label set.
pub type MetricKey = (String, Labels);

#[derive(Default)]
struct Families {
    counters: BTreeMap<MetricKey, Arc<Counter>>,
    gauges: BTreeMap<MetricKey, Arc<Gauge>>,
    histograms: BTreeMap<MetricKey, Arc<Histogram>>,
}

/// The thread-safe registry of all metric instruments — plus the query
/// [`FlightRecorder`] and its [`SamplePolicy`], so flight recording is
/// always on wherever a registry is attached (no per-engine plumbing).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RwLock<Families>,
    flight: FlightRecorder,
    policy: RwLock<SamplePolicy>,
    /// Global arrival counter driving 1-in-N trace sampling; deterministic
    /// under serial execution.
    sample_seq: AtomicU64,
    /// The flight recorder's per-engine self-metrics, resolved at an
    /// engine's first record. A handful of entries: scanned, not hashed.
    flight_engines: RwLock<Vec<(String, FlightCounters)>>,
    /// `kwdb_flightrec_entries`, resolved at the first record.
    flight_entries: OnceLock<Arc<Gauge>>,
}

/// One engine's `kwdb_trace_sampled_total` and
/// `kwdb_flightrec_dropped_total` counters.
struct FlightCounters {
    sampled: Arc<Counter>,
    dropped: Arc<Counter>,
}

/// Double-checked get-or-create over one of the three family maps.
macro_rules! get_or_create {
    ($self:ident, $field:ident, $name:ident, $labels:ident, $new:expr) => {{
        let key: MetricKey = ($name.to_string(), Labels::new($labels));
        if let Some(m) = $self
            .inner
            .read()
            .expect("metrics registry poisoned")
            .$field
            .get(&key)
        {
            return Arc::clone(m);
        }
        let mut inner = $self.inner.write().expect("metrics registry poisoned");
        Arc::clone(inner.$field.entry(key).or_insert_with(|| Arc::new($new)))
    }};
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A registry whose flight recorder retains the last `capacity` queries
    /// (default: [`crate::flight::DEFAULT_CAPACITY`]).
    pub fn with_flight_capacity(capacity: usize) -> Self {
        MetricsRegistry {
            flight: FlightRecorder::with_capacity(capacity),
            ..Default::default()
        }
    }

    /// The always-on query flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The current trace sampling / slow-query policy.
    pub fn sample_policy(&self) -> SamplePolicy {
        *self.policy.read().expect("sample policy poisoned")
    }

    /// Replace the trace sampling / slow-query policy.
    pub fn set_sample_policy(&self, policy: SamplePolicy) {
        *self.policy.write().expect("sample policy poisoned") = policy;
    }

    /// Decide the effective trace level for one arriving query: the
    /// caller's `requested` level, possibly upgraded to the policy's level.
    /// Returns `(level, sampled)` where `sampled` marks a policy promotion
    /// (counted into `kwdb_trace_sampled_total` at seal time).
    ///
    /// Promotion fires on the 1-in-N arrival counter, or — with a
    /// [`SlowThreshold::Fixed`] policy — for every query of an
    /// `engine × algorithm` class whose live p99 sits at or above the
    /// threshold, so a currently-slow executor's queries arrive in the
    /// recorder *with* their span trees. `latency` is that class's
    /// end-to-end latency histogram, `None` while the class has sealed
    /// nothing. Requests already tracing at or above the policy level pass
    /// through untouched and don't consume a sampling tick.
    pub fn sample_trace_level(
        &self,
        latency: Option<&Histogram>,
        requested: TraceLevel,
    ) -> (TraceLevel, bool) {
        let p = self.sample_policy();
        if p.level == TraceLevel::Off || requested >= p.level {
            return (requested, false);
        }
        let mut promote = false;
        if p.sample_every > 0 {
            let n = self.sample_seq.fetch_add(1, Ordering::Relaxed) + 1;
            promote = n.is_multiple_of(p.sample_every);
        }
        if !promote {
            if let (SlowThreshold::Fixed(d), Some(h)) = (p.slow_threshold, latency) {
                promote =
                    h.count() > 0 && h.quantile(0.99) >= d.as_nanos().min(u64::MAX as u128) as u64;
            }
        }
        if promote {
            (p.level, true)
        } else {
            (requested, false)
        }
    }

    /// Seal-time flight recording: decide the record's slow flag against
    /// the policy, append it to the ring, and keep the recorder's
    /// self-metrics current (`kwdb_flightrec_entries`,
    /// `kwdb_flightrec_dropped_total` by the overwritten record's engine,
    /// `kwdb_trace_sampled_total`).
    ///
    /// `latency` is the end-to-end latency histogram of the record's
    /// `engine × algorithm` class. Call *before* folding this query into it
    /// so an [`SlowThreshold::AutoP99`] threshold compares the query against
    /// the traffic that preceded it.
    pub fn record_flight(&self, mut rec: QueryRecord, latency: &Histogram) {
        let total_ns = rec.total().as_nanos().min(u64::MAX as u128) as u64;
        rec.slow = match self.sample_policy().slow_threshold {
            SlowThreshold::Off => false,
            SlowThreshold::Fixed(d) => total_ns >= d.as_nanos().min(u64::MAX as u128) as u64,
            SlowThreshold::AutoP99 => {
                latency.count() >= SamplePolicy::AUTO_MIN_SAMPLES
                    && total_ns > latency.quantile(0.99)
            }
        };
        let (engine, sampled) = (rec.engine.clone(), rec.sampled);
        let displaced = self.flight.append(rec);
        let own_drop = displaced.as_ref().is_some_and(|old| old.engine == engine);
        self.with_flight_counters(&engine, |own| {
            if sampled {
                own.sampled.inc();
            }
            if own_drop {
                own.dropped.inc();
            }
        });
        if let Some(old) = displaced.filter(|_| !own_drop) {
            self.with_flight_counters(&old.engine, |theirs| theirs.dropped.inc());
        }
        self.flight_entries
            .get_or_init(|| self.gauge(families::FLIGHT_ENTRIES, &[]))
            .set(self.flight.len() as i64);
    }

    /// Run `f` on `engine`'s flight self-metrics, creating them at the
    /// first call for that engine name. Both counters exist from then on,
    /// even at zero, so the families are present in snapshots before a
    /// promotion or a ring wrap and `metrics_check` can require them.
    fn with_flight_counters(&self, engine: &str, f: impl FnOnce(&FlightCounters)) {
        let find =
            |known: &[(String, FlightCounters)]| known.iter().position(|(name, _)| name == engine);
        {
            let known = self.flight_engines.read().expect("flight table poisoned");
            if let Some(i) = find(&known) {
                return f(&known[i].1);
            }
        }
        let mut known = self.flight_engines.write().expect("flight table poisoned");
        let i = find(&known).unwrap_or_else(|| {
            let label = [("engine", engine)];
            let counters = FlightCounters {
                sampled: self.counter(families::TRACE_SAMPLED, &label),
                dropped: self.counter(families::FLIGHT_DROPPED, &label),
            };
            known.push((engine.to_string(), counters));
            known.len() - 1
        });
        f(&known[i].1)
    }

    /// The counter `name{labels}`, created on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        get_or_create!(self, counters, name, labels, Counter::default())
    }

    /// The gauge `name{labels}`, created on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        get_or_create!(self, gauges, name, labels, Gauge::default())
    }

    /// The histogram `name{labels}`, created on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        get_or_create!(self, histograms, name, labels, Histogram::new())
    }

    /// Read a counter's current value without creating it (0 if absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key: MetricKey = (name.to_string(), Labels::new(labels));
        self.inner
            .read()
            .expect("metrics registry poisoned")
            .counters
            .get(&key)
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Sum of a counter family's values across every label set.
    pub fn counter_family_total(&self, name: &str) -> u64 {
        self.inner
            .read()
            .expect("metrics registry poisoned")
            .counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// A point-in-time copy of every instrument, in deterministic
    /// (name, labels) order — the input of both exporters.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.read().expect("metrics registry poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|((n, l), c)| (MetricId::new(n, l), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|((n, l), g)| (MetricId::new(n, l), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|((n, l), h)| (MetricId::new(n, l), h.snapshot()))
                .collect(),
        }
    }
}

/// Identity of one instrument inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &Labels) -> Self {
        MetricId {
            name: name.to_string(),
            labels: labels.pairs().to_vec(),
        }
    }
}

/// A point-in-time copy of a registry: the unit of export, comparison, and
/// JSON round-tripping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub counters: Vec<(MetricId, u64)>,
    pub gauges: Vec<(MetricId, i64)>,
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
}

impl Snapshot {
    /// Family names present in this snapshot (sorted, deduplicated).
    pub fn family_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .counters
            .iter()
            .map(|(id, _)| id.name.as_str())
            .chain(self.gauges.iter().map(|(id, _)| id.name.as_str()))
            .chain(self.histograms.iter().map(|(id, _)| id.name.as_str()))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Sum of one counter family across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(id, _)| id.name == name)
            .map(|&(_, v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record `rec` against an empty latency histogram.
    fn record(reg: &MetricsRegistry, rec: QueryRecord) {
        reg.record_flight(rec, &Histogram::new());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total", &[("engine", "relational")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // same name+labels resolves to the same instrument
        reg.counter("requests_total", &[("engine", "relational")])
            .inc();
        assert_eq!(
            reg.counter_value("requests_total", &[("engine", "relational")]),
            6
        );

        // Two publishers of cumulative totals on one counter: each adds what
        // its own total gained, once, and a stale total adds nothing.
        let (a, b) = (Watermark::default(), Watermark::new(2));
        a.publish(3, &c);
        a.publish(3, &c);
        b.publish(5, &c);
        a.publish(1, &c);
        assert_eq!(c.get(), 6 + 3 + 3);

        let g = reg.gauge("inflight", &[]);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("m", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.counter_value("m", &[("a", "1"), ("b", "2")]), 2);
        assert_eq!(reg.snapshot().counters.len(), 1);
    }

    #[test]
    fn family_total_sums_across_label_sets() {
        let reg = MetricsRegistry::new();
        reg.counter("ops", &[("engine", "graph")]).add(3);
        reg.counter("ops", &[("engine", "xml")]).add(4);
        reg.counter("other", &[]).add(100);
        assert_eq!(reg.counter_family_total("ops"), 7);
        assert_eq!(reg.snapshot().counter_total("ops"), 7);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("z", &[]).inc();
        reg.counter("a", &[("x", "2")]).inc();
        reg.counter("a", &[("x", "1")]).inc();
        let snap = reg.snapshot();
        let names: Vec<String> = snap
            .counters
            .iter()
            .map(|(id, _)| format!("{}{:?}", id.name, id.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.family_names(), vec!["a", "z"]);
    }

    #[test]
    fn sampling_promotes_every_nth_query_deterministically() {
        let reg = MetricsRegistry::new();
        reg.set_sample_policy(SamplePolicy::every(3));
        let picks: Vec<bool> = (0..9)
            .map(|_| reg.sample_trace_level(None, TraceLevel::Off).1)
            .collect();
        assert_eq!(
            picks,
            vec![false, false, true, false, false, true, false, false, true]
        );
        // an already-traced request passes through and consumes no tick
        let (level, sampled) = reg.sample_trace_level(None, TraceLevel::Full);
        assert_eq!(level, TraceLevel::Full);
        assert!(!sampled);
        let (_, next) = reg.sample_trace_level(None, TraceLevel::Off);
        assert!(!next, "tick 10 of every(3) must not fire");
    }

    #[test]
    fn record_flight_keeps_self_metrics_current() {
        let reg = MetricsRegistry::with_flight_capacity(2);
        let mut stats = kwdb_common::QueryStats::new();
        stats.phases.evaluate = std::time::Duration::from_micros(50);
        for i in 0..5 {
            let rec = QueryRecord::new(
                "relational",
                "parallel_cn",
                "data query",
                3,
                &stats,
                None,
                i == 0,
                None,
            );
            record(&reg, rec);
        }
        assert_eq!(reg.flight().len(), 2);
        assert_eq!(
            reg.counter_value(families::FLIGHT_DROPPED, &[("engine", "relational")]),
            3
        );
        assert_eq!(reg.gauge(families::FLIGHT_ENTRIES, &[]).get(), 2);
        assert_eq!(
            reg.counter_value(families::TRACE_SAMPLED, &[("engine", "relational")]),
            1
        );
    }

    #[test]
    fn a_drop_is_counted_against_the_overwritten_records_engine() {
        let reg = MetricsRegistry::with_flight_capacity(1);
        let stats = kwdb_common::QueryStats::new();
        for engine in ["relational", "xml", "xml"] {
            let rec = QueryRecord::new(engine, "any", "q", 1, &stats, None, false, None);
            record(&reg, rec);
        }
        let dropped = |engine| reg.counter_value(families::FLIGHT_DROPPED, &[("engine", engine)]);
        assert_eq!((dropped("relational"), dropped("xml")), (1, 1));
        // a record parsed from a dump (owned labels) finds the same counters
        let mut rec = QueryRecord::new("", "any", "q", 1, &stats, None, true, None);
        rec.engine = String::from("xml").into();
        record(&reg, rec);
        assert_eq!(dropped("xml"), 2);
        assert_eq!(
            reg.counter_value(families::TRACE_SAMPLED, &[("engine", "xml")]),
            1
        );
        assert_eq!(
            reg.snapshot().counters.len(),
            4,
            "two engines, two families"
        );
    }

    #[test]
    fn fixed_threshold_promotes_a_class_whose_live_p99_is_slow() {
        let reg = MetricsRegistry::new();
        reg.set_sample_policy(SamplePolicy {
            sample_every: 0,
            slow_threshold: SlowThreshold::Fixed(std::time::Duration::from_micros(10)),
            level: TraceLevel::Phases,
        });
        let latency = Histogram::new();
        let promoted = |h: Option<&Histogram>| reg.sample_trace_level(h, TraceLevel::Off).1;
        assert!(!promoted(None), "a class that sealed nothing is not slow");
        assert!(!promoted(Some(&latency)), "nor is an empty histogram");
        latency.record(500);
        assert!(!promoted(Some(&latency)));
        latency.record(20_000);
        assert!(promoted(Some(&latency)));
    }

    #[test]
    fn fixed_threshold_flags_slow_queries() {
        let reg = MetricsRegistry::new();
        reg.set_sample_policy(SamplePolicy {
            sample_every: 0,
            slow_threshold: SlowThreshold::Fixed(std::time::Duration::from_micros(10)),
            level: TraceLevel::Off,
        });
        let mut fast = kwdb_common::QueryStats::new();
        fast.phases.evaluate = std::time::Duration::from_nanos(500);
        let mut slow = kwdb_common::QueryStats::new();
        slow.phases.evaluate = std::time::Duration::from_micros(20);
        for stats in [&fast, &slow] {
            record(
                &reg,
                QueryRecord::new("xml", "slca", "q", 1, stats, None, false, None),
            );
        }
        let dump = reg.flight().dump();
        assert_eq!(
            dump.records.iter().map(|r| r.slow).collect::<Vec<_>>(),
            vec![false, true]
        );
    }

    #[test]
    fn concurrent_instrument_creation_is_exactly_once() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let reg = std::sync::Arc::clone(&reg);
                scope.spawn(move || {
                    for i in 0..100 {
                        reg.counter("hot", &[("i", &(i % 10).to_string())]).inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter_family_total("hot"), 800);
        assert_eq!(reg.snapshot().counters.len(), 10);
    }
}
