//! The query flight recorder: a bounded in-memory log of the last N
//! queries, always on once a registry is attached.
//!
//! Aggregates (counters, histograms) answer "how is the fleet doing";
//! they cannot answer "why was *this* query slow" after the response is
//! gone. The [`FlightRecorder`] keeps that story: every sealed query
//! appends a compact [`QueryRecord`] — engine, executor label, redacted
//! query digest, `k`, per-phase durations, truncation
//! reason, plan-cache outcome, and (when one was built) the full
//! [`QueryTrace`] span tree — into a fixed-capacity ring. Old entries are
//! overwritten, never reallocated: memory stays bounded no matter how many
//! queries flow through.
//!
//! Concurrency: a global atomic sequence assigns each record a slot
//! (`seq % capacity`); slots are guarded by a small set of striped
//! mutexes, so concurrent appends to different slots never contend and
//! appends to the *same* slot (a full wrap apart) serialize briefly. A
//! slot only accepts a record newer than its occupant, so a lagging writer
//! can never clobber the latest query — it becomes the dropped one.
//!
//! The [`SamplePolicy`] decides which queries get their traces upgraded
//! without the caller asking: a 1-in-N arrival counter. At seal time a
//! record is flagged slow when it exceeds the live p99 of its class's
//! latency histogram. The policy lives on the registry; engines consult it
//! once per query.
//!
//! [`FlightDump`] serializes the ring as `kwdb-flightrec-v1` JSON (exact
//! integers for all nanosecond fields) and parses it back — the format
//! `kwdb-doctor` reads offline.

use crate::json::{Json, JsonError};
use crate::trace::QueryTrace;
use kwdb_common::budget::TruncationReason;
use kwdb_common::{Phase, PhaseTimings, QueryStats};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default ring capacity: enough to hold the recent past of a busy engine
/// without holding more than a few hundred KB of records.
pub const DEFAULT_CAPACITY: usize = 512;

/// Number of mutex stripes guarding the ring's slots.
const STRIPES: usize = 8;

/// A cache outcome of one query, folded from its `QueryStats`. Used for
/// both of a record's cache verdicts: the CN plan cache
/// ([`QueryRecord::cache`]) and the generation-keyed result cache
/// ([`QueryRecord::result_cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    Hit,
    Miss,
    /// The query never consulted this cache. For the plan cache that means
    /// an engine without one (graph/XML) or an empty query; for the result
    /// cache — every engine has one — it means the consult conditions
    /// didn't hold: cache disabled, tracing on, empty query, or a
    /// constrained budget.
    None,
}

impl CacheOutcome {
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::None => "none",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hit" => Some(CacheOutcome::Hit),
            "miss" => Some(CacheOutcome::Miss),
            "none" => Some(CacheOutcome::None),
            _ => None,
        }
    }
}

/// A redacted identifier for a query string: the term count plus a 64-bit
/// FNV-1a hash, rendered `"<terms>w:<hex>"`. The raw text never enters the
/// recorder, so a dump can leave the machine without leaking query content
/// while still letting repeats of the same query be grouped.
pub fn query_digest(query: &str) -> String {
    let terms = query.split_whitespace().count();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in query.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{terms}w:{h:016x}")
}

/// One query's flight-recorder entry. Compact by construction: label
/// strings, a digest, the phase timings, and flags — plus the full trace
/// only when one was actually built for this query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Position in the global append order; assigned by the recorder.
    pub seq: u64,
    /// Engine and executor labels: `'static` for records an engine seals
    /// (so sealing copies no string), owned for records parsed from a dump.
    pub engine: Cow<'static, str>,
    pub algorithm: Cow<'static, str>,
    /// Redacted query identity (see [`query_digest`]).
    pub digest: String,
    pub k: u64,
    /// Per-phase durations from the query's `QueryStats`.
    pub phases: PhaseTimings,
    pub truncation: Option<TruncationReason>,
    /// CN plan-cache outcome.
    pub cache: CacheOutcome,
    /// Result-cache outcome (the whole sealed response, generation-keyed).
    pub result_cache: CacheOutcome,
    /// Whether the trace was policy-promoted rather than caller-requested.
    pub sampled: bool,
    /// Whether the query exceeded its class's live p99 at seal time (see
    /// [`SamplePolicy`]).
    pub slow: bool,
    /// The engine's data generation this query executed against (0 for
    /// engines without mutation support).
    pub generation: u64,
    pub trace: Option<QueryTrace>,
}

impl QueryRecord {
    /// Build a record from a sealed query (seq and `slow` are assigned at
    /// append time by the registry/recorder).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        engine: &'static str,
        algorithm: &'static str,
        query: &str,
        k: usize,
        stats: &QueryStats,
        truncation: Option<TruncationReason>,
        sampled: bool,
        trace: Option<QueryTrace>,
    ) -> Self {
        let fold = |hits: u64, misses: u64| {
            if hits > 0 {
                CacheOutcome::Hit
            } else if misses > 0 {
                CacheOutcome::Miss
            } else {
                CacheOutcome::None
            }
        };
        let cache = fold(stats.cache_hits, stats.cache_misses);
        let result_cache = fold(stats.result_cache_hits, stats.result_cache_misses);
        QueryRecord {
            seq: 0,
            engine: Cow::Borrowed(engine),
            algorithm: Cow::Borrowed(algorithm),
            digest: query_digest(query),
            k: k as u64,
            phases: stats.phases,
            truncation,
            cache,
            result_cache,
            sampled,
            slow: false,
            generation: 0,
            trace,
        }
    }

    /// Stamp the engine's data generation at execution time —
    /// `kwdb-doctor` reports it per engine from a dump.
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// End-to-end latency: the sum over phases, exactly what the latency
    /// histogram records — so dump sums and histogram sums agree.
    pub fn total(&self) -> Duration {
        self.phases.total()
    }
}

/// How the registry upgrades traces without callers opting in per request:
/// every `sample_every`th query, across the whole registry in arrival
/// order, is promoted to a [`Full`](crate::TraceLevel::Full) trace (`0`
/// disables). Requests already tracing at `Full` are left alone and don't
/// consume a tick.
///
/// The slow flag takes no setting: a record is slow when its total exceeds
/// the live p99 of its `engine × algorithm` class over the traffic sealed
/// before it, once the class holds
/// [`AUTO_MIN_SAMPLES`](Self::AUTO_MIN_SAMPLES) observations (so a cold
/// engine doesn't flag its warm-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePolicy {
    pub sample_every: u64,
}

impl SamplePolicy {
    /// Observations an `engine × algorithm` latency histogram must hold
    /// before its queries can be flagged slow.
    pub const AUTO_MIN_SAMPLES: u64 = 32;

    /// Promote every `n`th query to a full trace (`n = 0` disables).
    pub fn every(n: u64) -> Self {
        SamplePolicy { sample_every: n }
    }
}

impl Default for SamplePolicy {
    /// The always-on default: 1-in-128 full traces.
    fn default() -> Self {
        SamplePolicy::every(128)
    }
}

/// A slot holds the record plus nothing else; `None` until first wrap.
type Slot = Option<QueryRecord>;

/// The bounded, lock-striped ring buffer of recent [`QueryRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    /// Slot `s` lives in stripe `s % STRIPES` at index `s / STRIPES`.
    stripes: Vec<Mutex<Vec<Slot>>>,
    /// Next sequence number == total records ever appended.
    seq: AtomicU64,
    /// Records lost to overwriting (including stale appends that lost the
    /// slot race to a newer record).
    dropped: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let stripes = (0..STRIPES.min(capacity))
            .map(|s| {
                // ceil of the number of slots mapping to stripe `s`
                let n = (capacity - s).div_ceil(STRIPES.min(capacity));
                Mutex::new(vec![None; n])
            })
            .collect();
        FlightRecorder {
            capacity,
            stripes,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever appended (not capped by capacity).
    pub fn appended(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records lost to overwriting so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently held: `min(appended, capacity)`.
    pub fn len(&self) -> usize {
        (self.appended() as usize).min(self.capacity)
    }

    pub fn is_empty(&self) -> bool {
        self.appended() == 0
    }

    /// Append one record, assigning its sequence number. Returns the record
    /// it displaced (`None` until the ring wraps) so the caller can count
    /// drops by engine. If a slower thread arrives after its slot was
    /// already taken by a *newer* wrap, the stale record itself is the one
    /// returned as dropped — the latest query is never lost.
    pub fn append(&self, mut rec: QueryRecord) -> Option<QueryRecord> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        rec.seq = seq;
        let slot = (seq as usize) % self.capacity;
        let n_stripes = self.stripes.len();
        let mut guard = self.stripes[slot % n_stripes]
            .lock()
            .expect("flight recorder stripe poisoned");
        let cell = &mut guard[slot / n_stripes];
        let displaced = match cell {
            Some(existing) if existing.seq > seq => Some(rec), // lost the race: drop self
            _ => cell.replace(rec),
        };
        if displaced.is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        displaced
    }

    /// Snapshot the ring's contents in append order (oldest retained record
    /// first) together with the drop count.
    pub fn dump(&self) -> FlightDump {
        let mut records: Vec<QueryRecord> = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            let guard = stripe.lock().expect("flight recorder stripe poisoned");
            records.extend(guard.iter().filter_map(|slot| slot.clone()));
        }
        records.sort_by_key(|r| r.seq);
        FlightDump {
            capacity: self.capacity,
            dropped: self.dropped(),
            records,
        }
    }
}

/// A point-in-time copy of the recorder: the unit of serialization and the
/// input `kwdb-doctor` analyzes.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    pub capacity: usize,
    pub dropped: u64,
    /// Retained records, oldest first.
    pub records: Vec<QueryRecord>,
}

impl FlightDump {
    /// Serialize as `kwdb-flightrec-v1` JSON. Nanosecond fields are exact
    /// integers.
    pub fn to_json(&self) -> String {
        let ns = |d: Duration| Json::Int(d.as_nanos() as i128);
        let records = self
            .records
            .iter()
            .map(|r| {
                let mut o = vec![
                    ("seq".into(), Json::Int(r.seq as i128)),
                    ("engine".into(), Json::Str(r.engine.to_string())),
                    ("algorithm".into(), Json::Str(r.algorithm.to_string())),
                    ("digest".into(), Json::Str(r.digest.clone())),
                    ("k".into(), Json::Int(r.k as i128)),
                    ("total_ns".into(), ns(r.total())),
                    (
                        "phases".into(),
                        Json::Obj(
                            Phase::ALL
                                .map(|p| (p.name().into(), ns(r.phases[p])))
                                .into(),
                        ),
                    ),
                    (
                        "truncation".into(),
                        match r.truncation {
                            Some(t) => Json::Str(t.as_str().to_string()),
                            None => Json::Null,
                        },
                    ),
                    ("cache".into(), Json::Str(r.cache.as_str().to_string())),
                    (
                        "result_cache".into(),
                        Json::Str(r.result_cache.as_str().to_string()),
                    ),
                    ("sampled".into(), Json::Bool(r.sampled)),
                    ("slow".into(), Json::Bool(r.slow)),
                    ("generation".into(), Json::Int(r.generation as i128)),
                ];
                o.push((
                    "trace".into(),
                    match &r.trace {
                        Some(t) => t.to_json_value(),
                        None => Json::Null,
                    },
                ));
                Json::Obj(o)
            })
            .collect();
        Json::Obj(vec![
            ("format".into(), Json::Str("kwdb-flightrec-v1".into())),
            ("capacity".into(), Json::Int(self.capacity as i128)),
            ("dropped".into(), Json::Int(self.dropped as i128)),
            ("records".into(), Json::Arr(records)),
        ])
        .to_string_compact()
    }

    /// Parse a dump written by [`to_json`](Self::to_json). Exact inverse:
    /// `from_json(to_json(d)) == d`.
    pub fn from_json(input: &str) -> Result<FlightDump, JsonError> {
        let doc = Json::parse(input)?;
        let bad = |message: &str| JsonError {
            offset: 0,
            message: message.to_string(),
        };
        if doc.get("format").and_then(Json::as_str) != Some("kwdb-flightrec-v1") {
            return Err(bad("missing or unknown \"format\" marker"));
        }
        let num = |v: Option<&Json>, what: &str| {
            v.and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("missing u64 \"{what}\"")))
        };
        let text = |v: Option<&Json>, what: &str| {
            v.and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing string \"{what}\"")))
        };
        let mut records = Vec::new();
        for r in doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing \"records\" array"))?
        {
            let p = r
                .get("phases")
                .ok_or_else(|| bad("record missing \"phases\""))?;
            let mut phases = PhaseTimings::default();
            for phase in Phase::ALL {
                let name = phase.name();
                phases[phase] = Duration::from_nanos(num(p.get(name), name)?);
            }
            let truncation = match r.get("truncation") {
                Some(Json::Null) | None => None,
                Some(v) => Some(
                    v.as_str()
                        .and_then(TruncationReason::parse)
                        .ok_or_else(|| bad("unknown \"truncation\" reason"))?,
                ),
            };
            let trace = match r.get("trace") {
                Some(Json::Null) | None => None,
                Some(v) => Some(QueryTrace::from_json_value(v)?),
            };
            let rec = QueryRecord {
                seq: num(r.get("seq"), "seq")?,
                engine: text(r.get("engine"), "engine")?.into(),
                algorithm: text(r.get("algorithm"), "algorithm")?.into(),
                digest: text(r.get("digest"), "digest")?,
                k: num(r.get("k"), "k")?,
                phases,
                truncation,
                cache: CacheOutcome::parse(&text(r.get("cache"), "cache")?)
                    .ok_or_else(|| bad("unknown \"cache\" outcome"))?,
                // Defaults to None so pre-result-cache dumps still parse.
                result_cache: match r.get("result_cache") {
                    Some(v) => CacheOutcome::parse(
                        v.as_str()
                            .ok_or_else(|| bad("non-string \"result_cache\""))?,
                    )
                    .ok_or_else(|| bad("unknown \"result_cache\" outcome"))?,
                    None => CacheOutcome::None,
                },
                sampled: matches!(r.get("sampled"), Some(Json::Bool(true))),
                slow: matches!(r.get("slow"), Some(Json::Bool(true))),
                // Defaults to 0 so pre-generational dumps still parse.
                generation: r.get("generation").and_then(Json::as_u64).unwrap_or(0),
                trace,
            };
            // total_ns is derived; verify it matches the phases it claims
            // to summarize, so a hand-edited dump can't silently disagree.
            if num(r.get("total_ns"), "total_ns")? != rec.total().as_nanos() as u64 {
                return Err(bad("record \"total_ns\" does not equal the phase sum"));
            }
            records.push(rec);
        }
        Ok(FlightDump {
            capacity: num(doc.get("capacity"), "capacity")? as usize,
            dropped: num(doc.get("dropped"), "dropped")?,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(engine: &'static str, evaluate_ns: u64) -> QueryRecord {
        let mut stats = QueryStats::new();
        stats.phases.evaluate = Duration::from_nanos(evaluate_ns);
        stats.cache_hits = 1;
        QueryRecord::new(
            engine,
            "parallel_cn",
            "data query",
            3,
            &stats,
            None,
            false,
            None,
        )
    }

    #[test]
    fn digest_is_redacted_and_stable() {
        let d = query_digest("secret customer name");
        assert_eq!(d, query_digest("secret customer name"));
        assert_ne!(d, query_digest("secret customer names"));
        assert!(d.starts_with("3w:"));
        for word in ["secret", "customer", "name"] {
            assert!(!d.contains(word), "digest must not leak query text: {d}");
        }
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            let displaced = rec.append(record("relational", i));
            if i < 4 {
                assert!(displaced.is_none());
            } else {
                assert_eq!(displaced.unwrap().seq, i - 4);
            }
        }
        assert_eq!(rec.appended(), 10);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.len(), 4);
        let dump = rec.dump();
        let seqs: Vec<u64> = dump.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(dump.dropped, 6);
    }

    #[test]
    fn dump_round_trips_through_json_exactly() {
        let rec = FlightRecorder::with_capacity(8);
        let mut stats = QueryStats::new();
        // above 2^53 ns: the exact-integer encoding must hold
        stats.phases.evaluate = Duration::from_nanos((1 << 60) + 17);
        stats.cache_misses = 1;
        let mut r = QueryRecord::new(
            "relational",
            "parallel_cn",
            "xml data",
            5,
            &stats,
            Some(TruncationReason::CandidateCapReached),
            true,
            Some(QueryTrace {
                label: "relational/parallel_cn \"xml data\"".into(),
                total: Duration::from_nanos((1 << 60) + 17),
                phases: vec![],
            }),
        )
        .with_generation(7);
        r.slow = true;
        rec.append(r);
        rec.append(record("xml", 420));
        let dump = rec.dump();
        let json = dump.to_json();
        let back = FlightDump::from_json(&json).unwrap();
        assert_eq!(back, dump);
        // Dumps once carried each record's intra-query worker count; the
        // reader ignores the key, so they still parse to the same records.
        let with_workers = json.replace(",\"k\":", ",\"workers\":4,\"k\":");
        assert_eq!(with_workers.matches("\"workers\":4").count(), 2);
        assert_eq!(FlightDump::from_json(&with_workers).unwrap(), dump);
        assert!(FlightDump::from_json("{}").is_err());
        assert!(FlightDump::from_json(r#"{"format":"kwdb-flightrec-v1"}"#).is_err());
    }

    /// Dumps once carried each record's index segment census; the reader
    /// ignores the key, so they still parse to the same records.
    #[test]
    fn dumps_with_a_segment_census_still_parse() {
        let rec = FlightRecorder::with_capacity(4);
        rec.append(record("relational", 7).with_generation(3));
        rec.append(record("xml", 9));
        let dump = rec.dump();
        let json = dump.to_json();
        let old = json
            .replace(
                "\"generation\":3,",
                "\"generation\":3,\"segments\":{\"realtime\":1,\"sealed\":3},",
            )
            .replace(
                "\"generation\":0,",
                "\"generation\":0,\"segments\":{\"realtime\":0,\"sealed\":1},",
            );
        assert_eq!(old.matches("\"segments\":").count(), 2);
        assert_eq!(FlightDump::from_json(&old).unwrap(), dump);
    }

    #[test]
    fn cache_outcome_folds_from_stats() {
        assert_eq!(record("relational", 1).cache, CacheOutcome::Hit);
        let mut stats = QueryStats::new();
        stats.cache_misses = 1;
        let r = QueryRecord::new("relational", "spark", "q", 1, &stats, None, false, None);
        assert_eq!(r.cache, CacheOutcome::Miss);
        let r2 = QueryRecord::new("xml", "slca", "q", 1, &QueryStats::new(), None, false, None);
        assert_eq!(r2.cache, CacheOutcome::None);
        assert_eq!(r2.result_cache, CacheOutcome::None);

        // The two outcomes are independent: a result-cache hit leaves the
        // plan cache unconsulted, and vice versa.
        let mut stats = QueryStats::new();
        stats.result_cache_hits = 1;
        let hit = QueryRecord::new("relational", "spark", "q", 1, &stats, None, false, None);
        assert_eq!(hit.cache, CacheOutcome::None);
        assert_eq!(hit.result_cache, CacheOutcome::Hit);
        let mut stats = QueryStats::new();
        stats.cache_misses = 1;
        stats.result_cache_misses = 1;
        let miss = QueryRecord::new("relational", "spark", "q", 1, &stats, None, false, None);
        assert_eq!(miss.cache, CacheOutcome::Miss);
        assert_eq!(miss.result_cache, CacheOutcome::Miss);
    }

    #[test]
    fn old_dumps_without_result_cache_still_parse() {
        // A dump serialized before the result cache existed: the field is
        // absent and must default to None, not fail the parse.
        let rec = FlightRecorder::with_capacity(2);
        rec.append(record("relational", 10));
        let json = rec.dump().to_json();
        let legacy = json.replace(",\"result_cache\":\"none\"", "");
        assert!(
            !legacy.contains("result_cache"),
            "the test must actually strip the field"
        );
        let back = FlightDump::from_json(&legacy).unwrap();
        assert_eq!(back.records[0].result_cache, CacheOutcome::None);
        assert_eq!(back.records[0].cache, CacheOutcome::Hit);

        // An unknown value is still a parse error, not a silent default.
        let bad = json.replace("\"result_cache\":\"none\"", "\"result_cache\":\"bogus\"");
        assert!(FlightDump::from_json(&bad).is_err());
    }

    #[test]
    fn concurrent_appends_never_exceed_capacity() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(16));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let rec = std::sync::Arc::clone(&rec);
                scope.spawn(move || {
                    for i in 0..200 {
                        rec.append(record("relational", (t * 1000 + i) as u64));
                    }
                });
            }
        });
        assert_eq!(rec.appended(), 1600);
        assert_eq!(rec.len(), 16);
        assert_eq!(rec.dropped(), 1600 - 16);
        let dump = rec.dump();
        assert_eq!(dump.records.len(), 16);
        // every retained record is from the final wrap window
        assert!(dump.records.iter().all(|r| r.seq >= 1600 - 16));
        // the globally latest record is always retained
        assert!(dump.records.iter().any(|r| r.seq == 1599));
    }
}
