//! The query frame: the one pipeline all three engines share.
//!
//! An engine fills in a [`QueryFrame`] (its labels, generation, result cache
//! and sizing hooks) and hands [`run_query`] two closures — `clean` over the
//! parsed keywords and `run`, its evaluate body. The frame owns everything
//! else: the query's clock, trace sampling, parsing, the early returns, the
//! result-cache consult and the seal ([`finish_response`]).

use super::{SearchRequest, SearchResponse};
use kwdb_common::text::parse_query;
use kwdb_common::{
    CacheConfig, FacetCounts, FacetSpec, Looked, Phase, QueryStats, RangeBucket, Result,
    ShardedCache, TruncationReason,
};
use kwdb_obs::{
    families, Counter, EngineInstruments, FacetOutcome, Gauge, QueryRecord, TraceBuilder,
    TraceLevel, Watermark,
};
use kwdb_relsearch::Refinement;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Everything the query frame ([`run_query`]) needs to know about one
/// arriving query that is not in the [`SearchRequest`]: which engine and
/// algorithm label it runs under, the data generation it sees, and the
/// engine's result cache with its sizing hooks.
pub(super) struct QueryFrame<'a, H> {
    /// The engine's registry attachment, when it has one.
    pub(super) obs: Option<&'a EngineInstruments>,
    pub(super) cache: &'a ResultCache<H>,
    pub(super) engine: &'static str,
    pub(super) algorithm: &'static str,
    pub(super) generation: u64,
    /// Zero counts for every requested facet (relational), nothing
    /// (graph/XML) — see [`Answer::empty`]. Called by the early returns
    /// only.
    pub(super) empty_facets: &'a dyn Fn() -> Result<Vec<FacetCounts>>,
    /// Per-hit heap estimate for the cache's byte budget.
    pub(super) hit_bytes: fn(&H) -> usize,
    /// Whether the hits depend on the keywords' order (a graph answer lists
    /// one match per keyword, in order): the result-cache key then keeps
    /// that order instead of sorting it away.
    pub(super) keyword_order: bool,
}

/// The data-dependent part of a response — what the result cache stores
/// and an engine's evaluate body produces. Stats, truncation, and trace are
/// *per-execution* observations and are never cached: a hit re-stamps fresh
/// [`QueryStats`] (near-zero phase timings, `result_cache_hits = 1`).
#[derive(Clone)]
pub(super) struct Answer<H> {
    pub(super) hits: Vec<H>,
    pub(super) facets: Vec<FacetCounts>,
    pub(super) facets_exact: bool,
}

/// What an engine's evaluate body hands back to the frame: the answer and
/// this execution's truncation verdict.
pub(super) type Evaluated<H> = (Answer<H>, Option<TruncationReason>);

impl<H> Answer<H> {
    /// Hits from an engine without facet support.
    pub(super) fn unfaceted(hits: Vec<H>) -> Self {
        Answer {
            hits,
            facets: Vec::new(),
            facets_exact: true,
        }
    }

    /// No hits. `zero_counts` is what an empty result set faceted over
    /// looks like — exact when the query ran out of matches, not when a
    /// budget cut it short before anything could be counted.
    pub(super) fn empty(
        zero_counts: Vec<FacetCounts>,
        truncation: Option<TruncationReason>,
    ) -> Evaluated<H> {
        let none = Answer {
            hits: Vec::new(),
            facets_exact: truncation.is_none() || zero_counts.is_empty(),
            facets: zero_counts,
        };
        (none, truncation)
    }
}

/// One `name = value` field of a trace event.
pub(super) fn field(name: &str, value: impl ToString) -> (String, String) {
    (name.to_string(), value.to_string())
}

/// The `budget verdict` trace event an evaluation ends with.
pub(super) fn trace_verdict(tb: &mut TraceBuilder, truncation: Option<TruncationReason>) {
    tb.event("budget verdict", || {
        vec![field(
            "truncated",
            truncation.map_or("no".into(), |r| r.to_string()),
        )]
    });
}

/// The one query pipeline all three engines share. It owns the query's
/// clock ([`TraceBuilder`]), trace sampling, the parse phase, the
/// empty-query and exhausted-budget early returns, the result-cache consult
/// (admit → key → singleflight compute → store, or hit re-stamp) and the
/// seal; the engine supplies `clean` (a hook over the parsed keywords —
/// identity except for relational query cleaning) and `run`, its evaluate
/// body, which fills in `stats`, opens its phases on the clock
/// (`tb.phase(Phase::Build)`, …) and is the cacheable unit: called directly
/// when the cache does not admit the request, as the singleflight leader's
/// compute when it does.
///
/// The clock starts before the sampling decision with the parse phase
/// open and stops after `clean`, and again right after `run` returns. A
/// stopped clock's next phase starts where it stopped, so the key, the
/// consult and whatever `run` does before its first phase are that
/// phase's time; nothing after the last stop is in the phase sum.
///
/// # What a hit pays
///
/// A request answered from the result cache runs, in order: the trace
/// sampling decision (one atomic load and one atomic tick), `parse_query`
/// and `clean`, the [`ResultKey`] (the request's fields written into one
/// buffer sized up front and hashed once: one allocation whatever facets
/// and refinements the request carries, and one more for the term
/// references when unsorted terms are sorted), one lookup under one shard
/// lock (two `u64` hash writes and one byte compare), the gauge publish
/// (six atomic loads, two stores), one clone of the cached [`Answer`], and
/// the seal. It does **not** resolve facet specs or refinements, render
/// any request field as text, build a trace label, or reach anything in
/// `run`. Everything an engine computes before calling here is paid by
/// every hit, so it belongs in `run` unless a hit reads it: the relational
/// engine checks that every facet and refinement attribute exists (the
/// typed error precedes sampling and the consult, as it always has) and
/// takes its state lock; the others nothing.
pub(super) fn run_query<H: Clone>(
    frame: &QueryFrame<'_, H>,
    req: &SearchRequest,
    clean: impl FnOnce(Vec<String>, &mut TraceBuilder) -> Result<Vec<String>>,
    run: impl FnOnce(&[String], &mut QueryStats, &mut TraceBuilder) -> Result<Evaluated<H>>,
) -> Result<SearchResponse<H>> {
    let &QueryFrame {
        obs,
        cache,
        engine,
        algorithm,
        ..
    } = frame;
    let mut stats = QueryStats::new();
    let mut tb = TraceBuilder::start();
    tb.phase(Phase::Parse);
    let (level, sampled) = match obs {
        Some(obs) => obs.registry().sample_trace_level(req.trace),
        None => (req.trace, false),
    };
    tb.record(level, || format!("{engine}/{algorithm} {:?}", req.query));
    let keywords = clean(parse_query(&req.query), &mut tb)?;
    tb.stop();

    let run = |stats: &mut QueryStats, tb: &mut TraceBuilder| {
        let result = run(&keywords, stats, tb);
        tb.stop();
        result
    };
    let (answer, truncation) = if keywords.is_empty() {
        Answer::empty((frame.empty_facets)()?, None)
    } else if let Some(reason) = req.budget.truncation() {
        trace_verdict(&mut tb, Some(reason));
        Answer::empty((frame.empty_facets)()?, Some(reason))
    } else if !cache.admits(req, level) {
        run(&mut stats, &mut tb)?
    } else {
        let key = ResultKey::new(frame, &keywords, req);
        let looked = cache.cache.get_or_compute(key, || {
            stats.result_cache_misses = 1;
            let result = run(&mut stats, &mut tb);
            let store = match &result {
                // Only complete answers enter the cache; `admits` already
                // keeps constrained budgets out, so truncation here is
                // impossible — this is a belt-and-braces guard.
                Ok((answer, None)) => Some((
                    Arc::new(answer.clone()),
                    cached_bytes(&answer.hits, frame.hit_bytes, &answer.facets),
                )),
                _ => None,
            };
            (result, store)
        });
        cache.publish(obs);
        match looked {
            Looked::Computed(result) => result?,
            Looked::Cached(answer) => {
                stats.result_cache_hits = 1;
                ((*answer).clone(), None)
            }
        }
    };
    Ok(finish_response(
        frame, req, sampled, answer, stats, truncation, tb,
    ))
}

/// Seal a response: fold the stats into the registry (when the engine
/// carries one), append the query's flight record, and close the trace.
/// Every path through [`run_query`] — early return, hit, or full pipeline —
/// ends here, so registry totals always equal the sum of the per-query
/// `QueryStats` handed back to callers, and the flight recorder sees every
/// query.
fn finish_response<H>(
    frame: &QueryFrame<'_, H>,
    req: &SearchRequest,
    sampled: bool,
    answer: Answer<H>,
    mut stats: QueryStats,
    truncation: Option<TruncationReason>,
    clock: TraceBuilder,
) -> SearchResponse<H> {
    let trace;
    (stats.phases, trace) = clock.finish();
    if let Some(obs) = frame.obs {
        let record = QueryRecord::new(
            frame.engine,
            frame.algorithm,
            &req.query,
            req.k,
            &stats,
            truncation,
            sampled,
            trace.clone(),
        )
        .with_generation(frame.generation);
        let facets = (!answer.facets.is_empty()).then(|| FacetOutcome {
            values: answer.facets.iter().map(|f| f.values.len() as u64).sum(),
            exact: answer.facets_exact,
        });
        obs.seal(record, &stats, facets);
    }
    SearchResponse {
        hits: answer.hits,
        stats,
        truncation,
        trace,
        facets: answer.facets,
        facets_exact: answer.facets_exact,
    }
}

/// Key of one result-cache entry: every request field an answer depends
/// on, written into one byte string, and the string's hash, taken once.
/// `Hash` writes that hash and `Eq` compares it, then the bytes, so the key
/// is exact and a consult hashes one `u64` per probe. In order: the
/// **generation** (a mutation bumps it, so stale entries stop matching and
/// the LRU ages them out: there is no invalidation protocol), the algorithm
/// label, `k`, the summary size, the keywords after query cleaning as a
/// **multiset** (sorted — so `"query data"`, `"data query"` and a
/// misspelling the cleaner maps onto the same terms share one entry —
/// unless the frame's hits follow keyword order,
/// [`QueryFrame::keyword_order`]), then the facet specs and refinements.
/// Lists carry their counts, strings their lengths, variants a tag and
/// floats their bits, so a key reads back as exactly one request. Nothing
/// about the index's physical form is in it: a cache belongs to one engine,
/// which serves the index its data arrived with for as long as it lives.
#[derive(Clone)]
struct ResultKey {
    hash: u64,
    bytes: Box<[u8]>,
}

impl ResultKey {
    fn new<H>(frame: &QueryFrame<'_, H>, keywords: &[String], req: &SearchRequest) -> Self {
        // Sorted by reference, and only when the parsed order is not
        // already sorted (the relational `clean` sorts).
        let sorted = (!frame.keyword_order && !keywords.is_sorted()).then(|| {
            let mut terms: Vec<&String> = keywords.iter().collect();
            terms.sort_unstable();
            terms
        });
        let sorted = sorted.as_deref();
        // Measured, then written into a buffer of exactly that size.
        let mut len = 0usize;
        write_key(&mut len, frame, req, keywords, sorted);
        let mut bytes = Vec::with_capacity(len);
        write_key(&mut bytes, frame, req, keywords, sorted);
        debug_assert_eq!(bytes.len(), len);
        let mut hasher = DefaultHasher::new();
        hasher.write(&bytes);
        ResultKey {
            hash: hasher.finish(),
            bytes: bytes.into_boxed_slice(),
        }
    }
}

impl PartialEq for ResultKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for ResultKey {}

impl Hash for ResultKey {
    fn hash<S: Hasher>(&self, state: &mut S) {
        state.write_u64(self.hash);
    }
}

/// Where [`ResultKey::new`] writes: a byte count (`usize`), then the
/// buffer it sizes (`Vec<u8>`).
trait KeyWriter {
    fn bytes(&mut self, bytes: &[u8]);

    fn int(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.int(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

impl KeyWriter for usize {
    fn bytes(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

impl KeyWriter for Vec<u8> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The fields of [`ResultKey`], in its order; the terms are `sorted` when
/// that is given, else `keywords` as parsed.
fn write_key<H>(
    out: &mut impl KeyWriter,
    frame: &QueryFrame<'_, H>,
    req: &SearchRequest,
    keywords: &[String],
    sorted: Option<&[&String]>,
) {
    out.int(frame.generation);
    out.str(frame.algorithm);
    out.int(req.k as u64);
    out.int(req.summaries as u64);
    out.int(keywords.len() as u64);
    match sorted {
        Some(terms) => terms.iter().for_each(|t| out.str(t)),
        None => keywords.iter().for_each(|t| out.str(t)),
    }
    out.int(req.facets.len() as u64);
    for spec in &req.facets {
        write_facet(out, spec);
    }
    out.int(req.refinements.len() as u64);
    for refinement in &req.refinements {
        write_refinement(out, refinement);
    }
}

// The two encoders name every field (no `..`), so a field added to a spec
// or a refinement fails to compile here until the key holds it. Each
// variant writes its tag byte first.

fn write_facet(out: &mut impl KeyWriter, spec: &FacetSpec) {
    match spec {
        FacetSpec::Terms { attr, top_n } => {
            out.bytes(&[0]);
            out.str(attr);
            out.int(*top_n as u64);
        }
        FacetSpec::Range { attr, buckets } => {
            out.bytes(&[1]);
            out.str(attr);
            out.int(buckets.len() as u64);
            for RangeBucket { label, lo, hi } in buckets {
                out.str(label);
                out.int(lo.to_bits());
                out.int(hi.to_bits());
            }
        }
    }
}

fn write_refinement(out: &mut impl KeyWriter, refinement: &Refinement) {
    match refinement {
        Refinement::Term { attr, value } => {
            out.bytes(&[0]);
            out.str(attr);
            out.str(value);
        }
        Refinement::Range { attr, lo, hi } => {
            out.bytes(&[1]);
            out.str(attr);
            out.int(lo.to_bits());
            out.int(hi.to_bits());
        }
    }
}

/// The registry handles a result-cache consult publishes through, and the
/// eviction total this cache last published.
struct ResultCacheInstruments {
    entries: Arc<Gauge>,
    bytes: Arc<Gauge>,
    evictions: Arc<Counter>,
    evictions_published: Watermark,
}

impl ResultCacheInstruments {
    fn resolve(obs: &EngineInstruments) -> Self {
        let reg = obs.registry();
        let labels = [("engine", obs.engine())];
        ResultCacheInstruments {
            entries: reg.gauge(families::RESULT_CACHE_ENTRIES, &labels),
            bytes: reg.gauge(families::RESULT_CACHE_BYTES, &labels),
            evictions: reg.counter(families::RESULT_CACHE_EVICTIONS, &labels),
            evictions_published: Watermark::default(),
        }
    }
}

/// One engine's result cache: the sharded singleflight LRU plus the
/// registry handles its figures are published through.
pub(super) struct ResultCache<H> {
    cache: ShardedCache<ResultKey, Arc<Answer<H>>>,
    /// Resolved at the first consult with a registry attached.
    instruments: OnceLock<ResultCacheInstruments>,
}

impl<H> ResultCache<H> {
    pub(super) fn new(cfg: CacheConfig) -> Self {
        ResultCache {
            cache: ShardedCache::new(cfg),
            instruments: OnceLock::new(),
        }
    }

    fn enabled(&self) -> bool {
        self.cache.config().enabled
    }

    /// Whether this request may be answered from (and written to) the
    /// cache. Traced or trace-sampled queries bypass — a cached response
    /// carries no trace, and serving one would silently drop the
    /// observability the caller (or the sampling policy) asked for.
    /// Budget-constrained queries bypass too: a deadline or candidate cap
    /// makes the response a property of *this* execution's race against
    /// the clock, not of the data, and a capped request must not be handed
    /// a complete answer some uncapped twin computed.
    fn admits(&self, req: &SearchRequest, level: TraceLevel) -> bool {
        self.enabled() && req.use_cache && level == TraceLevel::Off && req.budget.is_unlimited()
    }

    /// Push the entries/bytes gauges and the cache's eviction total after a
    /// consult.
    fn publish(&self, obs: Option<&EngineInstruments>) {
        let Some(obs) = obs else { return };
        let to = self
            .instruments
            .get_or_init(|| ResultCacheInstruments::resolve(obs));
        let stats = self.cache.stats();
        to.entries.set(stats.entries as i64);
        to.bytes.set(stats.bytes as i64);
        to.evictions_published
            .publish(stats.evictions, &to.evictions);
    }
}

/// Approximate heap footprint of a cached response, for the cache's byte
/// budget. Estimates lean high-side: over-counting shrinks the effective
/// cache, under-counting would overrun the budget.
fn cached_bytes<H>(hits: &[H], per_hit: impl Fn(&H) -> usize, facets: &[FacetCounts]) -> usize {
    let hit_bytes: usize = hits.iter().map(per_hit).sum();
    let facet_bytes: usize = facets
        .iter()
        .map(|f| f.values.iter().map(|v| v.value.len() + 24).sum::<usize>() + 48)
        .sum();
    hit_bytes + facet_bytes + 96
}
