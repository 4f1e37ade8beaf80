//! The relational engine: tuple sets → CN plan (cached by mask signature) →
//! bound-driven evaluation by the one CN executor
//! ([`kwdb_relsearch::pexec`], the request's [`Scoring`] model and its
//! refinements its parameters) → facet counts by count propagation over the
//! same CNs ([`kwdb_relsearch::facets::count_facets`]), summaries and query
//! cleaning, inside the shared query frame.

use super::frame::{field, run_query, trace_verdict, Answer, Evaluated, QueryFrame, ResultCache};
use super::{
    CommitOutcome, DeleteKey, Engine, Hit, IngestRecord, MutableEngine, Scoring, SearchRequest,
    SearchResponse,
};
use kwdb_common::{
    CacheConfig, FacetCounts, FacetSpec, Looked, Phase, QueryStats, Result, ScratchPool,
    ShardedCache, TruncationReason, Value,
};
use kwdb_explore::summary::{object_summary, render_summary};
use kwdb_obs::{
    families, record_generation, record_index_stats, EngineInstruments, MetricsRegistry,
    TraceBuilder, Watermark,
};
use kwdb_qclean::segment::{clean_query, ValuePhraseModel};
use kwdb_qclean::SpellCorrector;
use kwdb_relational::{Database, ExecStats, Row, TableId, TupleId};
use kwdb_relsearch::cn::{CandidateNetwork, CnGenConfig, CnGenerator, MaskOracle};
use kwdb_relsearch::facets::{
    count_facets, resolve_facets, resolve_refinements, FacetAccum, FacetRequest,
};
use kwdb_relsearch::pexec::{evaluate, EvalScratch};
use kwdb_relsearch::topk::{CnExecOutcome, TopKQuery};
use kwdb_relsearch::{Refinement, ResultScorer, TupleSets};
use std::sync::{Arc, RwLock};

/// A rendered relational hit.
#[derive(Debug, Clone)]
pub struct RelationalHit {
    pub score: f64,
    /// The joining tree of tuples, rendered `table(v, …) ⋈ table(v, …)`.
    pub rendered: String,
    pub tuples: Vec<kwdb_relational::TupleId>,
    /// The size-`l` object summary, one rendered tuple per line, when the
    /// request asked for one ([`SearchRequest::summaries`]); empty
    /// otherwise.
    pub summary: Vec<String>,
}

/// Configuration for the relational pipeline. What is *not* here is decided
/// elsewhere, once: the text index by the database
/// ([`Database::build_text_index`] — the engine serves the index it is
/// handed), the scoring model on the request ([`SearchRequest::scoring`]).
#[derive(Debug, Clone, Copy)]
pub struct RelationalConfig {
    /// Maximum candidate-network size.
    pub max_cn_size: usize,
    /// Safety cap on generated CNs (0 = unlimited).
    pub max_cns: usize,
    /// Cap on cached CN plans; inserting past it evicts the least recently
    /// used one (0 = unbounded cache).
    pub max_cache_entries: usize,
    /// Opt-in query cleaning at the term-dictionary boundary: when a parsed
    /// keyword has no entry in the text index, run the noisy-channel
    /// spell/segmentation pass ([`kwdb_qclean`]) over the whole query and
    /// search the cleaned keywords instead. The model is built lazily, once
    /// per data generation that sees a cleaning query (`clean_model`).
    /// Default `false`: unknown keywords simply match nothing.
    pub clean_queries: bool,
    /// The **result cache**: whole sealed responses, keyed by generation +
    /// normalized terms + algorithm, `k`, facets, refinements and summary
    /// size. Enabled by default; pass [`CacheConfig::disabled`] for fully
    /// deterministic per-query counters (determinism suites), or opt single
    /// requests out with [`SearchRequest::caching`]. Tuple sets are built
    /// from the index on every computed query, whatever this says.
    pub result_cache: CacheConfig,
}

impl Default for RelationalConfig {
    fn default() -> Self {
        RelationalConfig {
            max_cn_size: 5,
            max_cns: 2000,
            max_cache_entries: 256,
            clean_queries: false,
            result_cache: CacheConfig::default(),
        }
    }
}

/// Key of one CN plan-cache entry — everything CN generation reads that can
/// differ between two queries of one engine, and nothing else: the schema
/// fingerprint, the query's **mask signature** (the sorted non-empty
/// `(table, mask)` tuple-set keys — masks are positional, so keyword order is
/// part of it) and the keyword count. Neither the keyword strings nor the
/// data generation appear: queries over different words share a plan when
/// the same tuple sets are non-empty, and a mutation replans only when it
/// changes which ones are.
type CnCacheKey = (u64, Vec<(TableId, u32)>, usize);

/// The query-cleaning model: a spelling corrector over the index
/// vocabulary plus a phrase model over the full-text column values.
type CleanModel = (SpellCorrector, ValuePhraseModel);

/// Sizing of the plan cache and the cleaning-model cache: one stripe, so the
/// LRU order is global; capped by entry count alone (`0` = unbounded); and on
/// whatever [`RelationalConfig::result_cache`] says — neither holds responses.
fn entry_capped(max_entries: usize) -> CacheConfig {
    CacheConfig {
        enabled: true,
        max_bytes: usize::MAX,
        max_entries: if max_entries == 0 {
            usize::MAX
        } else {
            max_entries
        },
        stripes: 1,
    }
}

/// What [`RelationalEngine::segment_counts`] returns. Kept only for
/// `benchmark/`, deleted by ROADMAP 1(a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCounts {
    pub realtime: usize,
    pub sealed: usize,
}

/// DISCOVER-style keyword search over a relational database: tuple sets →
/// candidate networks → bound-driven top-k evaluation.
///
/// Owns its database behind an `Arc`, so the engine is `Send + Sync` and
/// one instance can serve concurrent queries. The database is all the state
/// there is: the text index and the FK index are its derived structures,
/// maintained by its own `ingest` / `delete`, and each query's scorer reads
/// its keyword weights off the text index's counts
/// ([`ResultScorer::from_index`]). Everything else here is a pool or a cache in one
/// idiom, a [`ShardedCache`] — responses, plans and the cleaning model read
/// through `get_or_compute`, so racing misses on one key compute once.
pub struct RelationalEngine {
    /// The database, swapped copy-on-write by [`mutate`](Self::mutate).
    /// Queries hold the read lock end to end, so a mutation never swaps it
    /// underneath a running query.
    db: RwLock<Arc<Database>>,
    cfg: RelationalConfig,
    /// CN plans by mask signature, capped at
    /// [`RelationalConfig::max_cache_entries`].
    cn_cache: ShardedCache<CnCacheKey, Arc<Vec<CandidateNetwork>>>,
    /// The plan cache's evictions already published to the registry.
    plan_evictions_published: Watermark,
    obs: Option<EngineInstruments>,
    /// Join and count buffers, pooled across queries: each running query
    /// checks one out.
    pub(super) scratch: ScratchPool<EvalScratch>,
    /// Lazily built query-cleaning model ([`RelationalConfig::clean_queries`])
    /// keyed by the generation it was built at, one entry: a cleaning query
    /// of a newer generation builds a new model and evicts the old.
    clean: ShardedCache<u64, Arc<CleanModel>>,
    /// Whole sealed responses by generation and request shape: a repeat
    /// query skips build/plan/evaluate entirely.
    result_cache: ResultCache<RelationalHit>,
}

impl RelationalEngine {
    /// Build an engine owning `db` (pass a `Database` to move it in, or an
    /// `Arc<Database>` to share it with other owners).
    pub fn new(db: impl Into<Arc<Database>>) -> Self {
        Self::with_config(db, RelationalConfig::default())
    }

    pub fn with_config(db: impl Into<Arc<Database>>, cfg: RelationalConfig) -> Self {
        RelationalEngine {
            db: RwLock::new(db.into()),
            cfg,
            cn_cache: ShardedCache::new(entry_capped(cfg.max_cache_entries)),
            plan_evictions_published: Watermark::default(),
            obs: None,
            scratch: ScratchPool::new(),
            clean: ShardedCache::new(entry_capped(1)),
            result_cache: ResultCache::new(cfg.result_cache),
        }
    }

    /// Threads one query runs on: always 1, the thread that calls
    /// [`execute`](Self::execute). Concurrency is across requests (see
    /// [`crate::dispatch::Dispatcher`]).
    pub fn resolved_workers(&self) -> usize {
        1
    }

    /// Record every query (and plan-cache activity) into `registry`, and
    /// publish the text index's build/size figures and the engine
    /// generation up front.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        let db = self.database();
        if let Ok(ix) = db.text_index() {
            record_index_stats(&registry, "relational_text", &ix.index_stats());
        }
        self.obs = Some(EngineInstruments::new(
            registry,
            "relational",
            &["parallel_cn", "spark"],
        ));
        self.publish_generation(&db);
        self
    }

    fn registry(&self) -> Option<&MetricsRegistry> {
        self.obs.as_ref().map(|obs| &**obs.registry())
    }

    /// A handle to the database this engine queries — a snapshot of the
    /// current generation. Mutations after this call copy-on-write, so
    /// the returned handle keeps observing the state it was taken at.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.db.read().expect("engine state poisoned"))
    }

    /// The engine's data generation (bumped by every successful mutation).
    pub fn generation(&self) -> u64 {
        self.db.read().expect("engine state poisoned").generation()
    }

    /// `{ realtime: 0, sealed: 1 }` once the text index is built (and
    /// fresh), zeros before. Kept only for `benchmark/`, deleted by ROADMAP
    /// 1(a).
    pub fn segment_counts(&self) -> SegmentCounts {
        let built = self
            .db
            .read()
            .expect("engine state poisoned")
            .is_index_fresh();
        SegmentCounts {
            realtime: 0,
            sealed: usize::from(built),
        }
    }

    /// The one mutation path: take the state lock for writing, un-share the
    /// database (a shared one is copy-on-written, so handles returned by
    /// [`database`](Self::database) before the call keep their snapshot),
    /// apply `verb`, and publish the generation it left. A failed verb
    /// publishes nothing.
    ///
    /// When no snapshot is outstanding, `Arc::make_mut` hands `verb` the
    /// live database itself, not a copy. A verb that panics part-way thus
    /// leaves a half-applied `Database` behind a poisoned lock, and
    /// recovering the lock (`PoisonError::into_inner`) would serve it:
    /// recovery first needs the verb to run on a copy, or an undo step.
    fn mutate<T>(&self, verb: impl FnOnce(&mut Database) -> Result<T>) -> Result<T> {
        let mut shared = self.db.write().expect("engine state poisoned");
        let db = Arc::make_mut(&mut shared);
        let done = verb(db)?;
        self.publish_generation(db);
        Ok(done)
    }

    /// Ingest one tuple through the incremental path
    /// ([`Database::ingest`]): FK-validate, append to the table, add its
    /// postings to their lists and count it into the index's totals — no
    /// rebuild, no rescan. Requires a fresh index (build once, then ingest).
    pub fn ingest_tuple(&self, table: &str, row: Row) -> Result<TupleId> {
        self.mutate(|db| {
            let id = db.ingest(table, row)?;
            if let Some(reg) = self.registry() {
                reg.counter(families::INGESTED_TUPLES, &[("engine", "relational")])
                    .inc();
            }
            Ok(id)
        })
    }

    /// Delete the row of `table` whose primary key equals `pk`
    /// ([`Database::delete`]): tombstone the row, remove its postings from
    /// their lists, and back its tokens out of the index's totals.
    pub fn delete_tuple(&self, table: &str, pk: &Value) -> Result<TupleId> {
        self.mutate(|db| db.delete(table, pk))
    }

    /// A generation event over a fresh index ([`Database::commit_index`]):
    /// the index needs no sealing, but the bump invalidates every
    /// generation-keyed cache entry.
    pub fn commit(&self) -> Result<CommitOutcome> {
        self.mutate(|db| {
            db.text_index()?;
            db.commit_index();
            Ok(CommitOutcome {
                generation: db.generation(),
            })
        })
    }

    /// [`commit`](Self::commit) under its old compaction name. Kept only for
    /// `benchmark/`, deleted by ROADMAP 1(a).
    pub fn merge(&self) -> Result<CommitOutcome> {
        self.commit()
    }

    /// Push the generation gauge: after a mutation, and when a registry is
    /// attached.
    fn publish_generation(&self, db: &Database) {
        if let Some(reg) = self.registry() {
            record_generation(reg, "relational", db.generation());
        }
    }

    /// Execute a [`SearchRequest`]: budgeted, instrumented top-k search,
    /// with optional facet counting, drill-down refinements, per-hit
    /// object summaries, and (when configured) query cleaning.
    pub fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<RelationalHit>> {
        // Held to the end: the whole query sees one generation.
        let shared = self.db.read().expect("engine state poisoned");
        let db: &Arc<Database> = &shared;
        let budget = &req.budget;
        let scoring = req.scoring.unwrap_or_default();

        // Facet and refinement attributes are schema references, not query
        // keywords: an unknown `table.column` fails the request with a typed
        // error — before anything is sampled, consulted or sealed — instead
        // of silently counting nothing. Checking is all a hit needs (two
        // schema lookups per attribute, no allocation); *resolving* them
        // clones the specs, so that waits for whoever reads the result: the
        // evaluate body, or `empty_facets` for the early returns.
        for attr in (req.facets.iter().map(FacetSpec::attr))
            .chain(req.refinements.iter().map(Refinement::attr))
        {
            db.resolve_attr(attr)?;
        }
        let empty_facets = || -> Result<Vec<FacetCounts>> {
            let facets = resolve_facets(db, &req.facets)?;
            Ok(FacetAccum::new(facets.len()).finish(&facets))
        };
        let frame = QueryFrame {
            obs: self.obs.as_ref(),
            cache: &self.result_cache,
            engine: "relational",
            algorithm: match scoring {
                Scoring::Monotone => "parallel_cn",
                Scoring::Spark => "spark",
            },
            generation: db.generation(),
            empty_facets: &empty_facets,
            hit_bytes: relational_hit_bytes,
            keyword_order: false,
        };

        let clean = |mut keywords: Vec<String>, tb: &mut TraceBuilder| -> Result<Vec<String>> {
            if self.cfg.clean_queries && !keywords.is_empty() {
                let ix = db.text_index()?;
                if keywords.iter().any(|kw| ix.sym(kw).is_none()) {
                    // At least one keyword misses the term dictionary: run the
                    // noisy-channel spell + segmentation pass once, over the
                    // whole query, and search the cleaned tokens instead.
                    let model = self.clean_model(db);
                    if let Some(cleaned) = clean_query(&model.0, &model.1, &keywords, 2) {
                        tb.event("query cleaned", || {
                            vec![
                                field("from", keywords.join(" ")),
                                field("to", cleaned.display()),
                            ]
                        });
                        keywords = cleaned.tokens().iter().map(|s| s.to_string()).collect();
                    }
                }
            }
            // The answer is a function of the keyword set: masks, CN order
            // and score sums all follow keyword order, so fix one.
            keywords.sort_unstable();
            tb.event("keywords", || vec![field("count", keywords.len())]);
            Ok(keywords)
        };

        // Tuple sets, planning, evaluation, facet finalization.
        let run = |keywords: &[String],
                   stats: &mut QueryStats,
                   tb: &mut TraceBuilder|
         -> Result<Evaluated<RelationalHit>> {
            tb.phase(Phase::Build);
            // Resolution is independent of the keyword set, so drill-downs
            // reuse the CN plan cache untouched.
            let facets = resolve_facets(db, &req.facets)?;
            let refinements = resolve_refinements(db, &req.refinements)?;
            let freq = FacetRequest {
                facets: &facets,
                refinements: &refinements,
            };

            // One scratch for the whole query: the sets take its row array,
            // where the build leaves each matched row's position, and the
            // executor and the facet count find rows by it. Every `Ok` exit
            // recycles the sets, handing the array back zeroed.
            let scratch = &mut self.scratch.checkout(EvalScratch::new);
            let ts = TupleSets::build_with(db, keywords, scratch)?;
            if !ts.covers_all_keywords() {
                tb.event("tuple sets", || vec![field("covers_all_keywords", false)]);
                ts.recycle(scratch);
                return Ok(Answer::empty(empty_facets()?, None));
            }
            if let Some(reason) = budget.truncation() {
                ts.recycle(scratch);
                return Ok(Answer::empty(empty_facets()?, Some(reason)));
            }
            tb.phase(Phase::Plan);
            let cns = self.plan(db, &ts, stats, tb);
            tb.phase(Phase::Evaluate);
            stats.candidates_generated = cns.len() as u64;
            // Per-query scorer over the text index's own counts: one Arc
            // clone, no tuple read.
            let scorer = ResultScorer::from_index(Arc::clone(db))?;
            let q = TopKQuery {
                db,
                ts: &ts,
                cns: &cns,
                scorer: &scorer,
                keywords,
            };
            let exec = ExecStats::new();
            // One executor for either score model, on this thread.
            let CnExecOutcome {
                results: ranked,
                truncation,
                cns_evaluated,
                cns_pruned,
            } = evaluate(&q, req.k, scoring, &exec, budget, scratch, &refinements);
            tb.event("operators", || {
                let snap = exec.snapshot();
                vec![
                    field("tuples_scanned", snap.tuples_scanned),
                    field("join_probes", snap.join_probes),
                    field("rows_output", snap.rows_output),
                ]
            });
            trace_verdict(tb, truncation);

            // Facet counts of the full result multiset, by count propagation
            // over every CN — not over what the top-k loop above happened to
            // join — then per-hit summaries. Linear work, on this thread; only
            // a deadline leaves the counts inexact, and the response then says
            // it was cut short.
            tb.phase(Phase::Facets);
            stats.cns_evaluated = cns_evaluated;
            stats.cns_pruned = cns_pruned;
            let mut contributing: Vec<usize> = ranked.iter().map(|r| r.cn_index).collect();
            contributing.sort_unstable();
            contributing.dedup();
            stats.candidates_pruned = stats
                .candidates_generated
                .saturating_sub(contributing.len() as u64);
            let tally = count_facets(db, &ts, &cns, &freq, budget, &exec, scratch);
            ts.recycle(scratch);
            let snap = exec.snapshot();
            stats.operators.tuples_scanned = snap.tuples_scanned;
            stats.operators.join_probes = snap.join_probes;
            stats.operators.joins_executed = snap.joins_executed;
            stats.operators.rows_output = snap.rows_output;
            stats.operators.join_probe_rows = snap.probe_rows;
            // (a cut count pass is a deadline gone by: the response says so)
            let facets_exact = !tally.cut;
            let truncation = truncation.or(tally.cut.then_some(TruncationReason::DeadlineExceeded));
            let facet_counts = tally.counts.finish(&facets);
            let hits: Vec<RelationalHit> = ranked
                .into_iter()
                .map(|r| RelationalHit {
                    score: r.score,
                    rendered: render(db, &r.result.tuples),
                    summary: if req.summaries == 0 {
                        Vec::new()
                    } else {
                        render_summary(db, &object_summary(db, &r.result.tuples, req.summaries))
                    },
                    tuples: r.result.tuples,
                })
                .collect();
            if !facets.is_empty() {
                tb.event("facet count", || {
                    vec![
                        field("cns_counted", tally.cns_counted),
                        field("cns_skipped_no_facet_node", tally.cns_skipped_no_facet_node),
                        field("cns_dropped_by_refinement", tally.cns_dropped_by_refinement),
                        field("message_rows", tally.message_rows),
                    ]
                });
                tb.event("facets", || {
                    vec![
                        field("requested", facets.len()),
                        field(
                            "values",
                            facet_counts.iter().map(|f| f.values.len()).sum::<usize>(),
                        ),
                        field("exact", facets_exact),
                    ]
                });
            }
            let answer = Answer {
                hits,
                facets: facet_counts,
                facets_exact,
            };
            Ok((answer, truncation))
        };

        run_query(&frame, req, clean, run)
    }

    /// Generate (or fetch from the plan cache) the candidate networks for
    /// this query's mask signature. Of N threads racing on a cold key exactly
    /// one generates (and reports the miss); the rest wait, then hit. Past
    /// [`RelationalConfig::max_cache_entries`] the least recently used plan
    /// goes. Size, generations and evictions are reported to the registry.
    fn plan(
        &self,
        db: &Database,
        ts: &TupleSets,
        stats: &mut QueryStats,
        tb: &mut TraceBuilder,
    ) -> Arc<Vec<CandidateNetwork>> {
        let key: CnCacheKey = (db.schema_fingerprint(), ts.keys(), ts.n_keywords());
        let evictions_before = self.cn_cache.stats().evictions;
        let looked = self.cn_cache.get_or_compute(key, || {
            let oracle = MaskOracle::from_tuplesets(ts);
            let mut generator = CnGenerator::new(
                db.schema_graph(),
                &oracle,
                CnGenConfig {
                    max_size: self.cfg.max_cn_size,
                    dedupe: true,
                    max_cns: self.cfg.max_cns,
                },
            );
            let cns = Arc::new(generator.generate());
            (Arc::clone(&cns), Some((cns, 0)))
        });
        let missed = matches!(looked, Looked::Computed(_));
        let (Looked::Computed(cns) | Looked::Cached(cns)) = looked;
        // (a leader's plan is stored, and the cap enforced, by now)
        let cache = self.cn_cache.stats();
        if !missed {
            stats.cache_hits = 1;
        } else {
            stats.cache_misses = 1;
            if let Some(reg) = self.registry() {
                let labels = [("engine", "relational")];
                reg.counter(families::PLAN_CACHE_GENERATIONS, &labels).inc();
                reg.gauge(families::PLAN_CACHE_SIZE, &labels)
                    .set(cache.entries as i64);
                // (the family appears in a snapshot with the first eviction)
                if cache.evictions > 0 {
                    let evictions = reg.counter(families::PLAN_CACHE_EVICTIONS, &labels);
                    self.plan_evictions_published
                        .publish(cache.evictions, &evictions);
                }
            }
        }
        tb.event("plan cache", || {
            let outcome = if missed { "miss" } else { "hit" };
            let mut fields = vec![field("outcome", outcome), field("cns", cns.len())];
            if missed {
                let evicted = cache.evictions > evictions_before;
                fields.push(field("evicted", evicted));
            }
            fields
        });
        cns
    }

    /// The query-cleaning model for `db`'s generation: a noisy-channel
    /// [`SpellCorrector`] whose vocabulary is the text index's term
    /// dictionary (document frequency as the language-model prior) and a
    /// [`ValuePhraseModel`] over the full-text column values (so
    /// segmentation recovers multi-token values). Built by the first query
    /// of a generation that needs cleaning (racing queries build once), so
    /// vocabulary ingested after a build is corrected to.
    fn clean_model(&self, db: &Database) -> Arc<CleanModel> {
        let looked = self.clean.get_or_compute(db.generation(), || {
            let ix = db.text_index().expect("caller verified a fresh text index");
            let vocab = ix.terms().map(|t| (t, (ix.doc_freq(t) as u64).max(1)));
            let mut values: Vec<String> = Vec::new();
            for table in db.tables() {
                let text_cols: Vec<usize> = table.schema.text_columns().collect();
                for (_, row) in table.iter() {
                    let texts = text_cols.iter().filter(|&&c| !row[c].is_null());
                    values.extend(texts.map(|&c| row[c].to_string()));
                }
            }
            let model = Arc::new((
                SpellCorrector::from_vocab(vocab),
                ValuePhraseModel::from_values(&values),
            ));
            (Arc::clone(&model), Some((model, 0)))
        });
        let (Looked::Computed(model) | Looked::Cached(model)) = looked;
        model
    }
}

impl Engine for RelationalEngine {
    fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<Hit>> {
        Ok(RelationalEngine::execute(self, req)?.map(Hit::Relational))
    }
}

impl MutableEngine for RelationalEngine {
    fn ingest(&self, record: IngestRecord) -> Result<()> {
        let IngestRecord::Tuple { table, values } = record;
        self.ingest_tuple(&table, values).map(drop)
    }

    fn delete(&self, key: DeleteKey) -> Result<()> {
        let DeleteKey::TuplePk { table, pk } = key;
        self.delete_tuple(&table, &pk).map(drop)
    }

    fn commit(&self) -> Result<CommitOutcome> {
        RelationalEngine::commit(self)
    }

    fn generation(&self) -> u64 {
        RelationalEngine::generation(self)
    }
}

fn relational_hit_bytes(h: &RelationalHit) -> usize {
    h.rendered.len()
        + h.summary.iter().map(|s| s.len() + 24).sum::<usize>()
        + h.tuples.len() * 8
        + 64
}

/// A hit's tuples, rendered and joined by ` ⋈ ` into one buffer, measured
/// first ([`Database::tuple_len`]) so it is allocated once at its size.
fn render(db: &Database, tuples: &[TupleId]) -> String {
    const JOIN: &str = " ⋈ ";
    let len = (tuples.iter().map(|&t| db.tuple_len(t))).sum::<usize>()
        + JOIN.len() * tuples.len().saturating_sub(1);
    let mut out = String::with_capacity(len);
    for (i, &t) in tuples.iter().enumerate() {
        if i > 0 {
            out.push_str(JOIN);
        }
        db.write_tuple(&mut out, t);
    }
    debug_assert_eq!(out.len(), len, "measured as written");
    out
}
