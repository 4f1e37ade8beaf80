//! What the four workloads share: issuing one request through the
//! dispatcher, validating and digesting responses, the correctness oracles,
//! dataset digests, and host facts.

use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use kwdb::common::text::parse_query;
use kwdb::common::{FacetCount, FacetCounts, FacetSpec, Stopwatch};
use kwdb::dispatch::Dispatcher;
use kwdb::engine::{
    Hit, RelationalConfig, RelationalEngine, RelationalHit, SearchRequest, SearchResponse,
};
use kwdb::graph::DataGraph;
use kwdb::rank::CorpusStats;
use kwdb::relational::{Database, ExecStats};
use kwdb::relsearch::cn::{CandidateNetwork, CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::topk::{naive_counted, TopKQuery};
use kwdb::relsearch::{ResultScorer, TupleSets};
use kwdb::xml::{XmlIndex, XmlTree};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the time-bounded section.
    pub seconds: f64,
    pub traced: bool,
    /// `--quick`: one set-up, reduced fixed op counts; numbers not comparable.
    pub quick: bool,
    pub epoch: Instant,
}

impl Ctx {
    /// A fixed op count, cut to 1/20 under `--quick`.
    pub fn ops(&self, n: usize) -> usize {
        if self.quick {
            (n / 20).max(1)
        } else {
            n
        }
    }

    pub fn setup_reps(&self, n: usize) -> usize {
        if self.quick {
            1
        } else {
            n
        }
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checker {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg());
        }
    }

    /// One checked operation: counts the attempt, and the failure if any.
    pub fn verdict(&mut self, what: &str, r: Result<(), String>) {
        self.attempt();
        if let Err(e) = r {
            self.fail(|| format!("{what}: {e}"));
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

/// Everything a workload hands back.
pub struct Outcome {
    pub values: Values,
    pub checker: Checker,
    /// Hash of ordered hit ids and rounded scores over a fixed prefix of the
    /// op stream; repeats exactly for a seed on the deterministic workloads.
    pub result_digest: u64,
    pub datasets: Vec<DatasetDigest>,
    /// Sample and op counts behind the metrics, for the run record.
    pub counts: Vec<(&'static str, u64)>,
    /// Free-form lines for the report (sample counts, caveats).
    pub notes: Vec<String>,
    /// Where the run's wall time went, phase by phase.
    pub phases: Vec<(&'static str, f64)>,
    pub tracers: Vec<Tracer>,
}

/// Wall time of a run's phases (set-up, load, checks, replays …), printed
/// so a run that overruns its time budget shows where.
pub struct Phases {
    watch: Stopwatch,
    laps: Vec<(&'static str, f64)>,
}

impl Phases {
    pub fn start() -> Self {
        Phases {
            watch: Stopwatch::start(),
            laps: Vec::new(),
        }
    }

    /// Close the phase that has been running since the previous lap.
    pub fn lap(&mut self, name: &'static str) {
        self.laps.push((name, self.watch.lap().as_secs_f64()));
    }

    pub fn finish(self) -> Vec<(&'static str, f64)> {
        self.laps
    }
}

/// What set-up cost: the median wall time over the repetitions, and the
/// resident set size of the *first* one at the moment its engines stood
/// (data, indexes, engines, lazily built indexes; before any warm-up query,
/// whose transient memory varies with the seed) — later repetitions reuse
/// freed memory.
#[derive(Debug, Clone, Copy)]
pub struct SetupCost {
    pub seconds: f64,
    pub rss_mb: f64,
}

/// Handed to the set-up closure so it can say when its engines stand.
#[derive(Debug, Default)]
pub struct SetupProbe {
    rss_mb: Option<f64>,
}

impl SetupProbe {
    /// Records the resident set size the first time it is called.
    pub fn engines_built(&mut self) {
        self.rss_mb.get_or_insert_with(|| proc_status_mb("VmRSS:"));
    }
}

/// Repeat `setup` and keep the last product. Earlier products are dropped
/// before the next is built so memory stays that of one set-up.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut(&mut SetupProbe) -> T) -> (T, SetupCost) {
    let mut times = Vec::with_capacity(reps);
    let mut probe = SetupProbe::default();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(&mut probe));
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        SetupCost {
            seconds: stats::median(&mut times),
            rss_mb: probe.rss_mb.expect("set-up reported its engines built"),
        },
    )
}

/// Send one request the way a client does — `Dispatcher::execute_serial`,
/// one request at a time — under a `request` span. Returns the response and
/// the latency the client saw, in nanoseconds.
pub fn issue(
    d: &Dispatcher,
    tracer: &mut Tracer,
    request_id: u64,
    engine: &str,
    req: SearchRequest,
) -> (kwdb::Result<SearchResponse<Hit>>, u64) {
    let batch = vec![(engine.to_string(), req)];
    let root = tracer.begin("request", None, request_id);
    let (mut out, ns) = tracer.span("dispatch.execute_serial", Some(root), request_id, || {
        d.execute_serial(&batch)
    });
    tracer.end(root);
    (out.responses.pop().expect("one response per request"), ns)
}

/// Latency samples of one client, split by how the response was produced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Requests that were computed, in ms.
    pub computed_ms: Vec<f64>,
    /// Requests answered from the result cache, in µs.
    pub hit_us: Vec<f64>,
}

impl Samples {
    pub fn record(&mut self, resp: &SearchResponse<Hit>, ns: u64) {
        if resp.stats.result_cache_hits == 1 {
            self.hit_us.push(ns as f64 / 1e3);
        } else {
            self.computed_ms.push(ns as f64 / 1e6);
        }
    }

    pub fn merge(&mut self, other: Samples) {
        self.computed_ms.extend(other.computed_ms);
        self.hit_us.extend(other.hit_us);
    }

    /// Fill the latency metrics; returns a line stating the sample counts
    /// behind them and the highest percentile they support.
    pub fn report(&mut self, values: &mut Values) -> String {
        values.set("query_p50_ms", stats::median(&mut self.computed_ms));
        values.set(
            "bench.query_p90_ms",
            stats::percentile(&mut self.computed_ms, 0.90),
        );
        values.set("hit_p50_us", stats::median(&mut self.hit_us));
        let n = self.computed_ms.len();
        let tail = match stats::highest_supported(n) {
            Some((label, q)) => format!(
                "highest supported percentile {label} = {} ms",
                stats::percentile(&mut self.computed_ms, q)
            ),
            None => "too few for any percentile".into(),
        };
        format!(
            "latency samples: {n} computed ({tail}{}), {} hits",
            if stats::supports_quantile(n, 0.90) {
                ""
            } else {
                "; p90 has fewer than ten samples beyond it"
            },
            self.hit_us.len()
        )
    }
}

/// The basic contract of every response: `Ok`, untruncated, at most `k`
/// hits, scores non-increasing. Counts one attempted operation.
pub fn validate<'a>(
    checker: &mut Checker,
    what: &str,
    resp: &'a kwdb::Result<SearchResponse<Hit>>,
    k: usize,
) -> Option<&'a SearchResponse<Hit>> {
    validate_ranked(checker, what, resp, k, true)
}

/// [`validate`] with the ranking check optional. BANKS and BLINKS answers
/// skip it: both rank by the distinct-root cost (sum of root-to-match
/// distances) but report the cost of the pruned tree, which shares edges and
/// need not be monotone.
pub fn validate_ranked<'a>(
    checker: &mut Checker,
    what: &str,
    resp: &'a kwdb::Result<SearchResponse<Hit>>,
    k: usize,
    ranked_by_score: bool,
) -> Option<&'a SearchResponse<Hit>> {
    checker.attempt();
    let resp = match resp {
        Ok(r) => r,
        Err(e) => {
            checker.fail(|| format!("{what}: {e}"));
            return None;
        }
    };
    if resp.truncated() {
        checker.fail(|| format!("{what}: truncated"));
    } else if resp.hits.len() > k {
        checker.fail(|| format!("{what}: {} hits for k={k}", resp.hits.len()));
    } else if ranked_by_score && resp.hits.windows(2).any(|w| w[0].score() < w[1].score()) {
        checker.fail(|| format!("{what}: scores increase down the ranking"));
    }
    Some(resp)
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of what a response *says*: ordered hit ids, scores rounded to
/// 1e-6, and facet counts. Stats, timings and traces are left out.
pub fn response_digest(resp: &SearchResponse<Hit>) -> u64 {
    let mut h = Fnv::default();
    for hit in &resp.hits {
        match hit {
            Hit::Relational(r) => {
                for t in &r.tuples {
                    h.u64((t.table.0 as u64) << 32 | t.row.0 as u64);
                }
                for line in &r.summary {
                    h.str(line);
                }
            }
            Hit::Graph(t) => {
                h.u64(t.root.0 as u64);
                for m in &t.matches {
                    h.u64(m.0 as u64);
                }
            }
            Hit::Xml(x) => h.u64(x.root.0 as u64),
        }
        h.u64((hit.score() * 1e6).round() as i64 as u64);
    }
    for f in &resp.facets {
        h.str(&f.attr);
        for v in &f.values {
            h.str(&v.value);
            h.u64(v.count);
        }
    }
    h.finish()
}

/// Remembers the digest of the first response to each distinct request and
/// checks every later response to the same request — cache hit or not —
/// against it.
#[derive(Debug, Default)]
pub struct FirstAnswers(HashMap<u64, u64>);

impl FirstAnswers {
    pub fn check(&mut self, checker: &mut Checker, engine: &str, req: &SearchRequest, digest: u64) {
        let mut key = Fnv::default();
        key.str(engine);
        key.str(&format!("{req:?}"));
        match self.0.get(&key.finish()) {
            Some(&first) if first != digest => {
                checker.fail(|| format!("{:?} answered differently on a repeat", req.query()))
            }
            Some(_) => {}
            None => {
                self.0.insert(key.finish(), digest);
            }
        }
    }
}

/// The plan the relational engine would generate, from the same public
/// pieces and the engine's default configuration.
pub fn generate_cns(db: &Database, ts: &TupleSets) -> Vec<CandidateNetwork> {
    let cfg = RelationalConfig::default();
    let oracle = MaskOracle::from_tuplesets(ts);
    CnGenerator::new(
        db.schema_graph(),
        &oracle,
        CnGenConfig {
            max_size: cfg.max_cn_size,
            dedupe: true,
            max_cns: cfg.max_cns,
        },
    )
    .generate()
}

/// Re-answer a relational top-k request with the naive evaluator (every CN
/// joined in full) over the same tuple sets and CNs; the score lists must
/// match.
fn check_topk_oracle(
    db: &Arc<Database>,
    corpus: &Arc<CorpusStats>,
    query: &str,
    k: usize,
    got: &[f64],
) -> Result<(), String> {
    let keywords = parse_query(query);
    let ts = TupleSets::build(db, &keywords).map_err(|e| e.to_string())?;
    let want: Vec<f64> = if ts.covers_all_keywords() {
        let cns = generate_cns(db, &ts);
        let scorer = ResultScorer::from_stats(Arc::clone(db), Arc::clone(corpus));
        let q = TopKQuery {
            db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        naive_counted(&q, k, &ExecStats::new())
            .results
            .iter()
            .map(|r| r.score)
            .collect()
    } else {
        Vec::new()
    };
    if want.len() != got.len() {
        return Err(format!(
            "{query:?}: {} hits, naive evaluator finds {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if (g - w).abs() > 1e-9 * w.abs().max(1.0) {
            return Err(format!(
                "{query:?}: score {i} is {g}, naive evaluator says {w}"
            ));
        }
    }
    Ok(())
}

/// A response kept for the top-k oracle, with the latency the engine took.
pub struct OracleSample {
    pub query: String,
    pub scores: Vec<f64>,
    pub ns: u64,
}

impl OracleSample {
    pub fn of(query: &str, resp: &SearchResponse<Hit>, ns: u64) -> Self {
        OracleSample {
            query: query.to_string(),
            scores: resp.hits.iter().map(|h| h.score()).collect(),
            ns,
        }
    }
}

/// Wall-clock cap on one kind of oracle check per run.
pub const CHECK_BUDGET_S: f64 = 2.5;

/// Run the top-k oracle over the sampled responses, cheapest first (by the
/// engine's own latency), until [`CHECK_BUDGET_S`] is spent: the naive
/// evaluator joins every CN in full and takes seconds on the heaviest
/// queries. At least one sample is always checked. Returns how many were.
pub fn run_topk_oracles(
    checker: &mut Checker,
    db: &Arc<Database>,
    corpus: &Arc<CorpusStats>,
    k: usize,
    mut samples: Vec<OracleSample>,
) -> u64 {
    samples.sort_by_key(|s| s.ns);
    let started = Instant::now();
    let mut checked = 0;
    for s in &samples {
        if checked > 0 && started.elapsed().as_secs_f64() > CHECK_BUDGET_S {
            break;
        }
        checker.verdict(
            "top-k oracle",
            check_topk_oracle(db, corpus, &s.query, k, &s.scores),
        );
        checked += 1;
    }
    checked
}

/// Recompute facet distributions from hits by the counting rule: every
/// tuple of the facet's table in a result contributes its column value once.
fn recount(db: &Database, hits: &[RelationalHit], specs: &[FacetSpec]) -> Vec<FacetCounts> {
    specs
        .iter()
        .map(|spec| {
            let (tname, cname) = spec.attr().split_once('.').expect("table.column");
            let tid = db.table_id(tname).expect("facet table");
            let table = db.table(tid);
            let col = table.schema.column_index(cname).expect("facet column");
            let raw: Vec<&kwdb::common::Value> = hits
                .iter()
                .flat_map(|h| &h.tuples)
                .filter(|t| t.table == tid)
                .map(|t| table.get(t.row, col))
                .filter(|v| !v.is_null())
                .collect();
            let values = match spec {
                FacetSpec::Terms { top_n, .. } => {
                    let mut by_text: HashMap<String, u64> = HashMap::new();
                    for v in &raw {
                        *by_text.entry(v.to_string()).or_insert(0) += 1;
                    }
                    let mut values: Vec<FacetCount> = by_text
                        .into_iter()
                        .map(|(value, count)| FacetCount { value, count })
                        .collect();
                    values.sort_by(|a, b| b.count.cmp(&a.count).then(a.value.cmp(&b.value)));
                    values.truncate(*top_n);
                    values
                }
                FacetSpec::Range { buckets, .. } => buckets
                    .iter()
                    .map(|b| FacetCount {
                        value: b.label.clone(),
                        count: raw
                            .iter()
                            .filter(|v| v.as_f64().is_some_and(|x| b.contains(x)))
                            .count() as u64,
                    })
                    .collect(),
            };
            FacetCounts {
                attr: spec.attr().to_string(),
                values,
            }
        })
        .collect()
}

/// Check a faceted response against a per-hit recount over the *whole*
/// result set (the same request at exhaustive `k`, cache bypassed).
pub fn check_facets(
    engine: &RelationalEngine,
    req: &SearchRequest,
    got: &[FacetCounts],
) -> Result<(), String> {
    const ALL: usize = 5_000_000;
    let all = req.clone().k(ALL).summaries(0).caching(false);
    let resp = engine.execute(&all).map_err(|e| e.to_string())?;
    if resp.hits.len() >= ALL || resp.truncated() {
        return Err(format!(
            "{:?}: exhaustive re-run was cut short",
            req.query()
        ));
    }
    let want = recount(&engine.database(), &resp.hits, req.facet_specs());
    if want != got {
        return Err(format!(
            "{:?}: facet counts differ from a recount over {} results",
            req.query(),
            resp.hits.len()
        ));
    }
    Ok(())
}

/// Every graph hit must name, for the `i`-th keyword, a match node that
/// contains it.
pub fn check_graph_hits(
    g: &DataGraph,
    query: &str,
    resp: &SearchResponse<Hit>,
) -> Result<(), String> {
    let keywords = parse_query(query);
    for hit in &resp.hits {
        let Hit::Graph(tree) = hit else {
            return Err(format!("{query:?}: non-graph hit from the graph engine"));
        };
        if tree.matches.len() != keywords.len() {
            return Err(format!(
                "{query:?}: {} matches for {} keywords",
                tree.matches.len(),
                keywords.len()
            ));
        }
        for (m, kw) in tree.matches.iter().zip(&keywords) {
            if !g.node_has_term(*m, kw) {
                return Err(format!("{query:?}: match {m:?} lacks {kw:?}"));
            }
        }
    }
    Ok(())
}

/// Every XML hit's subtree must contain every query keyword.
pub fn check_xml_hits(
    tree: &XmlTree,
    index: &XmlIndex,
    sizes: &[u32],
    query: &str,
    resp: &SearchResponse<Hit>,
) -> Result<(), String> {
    let keywords = parse_query(query);
    for hit in &resp.hits {
        let Hit::Xml(x) = hit else {
            return Err(format!("{query:?}: non-XML hit from the XML engine"));
        };
        let end = kwdb::xml::NodeId(x.root.0 + sizes[x.root.0 as usize]);
        for kw in &keywords {
            let inside = index.nodes(kw).right_match(x.root).is_some_and(|m| m < end);
            if !inside {
                return Err(format!(
                    "{query:?}: subtree {} lacks {kw:?}",
                    tree.label_path(x.root)
                ));
            }
        }
    }
    Ok(())
}

/// Size and vocabulary fingerprint of one generated dataset, checked
/// against the values frozen in `datasets.rs` so a change to the generators
/// fails the run instead of shifting the numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetDigest {
    pub name: &'static str,
    /// Tuples / graph nodes / XML nodes.
    pub items: u64,
    pub postings: u64,
    /// FNV-1a over `(term, doc_freq)` in term order.
    pub vocab_hash: u64,
}

impl DatasetDigest {
    pub fn new(
        name: &'static str,
        items: usize,
        postings: usize,
        mut vocab: Vec<(String, usize)>,
    ) -> Self {
        vocab.sort();
        let mut h = Fnv::default();
        for (term, df) in &vocab {
            h.str(term);
            h.u64(*df as u64);
        }
        DatasetDigest {
            name,
            items: items as u64,
            postings: postings as u64,
            vocab_hash: h.finish(),
        }
    }

    pub fn check(&self, checker: &mut Checker, frozen: (u64, u64, u64)) {
        let got = (self.items, self.postings, self.vocab_hash);
        checker.verdict(
            "dataset_digest",
            if got == frozen {
                Ok(())
            } else {
                Err(format!(
                    "{} is {got:?}, frozen {frozen:?}: crates/datasets changed the workload",
                    self.name
                ))
            },
        );
    }
}

/// The relational text index's vocabulary with document frequencies.
pub fn relational_vocab(db: &Database) -> Vec<(String, usize)> {
    let ix = db.text_index().expect("generated databases are indexed");
    ix.terms()
        .map(|t| (t.to_string(), ix.doc_freq(t)))
        .collect()
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_depend_on_order_and_content() {
        let mut a = Fnv::default();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
        let d = |v: Vec<(&str, usize)>| {
            DatasetDigest::new(
                "x",
                3,
                7,
                v.into_iter().map(|(t, n)| (t.to_string(), n)).collect(),
            )
        };
        assert_eq!(d(vec![("a", 1), ("b", 2)]), d(vec![("b", 2), ("a", 1)]));
        assert_ne!(d(vec![("a", 1), ("b", 2)]), d(vec![("a", 1), ("b", 3)]));
    }

    #[test]
    fn checker_counts_attempts_and_failures() {
        let mut c = Checker::default();
        c.verdict("ok", Ok(()));
        c.verdict("bad", Err("boom".into()));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.messages, ["bad: boom"]);
    }

    #[test]
    fn repeated_setup_reports_the_median_and_keeps_the_last_product() {
        let mut n = 0;
        let (last, cost) = repeat_setup(3, |probe| {
            probe.engines_built();
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(cost.seconds >= 0.0 && cost.rss_mb > 0.0);
    }
}
