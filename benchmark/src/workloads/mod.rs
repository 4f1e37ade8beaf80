//! The four workloads. Each builds its engines with their default
//! configuration, attaches one shared `MetricsRegistry` to the dispatcher
//! and every engine (the deployed shape), drives load from this process with
//! at most `nproc` busy threads, and measures from outside.

pub mod explore_session;
pub mod graph_xml_mix;
pub mod ingest_mixed;
pub mod relational_topk_cold;

use crate::datasets;
use crate::gen::{BaseCounts, Vocab};
use crate::harness::{
    issue, nproc, relational_vocab, response_digest, validate_ranked, Checker, Ctx, DatasetDigest,
    SetupCost, SetupProbe,
};
use crate::metrics::{ratio, Values};
use crate::trace::{span_cost_ns, Tracer};
use kwdb::datasets::DblpConfig;
use kwdb::dispatch::{Catalog, Dispatcher};
use kwdb::engine::{Engine, RelationalEngine, SearchRequest};
use kwdb::obs::MetricsRegistry;
use std::sync::Arc;

/// Name the relational engine is registered under.
pub const DBLP: &str = "dblp";
/// `k` of every request.
pub const K: usize = 10;
/// Share of timed requests replayed layer by layer in the traced run.
pub const REPLAY_EVERY: u64 = 10;
/// Share of requests re-answered by an oracle.
pub const ORACLE_EVERY: u64 = 50;
/// Requests at the head of the op stream folded into `result_digest`.
pub const DIGEST_OPS: u64 = 200;
/// Every fourth timed request is sent again at once to measure the hit path
/// (`explore_session` has hits of its own and does not need this).
pub const REISSUE_EVERY: u64 = 4;
/// Request id of a re-issue: the original's plus this.
pub const REISSUE_ID: u64 = 1 << 40;

/// A relational engine in the deployed shape.
pub struct Relational {
    pub registry: Arc<MetricsRegistry>,
    pub engine: Arc<RelationalEngine>,
    pub dispatcher: Dispatcher,
    pub vocab: Vocab,
    pub digest: DatasetDigest,
    pub base: BaseCounts,
    pub generate_s: f64,
}

pub fn relational(
    name: &'static str,
    cfg: &DblpConfig,
    mutable: bool,
    probe: &mut SetupProbe,
) -> Relational {
    let t = std::time::Instant::now();
    let (db, digest) = datasets::relational(name, cfg);
    let generate_s = t.elapsed().as_secs_f64();
    let vocab = Vocab::ranked(relational_vocab(&db));
    let len = |table: &str| db.table_by_name(table).expect("dblp schema").len();
    let base = BaseCounts {
        papers: len("paper"),
        authors: len("author"),
        conferences: len("conference"),
        writes: len("write"),
        cites: len("cite"),
    };
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Arc::new(RelationalEngine::new(db).with_registry(Arc::clone(&registry)));
    let mut catalog = Catalog::new();
    if mutable {
        catalog.register_mutable(
            DBLP,
            Arc::clone(&engine) as Arc<dyn kwdb::engine::MutableEngine>,
        );
    } else {
        catalog.register(DBLP, Arc::clone(&engine) as Arc<dyn Engine>);
    }
    let dispatcher = Dispatcher::new(catalog).with_registry(Arc::clone(&registry));
    probe.engines_built();
    Relational {
        registry,
        engine,
        dispatcher,
        vocab,
        digest,
        base,
        generate_s,
    }
}

/// Send `req` again right after its first answer. The result cache now
/// holds it, so this is a hit through the same dispatcher and engine — the
/// hit path measured all along the run rather than in one instant. A hit
/// must equal the first answer (`first_digest`). A re-issue that was
/// computed after all (the registry trace-samples 1 request in 128 past the
/// cache; a write can land in between on `ingest_mixed`) is a sample of
/// neither class. Returns the hit's latency in µs.
pub fn reissue(
    d: &Dispatcher,
    tracer: &mut Tracer,
    id: u64,
    engine: &str,
    req: &SearchRequest,
    first_digest: u64,
    checker: &mut Checker,
) -> Option<f64> {
    let (resp, ns) = issue(d, tracer, id + REISSUE_ID, engine, req.clone());
    // ranking was checked on the first answer
    let resp = validate_ranked(checker, "re-issue", &resp, K, false)?;
    if resp.stats.result_cache_hits != 1 {
        return None;
    }
    if response_digest(resp) != first_digest {
        checker.fail(|| {
            format!(
                "{:?}: the cached answer differs from the first",
                req.query()
            )
        });
    }
    Some(ns as f64 / 1e3)
}

/// What the timed section of a workload amounted to.
pub struct Load {
    pub requests: u64,
    /// Sum of request latencies divided by the number of clients.
    pub busy_client_s: f64,
    pub timed_s: f64,
    /// Spans recorded during the timed section (the replays sit outside it).
    pub timed_spans: usize,
    /// `VmHWM` when the load ended, before the benchmark's own oracles.
    pub peak_rss_mb: f64,
}

/// The figures every workload reports the same way.
pub fn common_metrics(
    values: &mut Values,
    ctx: &Ctx,
    setup: SetupCost,
    checker: &Checker,
    load: &Load,
) {
    values.set("setup_s", setup.seconds);
    values.set("setup_rss_mb", setup.rss_mb);
    values.set("bench.peak_rss_mb", load.peak_rss_mb);
    values.set("bench.nproc", nproc() as f64);
    values.set(
        "bench.throughput_qps",
        ratio(load.requests as f64, load.busy_client_s),
    );
    values.set(
        "bench.failed_share",
        ratio(checker.failed as f64, checker.attempted as f64),
    );
    if ctx.traced {
        values.set(
            "bench.trace_overhead_ratio",
            1.0 + ratio(load.timed_spans as f64 * span_cost_ns() / 1e9, load.timed_s),
        );
    }
}
