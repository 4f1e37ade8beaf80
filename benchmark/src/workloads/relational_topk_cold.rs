//! `relational_topk_cold`: one client, all-distinct keyword queries against
//! the relational engine on `dblp_large`. The result cache can never hit in
//! the timed section, so `relsearch` and `common::index` do nearly all the
//! work: a cache or hit-path change must show no change here.

use super::{
    common_metrics, reissue, relational, Load, DBLP, DIGEST_OPS, K, ORACLE_EVERY, REISSUE_EVERY,
    REPLAY_EVERY,
};
use crate::agg::{pexec_tail, RelationalAgg};
use crate::datasets::{frozen, DBLP_LARGE};
use crate::gen::QueryGen;
use crate::harness::{
    issue, peak_rss_mb, repeat_setup, response_digest, run_topk_oracles, validate, Checker, Ctx,
    Fnv, OracleSample, Outcome, Phases, Samples,
};
use crate::layers::relational_traced;
use crate::metrics::Values;
use crate::trace::Tracer;
use kwdb::engine::SearchRequest;
use kwdb::relsearch::corpus_stats;
use std::sync::Arc;
use std::time::Instant;

/// Untimed requests that end set-up (plan cache, scratch pools, allocator).
const WARMUP_OPS: usize = 12;
/// Every fifth query is a `kw3`: 80 % `kw2` / 20 % `kw3` in any prefix.
const KW3_PERIOD: u64 = 5;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut values = Values::default();
    let mut phases = Phases::start();
    let mut checker = Checker::default();
    let mut tracer = Tracer::new(ctx.traced, ctx.epoch, 0);

    let ((rel, mut queries), setup) = repeat_setup(ctx.setup_reps(5), |probe| {
        let rel = relational("dblp_large", &DBLP_LARGE, false, probe);
        let mut queries = QueryGen::new(rel.vocab.clone(), ctx.seed);
        let mut off = Tracer::new(false, ctx.epoch, 0);
        for i in 0..ctx.ops(WARMUP_OPS) {
            let req = SearchRequest::new(queries.mixed(i as u64, KW3_PERIOD)).k(K);
            let _ = issue(&rel.dispatcher, &mut off, 0, DBLP, req);
        }
        (rel, queries)
    });
    phases.lap("setup");
    rel.digest.check(&mut checker, frozen::DBLP_LARGE);
    values.set("datasets.generate_s", rel.generate_s);
    values.set(
        "bench.resolved_workers",
        rel.engine.resolved_workers() as f64,
    );

    let mut samples = Samples::default();
    let mut agg = RelationalAgg::default();
    let mut digest = Fnv::default();
    let mut oracle: Vec<OracleSample> = Vec::new();
    let mut replay: Vec<(u64, SearchRequest)> = Vec::new();
    let mut busy_ns = 0u64;
    let started = Instant::now();
    let mut i = 0u64;
    while started.elapsed().as_secs_f64() < ctx.seconds {
        let query = queries.mixed(i, KW3_PERIOD);
        let req = SearchRequest::new(query.as_str()).k(K);
        let (resp, ns) = issue(&rel.dispatcher, &mut tracer, i, DBLP, req.clone());
        busy_ns += ns;
        if let Some(resp) = validate(&mut checker, "query", &resp, K) {
            samples.record(resp, ns);
            agg.observe(resp, ns);
            let d = response_digest(resp);
            if i < DIGEST_OPS {
                digest.u64(d);
            }
            if i.is_multiple_of(REISSUE_EVERY) {
                let hit = reissue(&rel.dispatcher, &mut tracer, i, DBLP, &req, d, &mut checker);
                samples.hit_us.extend(hit);
            }
            if i % ORACLE_EVERY == ORACLE_EVERY - 1 {
                oracle.push(OracleSample::of(&query, resp, ns));
            }
        }
        if ctx.traced && i.is_multiple_of(REPLAY_EVERY) {
            replay.push((i, req));
        }
        i += 1;
    }
    phases.lap("load");
    let timed_s = started.elapsed().as_secs_f64();
    let timed_spans = tracer.len();

    // memory of the system under load; the oracles below are the
    // benchmark's own and materialize whole join results
    let peak_rss = peak_rss_mb();

    // Oracle: the naive evaluator over the same tuple sets and CNs.
    let db = rel.engine.database();
    let corpus = Arc::new(corpus_stats(&db));
    let oracle_checks = run_topk_oracles(&mut checker, &db, &corpus, K, oracle);
    phases.lap("checks");
    agg.report(&mut values);
    pexec_tail(&mut values, &mut samples.computed_ms);
    let mut counts = vec![
        ("requests_timed", i),
        ("requests_computed", samples.computed_ms.len() as u64),
        ("requests_reissued_hits", samples.hit_us.len() as u64),
        ("oracle_checks", oracle_checks),
    ];
    if ctx.traced {
        let warm: Vec<String> = (0..32).map(|_| queries.kw2()).collect();
        let replayed = relational_traced(
            &mut values,
            &mut tracer,
            &rel.engine,
            &rel.registry,
            &replay,
            &warm,
            |n| ctx.ops(n),
        );
        counts.push(("requests_replayed", replayed));
    }
    phases.lap("replay_and_micro");
    let notes = vec![samples.report(&mut values)];
    let load = Load {
        requests: i,
        busy_client_s: busy_ns as f64 / 1e9,
        timed_s,
        timed_spans,
        peak_rss_mb: peak_rss,
    };
    common_metrics(&mut values, ctx, setup, &checker, &load);
    Outcome {
        values,
        checker,
        result_digest: digest.finish(),
        datasets: vec![rel.digest],
        counts,
        notes,
        phases: phases.finish(),
        tracers: vec![tracer],
    }
}
