//! `explore_session`: one client replaying exploration sessions against the
//! relational engine on `dblp_small`. A session is four requests — top-k,
//! the same with two facets, a drill-down on the top facet value, the same
//! with object summaries. New sessions are faceted misses (exhaustive, so
//! deterministic work, and the slowest thing the system does); revisits are
//! result-cache hits. One workload therefore separates miss cost
//! (`relsearch::facets`, `explore::summary`) from hit cost (`engine` glue,
//! `common::cache`, `obs` recording); top-k pruning does little here.

use super::{common_metrics, relational, Load, DBLP, DIGEST_OPS, K, ORACLE_EVERY, REPLAY_EVERY};
use crate::agg::RelationalAgg;
use crate::datasets::{frozen, DBLP_SMALL};
use crate::gen::{SessionStream, SessionVisit};
use crate::harness::{
    check_facets, issue, peak_rss_mb, repeat_setup, response_digest, run_topk_oracles, validate,
    Checker, Ctx, FirstAnswers, Fnv, OracleSample, Outcome, Phases, Samples, CHECK_BUDGET_S,
};
use crate::layers::relational_traced;
use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use kwdb::common::{FacetSpec, RangeBucket};
use kwdb::dispatch::Dispatcher;
use kwdb::engine::{Hit, SearchRequest, SearchResponse};
use kwdb::relsearch::{corpus_stats, Refinement};
use std::sync::Arc;
use std::time::Instant;

/// Untimed session visits that end set-up.
const WARMUP_VISITS: usize = 8;
const FACET_ATTR: &str = "conference.name";

/// One opened session: its query and, once its faceted step has been
/// answered, the facet value its drill-down refines on.
struct Session {
    query: String,
    refine_on: Option<String>,
}

fn faceted(query: &str) -> SearchRequest {
    let decades = (1990..2030)
        .step_by(10)
        .map(|y| RangeBucket::new(format!("{y}s"), y as f64, (y + 10) as f64))
        .collect();
    SearchRequest::new(query)
        .k(K)
        .facet(FacetSpec::terms(FACET_ATTR, 10))
        .facet(FacetSpec::range("conference.year", decades))
}

/// Request `step` (0‥3) of a visit, built from the session and — for the
/// drill-down — the faceted step's response. A session whose faceted step
/// found no facet value has nothing to drill into and ends after two steps.
fn step_request(session: &Session, step: usize) -> Option<SearchRequest> {
    let drill = || {
        session.refine_on.as_ref().map(|value| {
            faceted(&session.query).refine(Refinement::Term {
                attr: FACET_ATTR.into(),
                value: value.clone(),
            })
        })
    };
    match step {
        0 => Some(SearchRequest::new(session.query.as_str()).k(K)),
        1 => Some(faceted(&session.query)),
        2 => drill(),
        3 => drill().map(|d| d.summaries(5)),
        _ => None,
    }
}

/// Play one visit; `on_response(step, request, response, ns)` sees every
/// answered step.
fn visit(
    d: &Dispatcher,
    tracer: &mut Tracer,
    next_id: &mut u64,
    sessions: &mut Vec<Session>,
    v: SessionVisit,
    mut on_response: impl FnMut(usize, u64, &SearchRequest, &kwdb::Result<SearchResponse<Hit>>, u64),
) {
    if let Some(query) = v.opens {
        sessions.push(Session {
            query,
            refine_on: None,
        });
    }
    for step in 0..4 {
        let Some(req) = step_request(&sessions[v.session], step) else {
            break;
        };
        let id = *next_id;
        *next_id += 1;
        let (resp, ns) = issue(d, tracer, id, DBLP, req.clone());
        if step == 1 && sessions[v.session].refine_on.is_none() {
            sessions[v.session].refine_on = resp
                .as_ref()
                .ok()
                .and_then(|r| r.facets.first())
                .and_then(|f| f.values.first())
                .map(|top| top.value.clone());
        }
        on_response(step, id, &req, &resp, ns);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut values = Values::default();
    let mut phases = Phases::start();
    let mut checker = Checker::default();
    let mut tracer = Tracer::new(ctx.traced, ctx.epoch, 0);

    let ((rel, mut stream, mut sessions), setup) = repeat_setup(ctx.setup_reps(15), |probe| {
        let rel = relational("dblp_small", &DBLP_SMALL, false, probe);
        let mut stream = SessionStream::new(rel.vocab.clone(), ctx.seed);
        let mut sessions = Vec::new();
        let mut off = Tracer::new(false, ctx.epoch, 0);
        for v in stream.by_ref().take(ctx.ops(WARMUP_VISITS)) {
            visit(
                &rel.dispatcher,
                &mut off,
                &mut 0,
                &mut sessions,
                v,
                |_, _, _, _, _| {},
            );
        }
        (rel, stream, sessions)
    });
    phases.lap("setup");
    rel.digest.check(&mut checker, frozen::DBLP_SMALL);
    values.set("datasets.generate_s", rel.generate_s);
    values.set(
        "bench.resolved_workers",
        rel.engine.resolved_workers() as f64,
    );

    let mut samples = Samples::default();
    let mut facet_miss_ms: Vec<f64> = Vec::new();
    let mut agg = RelationalAgg::default();
    let mut first = FirstAnswers::default();
    let mut digest = Fnv::default();
    let mut topk_oracle: Vec<OracleSample> = Vec::new();
    let mut facet_oracle: Vec<(SearchRequest, SearchResponse<Hit>)> = Vec::new();
    let mut replay: Vec<(u64, SearchRequest)> = Vec::new();
    let (mut computed_topk, mut computed_faceted) = (0u64, 0u64);
    let mut busy_ns = 0u64;
    let mut next_id = 0u64;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds {
        let v = stream.next().expect("the session stream is endless");
        visit(
            &rel.dispatcher,
            &mut tracer,
            &mut next_id,
            &mut sessions,
            v,
            |step, id, req, resp, ns| {
                busy_ns += ns;
                let Some(resp) = validate(&mut checker, "session step", resp, K) else {
                    return;
                };
                samples.record(resp, ns);
                agg.observe(resp, ns);
                let d = response_digest(resp);
                first.check(&mut checker, DBLP, req, d);
                if id < DIGEST_OPS {
                    digest.u64(d);
                }
                if resp.stats.result_cache_hits == 1 {
                    return;
                }
                if step == 0 {
                    computed_topk += 1;
                    if computed_topk % ORACLE_EVERY == 0 {
                        topk_oracle.push(OracleSample::of(req.query(), resp, ns));
                    }
                } else {
                    facet_miss_ms.push(ns as f64 / 1e6);
                    computed_faceted += 1;
                    if computed_faceted % ORACLE_EVERY == 0 {
                        facet_oracle.push((req.clone(), resp.clone()));
                    }
                    if !resp.facets_exact {
                        checker.fail(|| format!("{:?}: facets not exact", req.query()));
                    }
                }
                if ctx.traced && (computed_topk + computed_faceted) % REPLAY_EVERY == 0 {
                    replay.push((id, req.clone()));
                }
            },
        );
    }
    phases.lap("load");
    let timed_s = started.elapsed().as_secs_f64();
    let timed_spans = tracer.len();

    // memory of the system under load; the oracles below are the
    // benchmark's own and materialize whole result sets
    let peak_rss = peak_rss_mb();
    let db = rel.engine.database();
    let corpus = Arc::new(corpus_stats(&db));
    let oracle_checks = run_topk_oracles(&mut checker, &db, &corpus, K, topk_oracle);
    let checking = Instant::now();
    let mut facet_checks = 0u64;
    for (req, resp) in &facet_oracle {
        if facet_checks > 0 && checking.elapsed().as_secs_f64() > CHECK_BUDGET_S {
            break;
        }
        checker.verdict(
            "facet recount",
            check_facets(&rel.engine, req, &resp.facets),
        );
        facet_checks += 1;
    }

    phases.lap("checks");
    agg.report(&mut values);
    values.set(
        "explore.facet_miss_p50_ms",
        stats::median(&mut facet_miss_ms),
    );
    let mut counts = vec![
        ("requests_timed", next_id),
        ("requests_computed", samples.computed_ms.len() as u64),
        ("requests_hit", samples.hit_us.len() as u64),
        ("faceted_misses", facet_miss_ms.len() as u64),
        ("sessions_opened", sessions.len() as u64),
        ("oracle_checks", oracle_checks),
        ("facet_checks", facet_checks),
    ];
    if ctx.traced {
        let warm: Vec<String> = sessions.iter().take(32).map(|s| s.query.clone()).collect();
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
        requests: next_id,
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
