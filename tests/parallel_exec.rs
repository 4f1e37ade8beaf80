//! Parity and budget contract of the intra-query parallel CN executor.
//!
//! The parallel executor's headline promise is exactness: for any worker
//! count it returns the *same* top-k set and scores as the serial
//! global pipeline, because the shared threshold only ever prunes CNs
//! whose upper bound is strictly below the global k-th best. These tests
//! check that promise on seeded DBLP data across worker counts and k,
//! plus the deterministic budget verdicts (candidate cap, expired
//! deadline) and the engine-level default path.

use kwdb::common::{Budget, ScratchPool, TruncationReason};
use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::engine::{RelationalConfig, RelationalEngine, SearchRequest};
use kwdb::relational::{Database, ExecStats};
use kwdb::relsearch::cn::MaskOracle;
use kwdb::relsearch::pexec::{parallel_topk_budgeted, EvalScratch};
use kwdb::relsearch::topk::{global_pipeline, naive, TopKQuery};
use kwdb::relsearch::{CandidateNetwork, CnGenConfig, CnGenerator, ResultScorer, TupleSets};
use std::sync::Arc;
use std::time::Duration;

fn dblp() -> Database {
    generate_dblp(&DblpConfig {
        n_papers: 80,
        n_authors: 40,
        ..Default::default()
    })
}

fn setup(db: &Database, keywords: &[&str]) -> (TupleSets, Vec<CandidateNetwork>) {
    let ts = TupleSets::build(db, keywords).unwrap();
    let oracle = MaskOracle::from_tuplesets(&ts);
    let mut generator = CnGenerator::new(
        db.schema_graph(),
        &oracle,
        CnGenConfig {
            max_size: 5,
            dedupe: true,
            max_cns: 0,
        },
    );
    (ts, generator.generate())
}

/// Key a ranked result by content so set comparisons ignore arrival order.
/// Scores are compared bitwise: every executor computes the same monotone
/// formula over the same tuples.
fn result_keys(results: &[kwdb::relsearch::topk::RankedResult]) -> Vec<(u64, usize, String)> {
    results
        .iter()
        .map(|r| (r.score.to_bits(), r.cn_index, format!("{:?}", r.result)))
        .collect()
}

/// Assert `got` is a correct top-k: same score vector as `want`, identical
/// result set strictly above the k-th score, and every k-th-score member
/// drawn from the true tie class (`truth_keys`, the full ranked result
/// list). Which tied results fill the last slots is executor-specific — any
/// choice from the tie class is a correct top-k.
fn assert_topk_equivalent(
    got: &[(u64, usize, String)],
    want: &[(u64, usize, String)],
    truth_keys: &[(u64, usize, String)],
    ctx: &str,
) {
    let got_scores: Vec<u64> = got.iter().map(|k| k.0).collect();
    let want_scores: Vec<u64> = want.iter().map(|k| k.0).collect();
    assert_eq!(got_scores, want_scores, "{ctx}: score vectors diverge");
    let Some(&(boundary, ..)) = want.last() else {
        assert!(got.is_empty(), "{ctx}");
        return;
    };
    let above = |keys: &[(u64, usize, String)]| -> std::collections::BTreeSet<_> {
        keys.iter()
            .filter(|k| f64::from_bits(k.0) > f64::from_bits(boundary))
            .cloned()
            .collect()
    };
    assert_eq!(
        above(got),
        above(want),
        "{ctx}: above-boundary sets diverge"
    );
    let tie_class: std::collections::BTreeSet<_> =
        truth_keys.iter().filter(|k| k.0 == boundary).collect();
    for key in got.iter().filter(|k| k.0 == boundary) {
        assert!(
            tie_class.contains(key),
            "{ctx}: boundary result not in the true tie class: {key:?}"
        );
    }
}

#[test]
fn parallel_matches_global_pipeline_across_worker_counts_and_k() {
    let db = dblp();
    let pool: ScratchPool<EvalScratch> = ScratchPool::new();
    for query in ["data query", "xml data", "search data"] {
        let keywords: Vec<&str> = query.split_whitespace().collect();
        let (ts, cns) = setup(&db, &keywords);
        assert!(cns.len() > 8, "{query}: want a multi-CN workload");
        let scorer = ResultScorer::new(&db);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        // naive with an effectively unbounded k keeps every result of every
        // CN: the full ground-truth ranking
        let truth_keys = result_keys(&naive(&q, 100_000, &ExecStats::new()));
        for k in [1, 5, 20] {
            let serial = global_pipeline(&q, k, &ExecStats::new());
            let serial_keys = result_keys(&serial);
            assert_topk_equivalent(
                &serial_keys,
                &truth_keys[..k.min(truth_keys.len())],
                &truth_keys,
                &format!("{query} k={k} serial-vs-naive"),
            );
            for workers in [1, 2, 8] {
                let out = parallel_topk_budgeted(
                    &q,
                    k,
                    &ExecStats::new(),
                    &Budget::unlimited(),
                    workers,
                    &pool,
                );
                assert_topk_equivalent(
                    &result_keys(&out.results),
                    &serial_keys,
                    &truth_keys,
                    &format!("{query} k={k} workers={workers}"),
                );
                assert!(out.truncation.is_none(), "{query} k={k} workers={workers}");
                assert_eq!(
                    out.cns_evaluated + out.cns_pruned,
                    cns.len() as u64,
                    "{query} k={k} workers={workers}: every CN must be accounted for"
                );
            }
        }
    }
}

#[test]
fn candidate_cap_verdict_is_deterministic_and_bounds_evaluation() {
    let db = dblp();
    let keywords = ["data", "query"];
    let (ts, cns) = setup(&db, &keywords);
    assert!(cns.len() > 5, "need more CNs than the cap");
    let scorer = ResultScorer::new(&db);
    let q = TopKQuery {
        db: &db,
        ts: &ts,
        cns: &cns,
        scorer: &scorer,
        keywords: &keywords,
    };
    let pool: ScratchPool<EvalScratch> = ScratchPool::new();
    let budget = Budget::unlimited().with_max_candidates(5);
    for workers in [1, 2, 8] {
        let out = parallel_topk_budgeted(&q, 10, &ExecStats::new(), &budget, workers, &pool);
        // One ticket per CN considered, drawn before the bound check: with
        // more CNs than the cap, the verdict is always the cap — no matter
        // how threads interleave.
        assert_eq!(
            out.truncation,
            Some(TruncationReason::CandidateCapReached),
            "workers={workers}"
        );
        assert!(
            out.cns_evaluated <= 5,
            "workers={workers}: evaluated {} CNs under a cap of 5",
            out.cns_evaluated
        );
        assert_eq!(out.cns_evaluated + out.cns_pruned, cns.len() as u64);
        assert!(
            out.results.windows(2).all(|w| w[0].score >= w[1].score),
            "workers={workers}: truncated results must stay sorted"
        );
    }
}

/// Under a candidate cap the position drawn from the one bound-ordered CN
/// list is the budget ticket, so the CNs considered are the `c` best-bound
/// ones whatever the thread timing: the capped *answer*, not only the
/// verdict, is the same at every worker count. Each `(c, workers)` pair is
/// repeated so a scheduling race would show within one run.
#[test]
fn capped_answers_are_worker_invariant() {
    let db = dblp();
    let keywords = ["data", "query"];
    let (ts, cns) = setup(&db, &keywords);
    assert!(cns.len() > 8, "want a multi-CN workload");
    let scorer = ResultScorer::new(&db);
    let q = TopKQuery {
        db: &db,
        ts: &ts,
        cns: &cns,
        scorer: &scorer,
        keywords: &keywords,
    };
    let pool: ScratchPool<EvalScratch> = ScratchPool::new();
    let k = 10;
    let truth_keys = result_keys(&naive(&q, 100_000, &ExecStats::new()));
    for c in 1..=cns.len() {
        let budget = Budget::unlimited().with_max_candidates(c as u64);
        let run =
            |workers| parallel_topk_budgeted(&q, k, &ExecStats::new(), &budget, workers, &pool);
        let one = result_keys(&run(1).results);
        if c == cns.len() {
            assert_topk_equivalent(
                &one,
                &truth_keys[..k.min(truth_keys.len())],
                &truth_keys,
                "uncapped in effect: one worker vs naive",
            );
        }
        for workers in [1, 2, 8] {
            for round in 0..6 {
                let out = run(workers);
                let ctx = format!("c={c} workers={workers} round={round}");
                assert_eq!(result_keys(&out.results), one, "{ctx}: hits diverge");
                assert_eq!(
                    out.truncation,
                    (c < cns.len()).then_some(TruncationReason::CandidateCapReached),
                    "{ctx}"
                );
                assert_eq!(
                    out.cns_evaluated + out.cns_pruned,
                    cns.len() as u64,
                    "{ctx}"
                );
            }
        }
    }
}

#[test]
fn expired_deadline_stops_every_worker_at_its_first_checkpoint() {
    let db = dblp();
    let keywords = ["data", "query"];
    let (ts, cns) = setup(&db, &keywords);
    let scorer = ResultScorer::new(&db);
    let q = TopKQuery {
        db: &db,
        ts: &ts,
        cns: &cns,
        scorer: &scorer,
        keywords: &keywords,
    };
    let pool: ScratchPool<EvalScratch> = ScratchPool::new();
    // A budget that expired before the executor started: every worker's
    // first ticket fails the deadline check, so nothing is evaluated —
    // workers stop within one checkpoint of expiry.
    let budget = Budget::unlimited().with_timeout(Duration::ZERO);
    for workers in [1, 4] {
        let out = parallel_topk_budgeted(&q, 5, &ExecStats::new(), &budget, workers, &pool);
        assert_eq!(
            out.truncation,
            Some(TruncationReason::DeadlineExceeded),
            "workers={workers}"
        );
        assert_eq!(out.cns_evaluated, 0, "workers={workers}");
        assert!(out.results.is_empty(), "workers={workers}");
        assert_eq!(out.cns_pruned, cns.len() as u64, "workers={workers}");
    }
}

#[test]
fn engine_results_are_identical_across_worker_configs() {
    let db = Arc::new(dblp());
    let engine_with = |workers: usize| {
        RelationalEngine::with_config(
            Arc::clone(&db),
            RelationalConfig {
                intra_query_workers: workers,
                ..Default::default()
            },
        )
    };
    let serial = engine_with(1);
    let parallel = engine_with(4);
    assert_eq!(serial.resolved_workers(), 1);
    assert_eq!(parallel.resolved_workers(), 4);
    for query in ["data query", "xml search", "xml data", "data"] {
        let req = SearchRequest::new(query).k(5);
        let s = serial.execute(&req).unwrap();
        let p = parallel.execute(&req).unwrap();
        // Identical score vectors, and identical hits wherever the score
        // uniquely determines membership. (When several results tie exactly
        // at the k-th score, which tied results fill the final slots is the
        // one executor-specific choice — any of them is a correct top-k.)
        let key = |h: &kwdb::engine::RelationalHit| (h.score.to_bits(), format!("{h:?}"));
        let (sk, pk): (Vec<_>, Vec<_>) = (
            s.hits.iter().map(key).collect(),
            p.hits.iter().map(key).collect(),
        );
        let scores = |v: &[(u64, String)]| v.iter().map(|x| x.0).collect::<Vec<_>>();
        assert_eq!(scores(&sk), scores(&pk), "{query}: score vectors diverge");
        let boundary = sk.last().map(|x| x.0);
        let above = |v: &[(u64, String)]| {
            v.iter()
                .filter(|x| Some(x.0) != boundary)
                .cloned()
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(
            above(&sk),
            above(&pk),
            "{query}: worker count must not change results"
        );
        assert!(s.truncation.is_none() && p.truncation.is_none(), "{query}");
        // both paths account for every generated CN
        for resp in [&s, &p] {
            assert_eq!(
                resp.stats.cns_evaluated + resp.stats.cns_pruned,
                resp.stats.candidates_generated,
                "{query}: evaluated + pruned must equal CNs generated"
            );
        }
        // the parallel path prunes with the same shared bound, so it must
        // never evaluate a CN the bound provably excludes; both paths do
        // real join work when there are hits
        if !s.hits.is_empty() {
            assert!(
                s.stats.cns_evaluated > 0 && p.stats.cns_evaluated > 0,
                "{query}"
            );
        }
    }
}

#[test]
fn flight_record_and_trace_report_the_effective_worker_count() {
    use kwdb::obs::{MetricsRegistry, TraceLevel};
    let db = Arc::new(dblp());
    let run = |configured: usize| {
        let reg = Arc::new(MetricsRegistry::new());
        let engine = RelationalEngine::with_config(
            Arc::clone(&db),
            RelationalConfig {
                intra_query_workers: configured,
                ..Default::default()
            },
        )
        .with_registry(Arc::clone(&reg));
        let resp = engine
            .execute(
                &SearchRequest::new("data query")
                    .k(5)
                    .trace(TraceLevel::Full),
            )
            .unwrap();
        let trace = resp.trace.expect("a traced request");
        let policy = trace
            .phases
            .iter()
            .flat_map(|p| &p.events)
            .find(|e| e.message == "worker policy")
            .expect("a traced query carries the worker policy")
            .fields
            .clone();
        let field = |name: &str| -> f64 {
            let (_, v) = policy.iter().find(|(k, _)| k == name).expect(name);
            v.parse().unwrap()
        };
        let recorded = reg.flight().dump().records.last().unwrap().workers;
        assert_eq!(recorded as f64, field("chosen"), "record = policy");
        (field("cap"), field("chosen"), field("estimated_cost"))
    };
    // Auto: this 80-paper plan is far too small to spread, on any host.
    let (cap, chosen, cost) = run(0);
    assert!(cap >= 1.0 && cost > 0.0);
    assert_eq!(chosen, 1.0);
    // An explicit count is honoured exactly, whatever the plan costs.
    assert_eq!(run(4), (4.0, 4.0, cost));
}
