//! Parity and budget contract of the engine's CN executor (`pexec`).
//!
//! The executor's headline promise is exactness: it returns the *same*
//! top-k set and scores as the serial global pipeline, because its
//! threshold only ever prunes CNs whose upper bound is strictly below the
//! k-th best. These tests check that promise on seeded DBLP data across
//! k, plus the deterministic budget verdicts (candidate cap, expired
//! deadline).

use kwdb::common::{Budget, ScratchPool, TruncationReason};
use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::relational::{Database, ExecStats};
use kwdb::relsearch::cn::MaskOracle;
use kwdb::relsearch::pexec::{parallel_topk_budgeted, EvalScratch};
use kwdb::relsearch::topk::{global_pipeline, naive, TopKQuery};
use kwdb::relsearch::{CandidateNetwork, CnGenConfig, CnGenerator, ResultScorer, TupleSets};
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
            let out =
                parallel_topk_budgeted(&q, k, &ExecStats::new(), &Budget::unlimited(), 1, &pool);
            assert_topk_equivalent(
                &result_keys(&out.results),
                &serial_keys,
                &truth_keys,
                &format!("{query} k={k}"),
            );
            assert!(out.truncation.is_none(), "{query} k={k}");
            assert_eq!(
                out.cns_evaluated + out.cns_pruned,
                cns.len() as u64,
                "{query} k={k}: every CN must be accounted for"
            );
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
    let out = parallel_topk_budgeted(&q, 10, &ExecStats::new(), &budget, 1, &pool);
    // One ticket per CN considered, drawn before the bound check: with more
    // CNs than the cap, the verdict is always the cap.
    assert_eq!(out.truncation, Some(TruncationReason::CandidateCapReached));
    assert!(
        out.cns_evaluated <= 5,
        "evaluated {} CNs under a cap of 5",
        out.cns_evaluated
    );
    assert_eq!(out.cns_evaluated + out.cns_pruned, cns.len() as u64);
    assert!(
        out.results.windows(2).all(|w| w[0].score >= w[1].score),
        "truncated results must stay sorted"
    );
}

/// Under a candidate cap a CN's position in the one bound-ordered list is
/// its budget ticket, so the CNs considered are the `c` best-bound ones:
/// the cap, not the host, decides the answer. At `c` = every CN the answer
/// is the uncapped one, and the verdict says whether the cap cut anything.
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
        let out = parallel_topk_budgeted(&q, k, &ExecStats::new(), &budget, 1, &pool);
        if c == cns.len() {
            assert_topk_equivalent(
                &result_keys(&out.results),
                &truth_keys[..k.min(truth_keys.len())],
                &truth_keys,
                "uncapped in effect: executor vs naive",
            );
        }
        assert_eq!(
            out.truncation,
            (c < cns.len()).then_some(TruncationReason::CandidateCapReached),
            "c={c}"
        );
        assert_eq!(
            out.cns_evaluated + out.cns_pruned,
            cns.len() as u64,
            "c={c}"
        );
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
    // A budget that expired before the executor started: the first ticket
    // fails the deadline check, so nothing is evaluated.
    let budget = Budget::unlimited().with_timeout(Duration::ZERO);
    let out = parallel_topk_budgeted(&q, 5, &ExecStats::new(), &budget, 1, &pool);
    assert_eq!(out.truncation, Some(TruncationReason::DeadlineExceeded));
    assert_eq!(out.cns_evaluated, 0);
    assert!(out.results.is_empty());
    assert_eq!(out.cns_pruned, cns.len() as u64);
}
