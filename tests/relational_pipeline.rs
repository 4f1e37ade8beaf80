//! Integration: the full relational keyword-search pipeline on generated
//! DBLP data — tuple sets → CNs → executors → sharing → parallelism agree
//! with each other.

use kwdb::common::{Budget, ScratchPool};
use kwdb::datasets::{dblp::sample_queries, generate_dblp, DblpConfig};
use kwdb::relational::ExecStats;
use kwdb::relsearch::cn::{CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::eval::evaluate_cn;
use kwdb::relsearch::mesh::evaluate_shared;
use kwdb::relsearch::pexec::parallel_topk_budgeted;
use kwdb::relsearch::spark::{naive_spark, skyline_sweep};
use kwdb::relsearch::topk::{global_pipeline, naive, sparse, TopKQuery};
use kwdb::relsearch::{CandidateNetwork, ResultScorer, TupleSets};

fn setup(
    db: &kwdb::relational::Database,
    keywords: &[String],
) -> (TupleSets, Vec<CandidateNetwork>) {
    let ts = TupleSets::build(db, keywords).unwrap();
    let oracle = MaskOracle::from_tuplesets(&ts);
    let mut generator = CnGenerator::new(
        db.schema_graph(),
        &oracle,
        CnGenConfig {
            max_size: 4,
            dedupe: true,
            max_cns: 500,
        },
    );
    let cns = generator.generate();
    (ts, cns)
}

#[test]
fn executors_agree_across_many_generated_queries() {
    let db = generate_dblp(&DblpConfig {
        n_authors: 50,
        n_papers: 120,
        ..Default::default()
    });
    let scorer = ResultScorer::new(&db);
    for query in sample_queries(&db, 6, 2, 99) {
        let (ts, cns) = setup(&db, &query);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &query,
        };
        let s = ExecStats::new();
        let a: Vec<f64> = naive(&q, 5, &s).iter().map(|r| r.score).collect();
        let b: Vec<f64> = sparse(&q, 5, &s).iter().map(|r| r.score).collect();
        let c: Vec<f64> = global_pipeline(&q, 5, &s).iter().map(|r| r.score).collect();
        assert_eq!(a, b, "sparse != naive for {query:?}");
        assert_eq!(a, c, "pipeline != naive for {query:?}");
    }
}

#[test]
fn spark_sweep_agrees_with_naive_spark() {
    let db = generate_dblp(&DblpConfig {
        n_authors: 40,
        n_papers: 80,
        ..Default::default()
    });
    let scorer = ResultScorer::new(&db);
    for query in sample_queries(&db, 4, 2, 123) {
        let (ts, cns) = setup(&db, &query);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &query,
        };
        let s = ExecStats::new();
        let a: Vec<f64> = naive_spark(&q, 5, &s).iter().map(|r| r.score).collect();
        let b: Vec<f64> = skyline_sweep(&q, 5, &s).iter().map(|r| r.score).collect();
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() < 1e-9,
                "spark mismatch for {query:?}: {a:?} vs {b:?}"
            );
        }
        assert_eq!(a.len(), b.len());
    }
}

#[test]
fn mesh_and_parallel_match_independent_evaluation() {
    let db = generate_dblp(&DblpConfig {
        n_authors: 40,
        n_papers: 100,
        ..Default::default()
    });
    let query: Vec<String> = vec!["data".into(), "query".into()];
    let (ts, cns) = setup(&db, &query);
    assert!(!cns.is_empty());
    // independent counts
    let s = ExecStats::new();
    let independent: Vec<usize> = cns
        .iter()
        .map(|cn| evaluate_cn(&db, cn, &ts, &s).len())
        .collect();
    // mesh
    let (shared, mesh_stats) = evaluate_shared(&db, &ts, &cns, &s);
    let mesh_counts: Vec<usize> = shared.iter().map(|r| r.len()).collect();
    assert_eq!(independent, mesh_counts);
    assert!(mesh_stats.cache_hits > 0, "CNs overlap, the cache must hit");
    // parallel: with k past the full result count nothing is pruned, so
    // the executor's results grouped by CN are the independent counts
    let scorer = ResultScorer::new(&db);
    let q = TopKQuery {
        db: &db,
        ts: &ts,
        cns: &cns,
        scorer: &scorer,
        keywords: &query,
    };
    let total: usize = independent.iter().sum();
    let out = parallel_topk_budgeted(
        &q,
        total + 1,
        &s,
        &Budget::unlimited(),
        4,
        &ScratchPool::new(),
    );
    let mut par_counts = vec![0usize; cns.len()];
    for r in &out.results {
        par_counts[r.cn_index] += 1;
    }
    assert_eq!(independent, par_counts);
}

#[test]
fn every_result_covers_every_keyword() {
    let db = generate_dblp(&DblpConfig {
        n_papers: 60,
        ..Default::default()
    });
    let scorer = ResultScorer::new(&db);
    let query: Vec<String> = vec!["data".into(), "search".into()];
    let (ts, cns) = setup(&db, &query);
    let q = TopKQuery {
        db: &db,
        ts: &ts,
        cns: &cns,
        scorer: &scorer,
        keywords: &query,
    };
    let s = ExecStats::new();
    for hit in naive(&q, 50, &s) {
        let toks: Vec<String> = hit
            .result
            .tuples
            .iter()
            .flat_map(|&t| db.tuple_tokens(t))
            .collect();
        for kw in &query {
            assert!(toks.iter().any(|t| t == kw), "missing {kw}");
        }
    }
}
