//! Integration: the full relational keyword-search pipeline on generated
//! DBLP data — tuple sets → CNs → executors → sharing → parallelism agree
//! with each other.

use kwdb::common::{Budget, FacetSpec};
use kwdb::datasets::{dblp::sample_queries, generate_dblp, DblpConfig};
use kwdb::relational::ExecStats;
use kwdb::relsearch::cn::{CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::eval::evaluate_cn;
use kwdb::relsearch::facets::{count_facets, resolve_facets, resolve_refinements};
use kwdb::relsearch::mesh::evaluate_shared;
use kwdb::relsearch::pexec::{evaluate, EvalScratch};
use kwdb::relsearch::score::Scoring;
use kwdb::relsearch::spark::{naive_spark, skyline_sweep};
use kwdb::relsearch::topk::{global_pipeline, naive, sparse, RankedResult, TopKQuery};
use kwdb::relsearch::{
    CandidateNetwork, FacetRequest, Refinement, ResolvedRefinement, ResultScorer, TupleSets,
};

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

/// The references against the engine's executor, and against one another.
/// `naive` and `naive_spark` rank every joined row under the executor's tie
/// rule (score, then CN, then tuples), so for every k they return its hits
/// exactly — CN index, tuples and score bits — under each model. `sparse`
/// and the global pipeline stop once a bound only ties the k-th best
/// (`bound <= th`) and may keep another tied k-th row, so they are held to
/// `naive`'s scores.
#[test]
fn executors_agree_across_many_generated_queries() {
    let db = generate_dblp(&DblpConfig {
        n_authors: 50,
        n_papers: 120,
        ..Default::default()
    });
    let scorer = ResultScorer::new(&db);
    let mut scratch = EvalScratch::new();
    let hits = |results: &[RankedResult]| -> Vec<_> {
        (results.iter())
            .map(|r| (r.cn_index, r.result.tuples.clone(), r.score.to_bits()))
            .collect()
    };
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
        for k in 1..=12 {
            let references = [
                (Scoring::Monotone, naive(&q, k, &s)),
                (Scoring::Spark, naive_spark(&q, k, &s)),
            ];
            for (model, reference) in references {
                let budget = Budget::unlimited();
                let out = evaluate(&q, k, model, &s, &budget, &mut scratch, &[]);
                let want = hits(&reference);
                assert_eq!(hits(&out.results), want, "{model:?} k {k} {query:?}");
            }
        }
        let a: Vec<f64> = naive(&q, 5, &s).iter().map(|r| r.score).collect();
        let b: Vec<f64> = sparse(&q, 5, &s).iter().map(|r| r.score).collect();
        let c: Vec<f64> = global_pipeline(&q, 5, &s).iter().map(|r| r.score).collect();
        assert_eq!(a, b, "sparse != naive for {query:?}");
        assert_eq!(a, c, "pipeline != naive for {query:?}");
    }
}

/// Tuple sets answer alike wherever their row array came from: a fresh one
/// (`TupleSets::build`), the one a pooled scratch got back from the query
/// before it (`build_with` after `recycle`), or a fresh one again after the
/// query before dropped its sets without `recycle`. Each seeded query — the
/// last one also refined by its own most frequent venue — goes through
/// `count_facets` and `evaluate` on both sets, and the hits, score bits,
/// work counters and facet counts must agree.
#[test]
fn sets_built_anywhere_answer_alike() {
    let db = generate_dblp(&DblpConfig {
        n_authors: 80,
        n_papers: 240,
        ..Default::default()
    });
    let scorer = ResultScorer::new(&db);
    let specs = [
        FacetSpec::terms("conference.name", 20),
        FacetSpec::terms("author.name", 20),
    ];
    let facets = resolve_facets(&db, &specs).unwrap();
    let mut pooled = EvalScratch::new();
    let queries = sample_queries(&db, 12, 2, 0x5e75);
    let mut answered = 0;
    for (i, query) in queries.iter().enumerate() {
        let (fresh, cns) = setup(&db, query);
        let reused = TupleSets::build_with(&db, query, &mut pooled).unwrap();
        assert_eq!(fresh.keys(), reused.keys(), "{query:?}");
        let model = [Scoring::Monotone, Scoring::Spark][i % 2];
        let run = |ts: &TupleSets, scratch: &mut EvalScratch, refinements| {
            let q = TopKQuery {
                db: &db,
                ts,
                cns: &cns,
                scorer: &scorer,
                keywords: query,
            };
            let (stats, budget) = (ExecStats::new(), Budget::unlimited());
            let freq = FacetRequest {
                facets: &facets,
                refinements,
            };
            let tally = count_facets(&db, ts, &cns, &freq, &budget, &stats, scratch);
            let out = evaluate(&q, 10, model, &stats, &budget, scratch, refinements);
            let hits: Vec<_> = (out.results.iter())
                .map(|r| (r.cn_index, r.score.to_bits(), r.result.tuples.clone()))
                .collect();
            let counted = (tally.cns_counted, tally.message_rows);
            let work = (out.cns_evaluated, out.cns_pruned, stats.snapshot());
            let answer = (hits, out.truncation, tally.counts.finish(&facets));
            (answer, work, counted)
        };
        let plain: &[ResolvedRefinement] = &[];
        let want = run(&fresh, &mut EvalScratch::new(), plain);
        assert_eq!(run(&reused, &mut pooled, plain), want, "{query:?}");
        answered += !want.0 .0.is_empty() as usize;
        if i + 1 == queries.len() {
            // Refined by the venue the most results hold.
            let venue = &want.0 .2[0].values[0].value;
            let refine = [Refinement::Term {
                attr: "conference.name".into(),
                value: venue.clone(),
            }];
            let refined = &resolve_refinements(&db, &refine).unwrap()[..];
            let want = run(&fresh, &mut EvalScratch::new(), refined);
            assert!(!want.0 .0.is_empty(), "{query:?} in {venue}");
            assert_eq!(run(&reused, &mut pooled, refined), want, "{query:?}");
        }
        // Every third query drops its sets: the next build starts afresh.
        if i % 3 == 1 {
            drop(reused);
            assert_eq!(pooled.unmatched_rows(), Some(0));
        } else {
            reused.recycle(&mut pooled);
            assert!(pooled.unmatched_rows().is_some_and(|n| n > 0));
        }
    }
    assert!(answered >= 8, "{answered} of 12 queries answered");
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
    let out = evaluate(
        &q,
        total + 1,
        Scoring::Monotone,
        &s,
        &Budget::unlimited(),
        &mut EvalScratch::new(),
        &[],
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
