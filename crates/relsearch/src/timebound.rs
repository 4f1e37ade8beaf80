//! Time-bounded keyword search with residual forms (Baid, Rae, Doan &
//! Naughton, *Toward industrial-strength keyword search systems over
//! relational data*, ICDE 10) — tutorial slides 119–120.
//!
//! Keyword search latency is unpredictable: some queries have cheap answers,
//! others hide behind enormous CN spaces. The industrial-strength answer:
//! run the search for a **preset work budget**, return what was found, and
//! summarize the *unexplored and incompletely explored* search space as
//! query forms the user can continue with — "easy queries answered, hard
//! queries handed to the user".

use crate::eval::evaluate_cn;
use crate::topk::{bound_order, finish, RankedResult, TopKQuery};
use kwdb_common::topk::TopK;
use kwdb_relational::{Database, ExecStats};
use std::ops::Deref;

/// A residual form: an unexplored CN rendered as an incomplete query.
#[derive(Debug, Clone)]
pub struct ResidualForm {
    pub cn_index: usize,
    /// Human-readable rendering of the CN (its join structure + keyword
    /// slots), as the user would see the form.
    pub description: String,
    /// The CN's optimistic score bound — how promising the unexplored
    /// region still is.
    pub bound: f64,
}

/// Outcome of a budgeted search.
#[derive(Debug)]
pub struct PartialSearch {
    pub results: Vec<RankedResult>,
    /// CNs not (fully) evaluated before the budget ran out, best first.
    pub residual_forms: Vec<ResidualForm>,
    /// Whether the search completed within budget (no residual space).
    pub complete: bool,
}

/// Run top-k evaluation CN-by-CN (bound order) until `work_budget` join
/// probes + scans are spent; summarize the rest as forms.
pub fn partial_search<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    work_budget: u64,
    db: &Database,
) -> PartialSearch {
    let stats = ExecStats::new();
    let mut topk = TopK::new(k);
    let mut residual: Vec<ResidualForm> = Vec::new();
    let mut exhausted = false;
    // CNs by bound, as Sparse orders them
    for (bound, ci) in bound_order(q) {
        // early termination applies throughout: dominated CNs are *not*
        // residual — they provably cannot contribute
        if let Some(th) = topk.threshold() {
            if bound <= th {
                break;
            }
        }
        let spent = stats.snapshot().join_probes + stats.snapshot().tuples_scanned;
        if exhausted || spent >= work_budget {
            exhausted = true;
            residual.push(ResidualForm {
                cn_index: ci,
                description: q.cns[ci].display(db, q.keywords),
                bound,
            });
            continue;
        }
        for r in evaluate_cn(db, &q.cns[ci], q.ts, &stats) {
            let score = q.scorer.monotone_score(&r, q.keywords);
            topk.push(score, (ci, r));
        }
    }
    PartialSearch {
        results: finish(topk),
        complete: residual.is_empty(),
        residual_forms: residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::{CnGenConfig, CnGenerator, MaskOracle};
    use crate::topk::naive;
    use crate::{ResultScorer, TupleSets};
    use kwdb_relational::database::dblp_schema;

    fn setup() -> (Database, Vec<String>) {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        for aid in 0..10 {
            db.insert(
                "author",
                vec![(aid as i64).into(), format!("widom {aid}").into()],
            )
            .unwrap();
        }
        for pid in 0..10 {
            db.insert(
                "paper",
                vec![
                    (pid as i64).into(),
                    format!("xml topic {pid}").into(),
                    1.into(),
                ],
            )
            .unwrap();
        }
        for w in 0..10 {
            db.insert(
                "write",
                vec![(w as i64).into(), (w as i64).into(), (w as i64).into()],
            )
            .unwrap();
        }
        db.build_text_index();
        (db, vec!["widom".to_string(), "xml".to_string()])
    }

    fn run(db: &Database, keywords: &[String], budget: u64) -> PartialSearch {
        let ts = TupleSets::build(db, keywords).unwrap();
        let oracle = MaskOracle::from_tuplesets(&ts);
        let mut g = CnGenerator::new(
            db.schema_graph(),
            &oracle,
            CnGenConfig {
                max_size: 5,
                dedupe: true,
                max_cns: 100,
            },
        );
        let cns = g.generate();
        let scorer = ResultScorer::new(db);
        let q = TopKQuery {
            db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords,
        };
        partial_search(&q, 5, budget, db)
    }

    #[test]
    fn generous_budget_completes() {
        let (db, kws) = setup();
        let out = run(&db, &kws, u64::MAX);
        assert!(out.complete);
        assert!(out.residual_forms.is_empty());
        assert!(!out.results.is_empty());
    }

    #[test]
    fn zero_budget_summarizes_everything_as_forms() {
        // With no budget at all nothing is evaluated, so nothing can be
        // dominated: the entire CN space comes back as residual forms.
        let (db, kws) = setup();
        let out = run(&db, &kws, 0);
        assert!(!out.complete);
        assert!(out.results.is_empty());
        assert!(!out.residual_forms.is_empty());
        // residual forms carry the CN rendering with keyword slots
        assert!(out.residual_forms[0].description.contains('^'));
        // bounds descend with the evaluation order
        assert!(out
            .residual_forms
            .windows(2)
            .all(|w| w[0].bound >= w[1].bound));
    }

    #[test]
    fn dominated_cns_are_not_residual() {
        // A budget that covers the top CN: the rest are either dominated
        // (dropped) or residual; in this fixture the first CN's results
        // dominate everything else, so the search reports complete.
        let (db, kws) = setup();
        let out = run(&db, &kws, 10_000);
        assert!(out.complete, "domination should finish the search");
        assert_eq!(out.results.len(), 5);
    }

    #[test]
    fn partial_results_are_a_prefix_quality_subset() {
        // whatever a budgeted run returns must be genuine results (they
        // appear in the exhaustive run too)
        let (db, kws) = setup();
        let full = {
            let ts = TupleSets::build(&db, &kws).unwrap();
            let oracle = MaskOracle::from_tuplesets(&ts);
            let mut g = CnGenerator::new(
                db.schema_graph(),
                &oracle,
                CnGenConfig {
                    max_size: 5,
                    dedupe: true,
                    max_cns: 100,
                },
            );
            let cns = g.generate();
            let scorer = ResultScorer::new(&db);
            let q = TopKQuery {
                db: &db,
                ts: &ts,
                cns: &cns,
                scorer: &scorer,
                keywords: &kws,
            };
            naive(&q, 1000, &ExecStats::new())
        };
        let all_sigs: std::collections::HashSet<Vec<kwdb_relational::TupleId>> = full
            .into_iter()
            .map(|r| {
                let mut t = r.result.tuples;
                t.sort();
                t
            })
            .collect();
        let partial = run(&db, &kws, 200);
        for r in &partial.results {
            let mut sig = r.result.tuples.clone();
            sig.sort();
            assert!(all_sigs.contains(&sig), "budgeted result not in full run");
        }
    }
}
