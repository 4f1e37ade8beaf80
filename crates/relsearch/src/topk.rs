//! Top-k execution strategies over many candidate networks — DISCOVER2
//! (Hristidis et al., VLDB 03), tutorial slide 116.
//!
//! These are the tutorial's *reference* strategies: experiments E06/E07
//! compare them, and `tests/relational_pipeline.rs` holds them and the
//! engine's executor, [`crate::pexec`], to one another. No serving path
//! runs them.
//!
//! All four executors return the same top-k (the scoring function is the
//! monotone DISCOVER2 model from [`crate::score`]); they differ in how much
//! work they do, which is exactly what experiment E06 measures:
//!
//! * [`naive`] — evaluate every CN fully, then sort.
//! * [`sparse`] — order CNs by an upper bound (best tuple of each keyword
//!   node); evaluate whole CNs until the next bound cannot beat the k-th
//!   best.
//! * [`single_pipeline`] — Sparse's CN ordering, but each CN is evaluated
//!   incrementally and abandoned as soon as its own bound is dominated.
//! * [`global_pipeline`] — interleave *slices* of all CNs: each keyword
//!   node's tuples are sorted by score, and the executor repeatedly advances
//!   the CN/node with the highest remaining upper bound by one tuple,
//!   joining it against the already-consumed prefixes of the CN's other
//!   nodes. Every tuple combination is evaluated at most once, and execution
//!   stops as soon as no CN's bound can beat the k-th best.
//!
//! Each pushes `(cn, result)` into one [`TopK`], so score ties order by
//! CN and then tuples, as the executor's do.

use crate::cn::CandidateNetwork;
use crate::eval::{default_rows, evaluate_cn, evaluate_cn_with, JoinedResult};
use crate::score::ResultScorer;
use crate::tupleset::TupleSets;
use kwdb_common::topk::TopK;
use kwdb_common::{Budget, TruncationReason};
use kwdb_relational::{Database, ExecStats, RowId};
use std::ops::Deref;

/// A scored result with its originating CN.
#[derive(Debug, Clone)]
pub struct RankedResult {
    pub cn_index: usize,
    pub result: JoinedResult,
    pub score: f64,
}

/// What a CN executor did, beyond the ranked results: how the run ended and
/// how the CN population split between networks actually joined and networks
/// skipped (bound-pruned or cut by the budget). For every executor,
/// `cns_evaluated + cns_pruned` equals the number of CNs it was given —
/// the invariant the metrics validator checks fleet-wide.
#[derive(Debug, Clone)]
pub struct CnExecOutcome {
    pub results: Vec<RankedResult>,
    pub truncation: Option<TruncationReason>,
    /// CNs that contributed at least one join slice / full evaluation.
    pub cns_evaluated: u64,
    /// CNs never touched: dominated by the top-k bound or budget-cut.
    pub cns_pruned: u64,
}

/// Everything an executor needs. Generic over how the scorer holds the
/// database (`D`, see [`ResultScorer`]) so the same executors serve both the
/// borrow-based pipelines and the `Arc`-owned unified engine; the default
/// keeps plain `TopKQuery<'_, S>` annotations meaning the borrowed form.
pub struct TopKQuery<'a, S: AsRef<str>, D: Deref<Target = Database> = &'a Database> {
    pub db: &'a Database,
    pub ts: &'a TupleSets,
    pub cns: &'a [CandidateNetwork],
    pub scorer: &'a ResultScorer<D>,
    pub keywords: &'a [S],
}

/// Evaluate everything, keep the best k.
pub fn naive<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
) -> Vec<RankedResult> {
    naive_counted(q, k, stats).results
}

/// [`naive`] with CN accounting: every CN is evaluated, none pruned.
pub fn naive_counted<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
) -> CnExecOutcome {
    let mut topk = TopK::new(k);
    for (ci, cn) in q.cns.iter().enumerate() {
        for r in evaluate_cn(q.db, cn, q.ts, stats) {
            let score = q.scorer.monotone_score(&r, q.keywords);
            topk.push(score, (ci, r));
        }
    }
    CnExecOutcome {
        results: finish(topk),
        truncation: None,
        cns_evaluated: q.cns.len() as u64,
        cns_pruned: 0,
    }
}

/// Upper bound on any result of `cn`: each keyword node contributes its best
/// tuple's score; free nodes contribute 0 (their tuples match no keyword).
fn cn_bound<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    cn: &CandidateNetwork,
) -> f64 {
    let mut sum = 0.0;
    for &ni in &cn.keyword_nodes() {
        let node = cn.nodes[ni];
        let best = q
            .ts
            .get(node.table, node.mask)
            .map(|s| {
                s.rows
                    .iter()
                    .map(|&r| {
                        q.scorer
                            .tuple_score(kwdb_relational::TupleId::new(node.table, r), q.keywords)
                    })
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0);
        sum += best;
    }
    sum / cn.size() as f64
}

/// CN indices paired with their [`cn_bound`], best bound first.
pub(crate) fn bound_order<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
) -> Vec<(f64, usize)> {
    let mut order: Vec<(f64, usize)> = q
        .cns
        .iter()
        .enumerate()
        .map(|(i, cn)| (cn_bound(q, cn), i))
        .collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    order
}

/// Evaluate CNs in bound order; stop when the next bound cannot improve.
pub fn sparse<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
) -> Vec<RankedResult> {
    let mut topk = TopK::new(k);
    for (bound, ci) in bound_order(q) {
        if topk.threshold().is_some_and(|th| bound <= th) {
            break; // no remaining CN can beat the k-th best
        }
        for r in evaluate_cn(q.db, &q.cns[ci], q.ts, stats) {
            let score = q.scorer.monotone_score(&r, q.keywords);
            topk.push(score, (ci, r));
        }
    }
    finish(topk)
}

/// Per-CN slice-pipeline state, shared by the single and global pipelines.
struct CnState {
    cn_idx: usize,
    /// Indices of keyword nodes within the CN.
    nonfree: Vec<usize>,
    /// Per keyword node: rows sorted by tuple score, descending.
    sorted: Vec<Vec<(RowId, f64)>>,
    /// Per keyword node: tuples consumed so far.
    p: Vec<usize>,
    size: f64,
}

impl CnState {
    fn new<S: AsRef<str>, D: Deref<Target = Database>>(q: &TopKQuery<'_, S, D>, ci: usize) -> Self {
        let cn = &q.cns[ci];
        let nonfree = cn.keyword_nodes();
        let sorted: Vec<Vec<(RowId, f64)>> = nonfree
            .iter()
            .map(|&ni| {
                let node = cn.nodes[ni];
                let mut rows: Vec<(RowId, f64)> =
                    q.ts.get(node.table, node.mask)
                        .map(|s| {
                            s.rows
                                .iter()
                                .map(|&r| {
                                    let t = kwdb_relational::TupleId::new(node.table, r);
                                    (r, q.scorer.tuple_score(t, q.keywords))
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                rows
            })
            .collect();
        CnState {
            cn_idx: ci,
            p: vec![0; nonfree.len()],
            size: cn.size() as f64,
            nonfree,
            sorted,
        }
    }

    /// Upper bound of all unseen combinations, and the node to advance.
    fn bound(&self) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, rows) in self.sorted.iter().enumerate() {
            let Some(&(_, next_score)) = rows.get(self.p[i]) else {
                continue;
            };
            let others: f64 = self
                .sorted
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, r)| r.first().map(|&(_, s)| s).unwrap_or(0.0))
                .sum();
            let b = (next_score + others) / self.size;
            if best.is_none_or(|(bb, _)| b > bb) {
                best = Some((b, i));
            }
        }
        best
    }

    /// Advance keyword node `adv` by one tuple: join that tuple against the
    /// consumed prefixes of the other keyword nodes (free nodes take their
    /// default rows) and push every joined result into `topk`. A prefix of
    /// size 0 anywhere other than `adv` means no combinations exist yet.
    fn advance<S: AsRef<str>, D: Deref<Target = Database>>(
        &mut self,
        q: &TopKQuery<'_, S, D>,
        adv: usize,
        topk: &mut TopK<(usize, JoinedResult)>,
        stats: &ExecStats,
    ) {
        let cn = &q.cns[self.cn_idx];
        let fixed_row = self.sorted[adv][self.p[adv]].0;
        let viable = self.p.iter().enumerate().all(|(i, &pi)| i == adv || pi > 0);
        if viable {
            let results = evaluate_cn_with(
                q.db,
                cn,
                &|node| {
                    if node == self.nonfree[adv] {
                        vec![fixed_row]
                    } else if let Some(i) = self.nonfree.iter().position(|&nf| nf == node) {
                        self.sorted[i][..self.p[i]]
                            .iter()
                            .map(|&(r, _)| r)
                            .collect()
                    } else {
                        default_rows(q.db, cn, q.ts, node)
                    }
                },
                stats,
            );
            for r in results {
                let score = q.scorer.monotone_score(&r, q.keywords);
                topk.push(score, (self.cn_idx, r));
            }
        }
        self.p[adv] += 1;
    }
}

/// The single pipeline (slide 116's third strategy): process CNs one at a
/// time in bound order, but evaluate each CN *incrementally* (slice by
/// slice, like the global pipeline restricted to one CN), stopping inside a
/// CN as soon as its remaining bound cannot beat the k-th best, and stopping
/// overall when the next CN's bound cannot either.
pub fn single_pipeline<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
) -> Vec<RankedResult> {
    let mut topk = TopK::new(k);
    for (bound, ci) in bound_order(q) {
        if topk.threshold().is_some_and(|th| bound <= th) {
            break;
        }
        let mut st = CnState::new(q, ci);
        while let Some((bound, adv)) = st.bound() {
            if topk.threshold().is_some_and(|th| bound <= th) {
                break;
            }
            st.advance(q, adv, &mut topk, stats);
        }
    }
    finish(topk)
}

/// The global pipeline: advance the best-bounded CN slice by slice.
pub fn global_pipeline<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
) -> Vec<RankedResult> {
    global_pipeline_counted(q, k, stats, &Budget::unlimited()).results
}

/// [`global_pipeline`] under an execution [`Budget`], with CN accounting.
/// Every slice advanced counts as one candidate; when the budget is
/// exhausted the best results found so far are returned along with the
/// [`TruncationReason`] that cut the search short. A CN counts as evaluated
/// once it advances its first slice; CNs that never advance (dominated by
/// the global bound from the start, or cut by the budget) count as pruned.
pub fn global_pipeline_counted<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
    budget: &Budget,
) -> CnExecOutcome {
    let mut states: Vec<CnState> = (0..q.cns.len()).map(|ci| CnState::new(q, ci)).collect();
    let mut topk = TopK::new(k);
    let mut slices: u64 = 0;
    let mut truncation = None;
    let mut touched = vec![false; states.len()];
    loop {
        if let Some(reason) = budget.truncation_at(slices) {
            truncation = Some(reason);
            break;
        }
        slices += 1;
        // Pick the state with the globally highest bound.
        let pick = states
            .iter()
            .enumerate()
            .filter_map(|(si, s)| s.bound().map(|(b, node)| (b, si, node)))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        let Some((bound, si, adv)) = pick else { break };
        if topk.threshold().is_some_and(|th| bound <= th) {
            break;
        }
        states[si].advance(q, adv, &mut topk, stats);
        touched[si] = true;
    }
    let evaluated = touched.iter().filter(|&&t| t).count() as u64;
    CnExecOutcome {
        results: finish(topk),
        truncation,
        cns_evaluated: evaluated,
        cns_pruned: q.cns.len() as u64 - evaluated,
    }
}

/// A filled top-k collector as ranked results, best first.
pub(crate) fn finish(topk: TopK<(usize, JoinedResult)>) -> Vec<RankedResult> {
    topk.into_sorted_vec()
        .into_iter()
        .map(|(score, (cn_index, result))| RankedResult {
            cn_index,
            result,
            score,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::{CnGenConfig, CnGenerator, MaskOracle};
    use kwdb_relational::database::dblp_schema;

    fn db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        db.insert("conference", vec![2.into(), "VLDB".into(), 2008.into()])
            .unwrap();
        db.insert("author", vec![1.into(), "Jennifer Widom".into()])
            .unwrap();
        db.insert("author", vec![2.into(), "Serge Abiteboul".into()])
            .unwrap();
        db.insert("author", vec![3.into(), "Widom Junior".into()])
            .unwrap();
        for (pid, title, cid) in [
            (10, "XML keyword search", 1),
            (11, "Data on the Web", 1),
            (12, "Streams and XML", 2),
            (13, "Query optimization", 2),
        ] {
            db.insert("paper", vec![pid.into(), title.into(), cid.into()])
                .unwrap();
        }
        for (wid, aid, pid) in [(100, 1, 10), (101, 2, 11), (102, 1, 12), (103, 3, 13)] {
            db.insert("write", vec![wid.into(), aid.into(), pid.into()])
                .unwrap();
        }
        db.build_text_index();
        db
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
        let cns = generator.generate();
        (ts, cns)
    }

    fn run_all(db: &Database, keywords: &[&str], k: usize) -> Vec<Vec<f64>> {
        let (ts, cns) = setup(db, keywords);
        let scorer = ResultScorer::new(db);
        let q = TopKQuery {
            db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords,
        };
        let stats = ExecStats::new();
        vec![
            naive(&q, k, &stats).iter().map(|r| r.score).collect(),
            sparse(&q, k, &stats).iter().map(|r| r.score).collect(),
            single_pipeline(&q, k, &stats)
                .iter()
                .map(|r| r.score)
                .collect(),
            global_pipeline(&q, k, &stats)
                .iter()
                .map(|r| r.score)
                .collect(),
        ]
    }

    #[test]
    fn executors_agree_on_topk_scores() {
        let db = db();
        for k in [1, 3, 10] {
            let rs = run_all(&db, &["widom", "xml"], k);
            assert_eq!(rs[0], rs[1], "sparse differs from naive at k={k}");
            assert_eq!(rs[0], rs[2], "single pipeline differs from naive at k={k}");
            assert_eq!(rs[0], rs[3], "global pipeline differs from naive at k={k}");
        }
    }

    #[test]
    fn single_pipeline_skips_dominated_cns() {
        let db = db();
        let keywords = ["widom", "xml"];
        let (ts, cns) = setup(&db, &keywords);
        let scorer = ResultScorer::new(&db);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        let s_single = ExecStats::new();
        single_pipeline(&q, 1, &s_single);
        let s_naive = ExecStats::new();
        naive(&q, 1, &s_naive);
        assert!(
            s_single.snapshot().tuples_scanned <= s_naive.snapshot().tuples_scanned,
            "single pipeline must not scan more than naive"
        );
    }

    #[test]
    fn results_cover_all_keywords() {
        let db = db();
        let keywords = ["widom", "xml"];
        let (ts, cns) = setup(&db, &keywords);
        let scorer = ResultScorer::new(&db);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        let stats = ExecStats::new();
        let res = naive(&q, 10, &stats);
        assert!(!res.is_empty());
        for r in &res {
            let text: Vec<String> = r
                .result
                .tuples
                .iter()
                .flat_map(|&t| db.tuple_tokens(t))
                .collect();
            for kw in &keywords {
                assert!(text.iter().any(|t| t == kw), "missing {kw} in {text:?}");
            }
        }
    }

    #[test]
    fn pipeline_touches_fewer_tuples_for_small_k() {
        let db = db();
        let keywords = ["widom", "xml"];
        let (ts, cns) = setup(&db, &keywords);
        let scorer = ResultScorer::new(&db);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        let sn = ExecStats::new();
        naive(&q, 1, &sn);
        let sp = ExecStats::new();
        global_pipeline(&q, 1, &sp);
        assert!(
            sp.snapshot().join_probes <= sn.snapshot().join_probes,
            "pipeline {} > naive {}",
            sp.snapshot().join_probes,
            sn.snapshot().join_probes
        );
    }

    #[test]
    fn scores_descend() {
        let db = db();
        let (ts, cns) = setup(&db, &["widom", "xml"]);
        let scorer = ResultScorer::new(&db);
        let kws = ["widom", "xml"];
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &kws,
        };
        let stats = ExecStats::new();
        let res = naive(&q, 10, &stats);
        assert!(res.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn no_duplicate_results_across_cns() {
        let db = db();
        let (ts, cns) = setup(&db, &["widom", "xml"]);
        let scorer = ResultScorer::new(&db);
        let kws = ["widom", "xml"];
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &kws,
        };
        let stats = ExecStats::new();
        let res = naive(&q, 100, &stats);
        let mut seen = std::collections::HashSet::new();
        for r in &res {
            let mut sig = r.result.tuples.clone();
            sig.sort();
            assert!(seen.insert(sig), "duplicate joining tree across CNs");
        }
    }
}
