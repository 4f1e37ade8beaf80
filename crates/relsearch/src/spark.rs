//! SPARK: top-k under a non-monotonic scoring function
//! (Luo et al., SIGMOD 07) — tutorial slide 117.
//!
//! SPARK's virtual-document score is not monotone in per-tuple scores, so
//! DISCOVER2's pipelines don't apply. SPARK instead sorts each keyword
//! node's tuples by the monotone upper bound `watf` (see
//! [`crate::score::ResultScorer::watf`]) and enumerates tuple combinations
//! in bound order:
//!
//! * [`skyline_sweep`] — a best-first sweep over the combination lattice:
//!   pop the combination with the highest bound, evaluate it (one probe per
//!   combination), push its lattice successors; stop when the k-th best
//!   *real* score dominates the best remaining bound.
//! * [`block_pipeline`] — the same sweep over *blocks* of tuples: bounds are
//!   computed per block combination, trading bound tightness for far fewer
//!   join invocations.
//! * [`naive_spark`] — evaluate everything; the correctness baseline.
//!
//! These are the tutorial's *reference* strategies: experiment E07 compares
//! them and the sweeps are tested against [`naive_spark`]. The engine
//! serves `Scoring::Spark` through its one CN executor, [`crate::pexec`],
//! which prunes with the same `watf` bound per CN and per joined row.

use crate::eval::{default_rows, evaluate_cn, evaluate_cn_with};
use crate::topk::{finish, RankedResult, TopKQuery};
use kwdb_common::{topk::TopK, Score};
use kwdb_relational::{Database, ExecStats, RowId, TupleId};
use std::collections::{BinaryHeap, HashSet};
use std::ops::Deref;

/// Evaluate every CN fully and rank by the SPARK score.
pub fn naive_spark<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
) -> Vec<RankedResult> {
    let mut topk = TopK::new(k);
    for (ci, cn) in q.cns.iter().enumerate() {
        for r in evaluate_cn(q.db, cn, q.ts, stats) {
            let score = q.scorer.spark_score(&r, q.keywords);
            topk.push(score, (ci, r));
        }
    }
    finish(topk)
}

/// Per-CN lattice context.
struct Lattice {
    cn_idx: usize,
    nonfree: Vec<usize>,
    /// rows sorted by watf descending, with their watf values.
    sorted: Vec<Vec<(RowId, f64)>>,
    /// SPARK's size penalty is known per CN: every result of this CN has
    /// exactly `cn.size()` tuples, so the bound is tightened by 1/size.
    inv_size: f64,
}

impl Lattice {
    fn build<S: AsRef<str>, D: Deref<Target = Database>>(
        q: &TopKQuery<'_, S, D>,
        cn_idx: usize,
    ) -> Option<Self> {
        let cn = &q.cns[cn_idx];
        let nonfree = cn.keyword_nodes();
        let mut sorted = Vec::with_capacity(nonfree.len());
        for &ni in &nonfree {
            let node = cn.nodes[ni];
            let set = q.ts.get(node.table, node.mask)?;
            let mut rows: Vec<(RowId, f64)> = set
                .rows
                .iter()
                .map(|&r| (r, q.scorer.watf(TupleId::new(node.table, r), q.keywords)))
                .collect();
            rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            sorted.push(rows);
        }
        Some(Lattice {
            cn_idx,
            nonfree,
            sorted,
            inv_size: 1.0 / cn.size() as f64,
        })
    }

    /// Upper bound of combination `combo` (tuple indices per keyword node).
    fn bound(&self, combo: &[usize]) -> Option<f64> {
        let mut sum = 0.0;
        for (rows, &i) in self.sorted.iter().zip(combo) {
            sum += rows.get(i)?.1;
        }
        Some(sum * self.inv_size)
    }
}

/// Queue entry: `(bound, lattice id, combo)` — max-heap by bound.
type Entry = (Score, usize, Vec<usize>);

/// Skyline-sweep over tuple combinations of all CNs.
pub fn skyline_sweep<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
) -> Vec<RankedResult> {
    sweep(q, k, stats, 1)
}

/// Block pipeline: the same sweep with blocks of `block_size` tuples.
pub fn block_pipeline<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    block_size: usize,
    stats: &ExecStats,
) -> Vec<RankedResult> {
    sweep(q, k, stats, block_size.max(1))
}

fn sweep<S: AsRef<str>, D: Deref<Target = Database>>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
    block: usize,
) -> Vec<RankedResult> {
    let lattices: Vec<Lattice> = (0..q.cns.len())
        .filter_map(|ci| Lattice::build(q, ci))
        .collect();
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let mut seen: HashSet<(usize, Vec<usize>)> = HashSet::new();
    for (li, lat) in lattices.iter().enumerate() {
        let combo = vec![0usize; lat.nonfree.len()];
        if let Some(b) = lat.bound(&block_head(&combo, block)) {
            seen.insert((li, combo.clone()));
            heap.push((Score(b), li, combo));
        }
    }
    let mut topk = TopK::new(k);
    while let Some((Score(bound), li, combo)) = heap.pop() {
        if let Some(th) = topk.threshold() {
            if bound <= th {
                break; // no remaining combination can beat the k-th best
            }
        }
        let lat = &lattices[li];
        let cn = &q.cns[lat.cn_idx];
        // Evaluate: keyword node j restricted to its block starting at
        // combo[j]·block; free nodes default.
        let results = evaluate_cn_with(
            q.db,
            cn,
            &|node| {
                if let Some(j) = lat.nonfree.iter().position(|&nf| nf == node) {
                    let start = combo[j] * block;
                    let end = (start + block).min(lat.sorted[j].len());
                    lat.sorted[j][start..end].iter().map(|&(r, _)| r).collect()
                } else {
                    default_rows(q.db, cn, q.ts, node)
                }
            },
            stats,
        );
        for r in results {
            let score = q.scorer.spark_score(&r, q.keywords);
            topk.push(score, (lat.cn_idx, r));
        }
        // push lattice successors (block granularity)
        for j in 0..combo.len() {
            let mut next = combo.clone();
            next[j] += 1;
            if next[j] * block >= lat.sorted[j].len() {
                continue;
            }
            if seen.insert((li, next.clone())) {
                if let Some(b) = lat.bound(&block_head(&next, block)) {
                    heap.push((Score(b), li, next));
                }
            }
        }
    }
    finish(topk)
}

/// First tuple index of each block — where the block's max watf lives.
fn block_head(combo: &[usize], block: usize) -> Vec<usize> {
    combo.iter().map(|&c| c * block).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::{CandidateNetwork, CnGenConfig, CnGenerator, MaskOracle};
    use crate::score::ResultScorer;
    use crate::tupleset::TupleSets;
    use kwdb_relational::database::dblp_schema;
    use kwdb_relational::Database;

    fn db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        db.insert("author", vec![1.into(), "Jennifer Widom".into()])
            .unwrap();
        db.insert("author", vec![2.into(), "Widom Widom Widom".into()])
            .unwrap();
        db.insert("author", vec![3.into(), "Serge Abiteboul".into()])
            .unwrap();
        for (pid, title) in [
            (10, "XML keyword search"),
            (11, "XML XML XML spam"),
            (12, "Query processing"),
        ] {
            db.insert("paper", vec![pid.into(), title.into(), 1.into()])
                .unwrap();
        }
        for (wid, aid, pid) in [(100, 1, 10), (101, 2, 11), (102, 3, 12), (103, 1, 12)] {
            db.insert("write", vec![wid.into(), aid.into(), pid.into()])
                .unwrap();
        }
        db.build_text_index();
        db
    }

    fn setup(db: &Database, keywords: &[&str]) -> (TupleSets, Vec<CandidateNetwork>) {
        let ts = TupleSets::build(db, keywords).unwrap();
        let oracle = MaskOracle::from_tuplesets(&ts);
        let mut g = CnGenerator::new(
            db.schema_graph(),
            &oracle,
            CnGenConfig {
                max_size: 5,
                dedupe: true,
                max_cns: 0,
            },
        );
        let cns = g.generate();
        (ts, cns)
    }

    #[test]
    fn sweep_agrees_with_naive() {
        let db = db();
        let kws = ["widom", "xml"];
        let (ts, cns) = setup(&db, &kws);
        let scorer = ResultScorer::new(&db);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &kws,
        };
        for k in [1, 3, 8] {
            let s1 = ExecStats::new();
            let s2 = ExecStats::new();
            let s3 = ExecStats::new();
            let a: Vec<f64> = naive_spark(&q, k, &s1).iter().map(|r| r.score).collect();
            let b: Vec<f64> = skyline_sweep(&q, k, &s2).iter().map(|r| r.score).collect();
            let c: Vec<f64> = block_pipeline(&q, k, 2, &s3)
                .iter()
                .map(|r| r.score)
                .collect();
            assert_eq!(a, b, "skyline differs at k={k}");
            assert_eq!(a, c, "block pipeline differs at k={k}");
        }
    }

    #[test]
    fn spam_advantage_is_heavily_damped() {
        // "Widom Widom Widom" + "XML XML XML spam" has 3× the term
        // frequencies of the clean pair; under the double-log damping and
        // length normalization its score advantage must collapse to well
        // under 1.5× (a monotone-tf scorer would give it nearly 3×).
        let db = db();
        let kws = ["xml", "widom"];
        let (ts, cns) = setup(&db, &kws);
        let scorer = ResultScorer::new(&db);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &kws,
        };
        let stats = ExecStats::new();
        let res = naive_spark(&q, 10, &stats);
        assert!(res.len() >= 2);
        let is_spam = |r: &RankedResult| {
            r.result
                .tuples
                .iter()
                .flat_map(|&t| db.tuple_tokens(t))
                .any(|t| t == "spam")
        };
        let spam = res.iter().find(|r| is_spam(r)).expect("spam pair present");
        let clean = res
            .iter()
            .find(|r| !is_spam(r))
            .expect("clean pair present");
        assert!(
            spam.score < 1.5 * clean.score,
            "damping too weak: spam {} vs clean {}",
            spam.score,
            clean.score
        );
    }

    #[test]
    fn block_pipeline_fewer_joins_than_skyline() {
        let db = db();
        let kws = ["widom", "xml"];
        let (ts, cns) = setup(&db, &kws);
        let scorer = ResultScorer::new(&db);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &kws,
        };
        let s_sky = ExecStats::new();
        skyline_sweep(&q, 3, &s_sky);
        let s_blk = ExecStats::new();
        block_pipeline(&q, 3, 4, &s_blk);
        assert!(
            s_blk.snapshot().joins_executed <= s_sky.snapshot().joins_executed,
            "block {} > skyline {}",
            s_blk.snapshot().joins_executed,
            s_sky.snapshot().joins_executed
        );
    }

    #[test]
    fn empty_when_keyword_unmatched() {
        let db = db();
        let kws = ["widom", "qqqq"];
        let (ts, cns) = setup(&db, &kws);
        let scorer = ResultScorer::new(&db);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &kws,
        };
        let stats = ExecStats::new();
        assert!(skyline_sweep(&q, 3, &stats).is_empty());
    }
}
