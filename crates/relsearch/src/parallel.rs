//! Parallel CN computation (Qin et al., *Ten Thousand SQLs: Parallel Keyword
//! Queries Computing*, VLDB 10) — tutorial slides 130–133.
//!
//! A keyword query becomes hundreds of CN jobs; the question is how to
//! spread them over cores when jobs share sub-expressions:
//!
//! * [`partition_lpt`] — classic longest-processing-time greedy, oblivious
//!   to sharing (slide 131);
//! * [`partition_sharing_aware`] — assign each job to the core where its
//!   *residual* cost (cost minus work already paid by co-located jobs'
//!   shared subtrees) minimizes the resulting load (slide 132);
//! * [`operator_level_makespan`] — schedule distinct subtree *operators* level by
//!   level across cores (slide 133), the finest granularity.
//!
//! Those three reproduce the slides (experiment E22 simulates the
//! partitioners' makespans); none of them is on the serving path. The
//! sharing-aware partition presumes co-located CNs reuse each other's
//! sub-expressions, and the engine's evaluator shares nothing between CNs:
//! it joins through the key indexes the database already has, so there is
//! no per-CN build to pay once.
//!
//! What the engine's executor, [`crate::pexec`], takes from here is the
//! [`JoinPlan`] it derives per CN per query — the evaluator follows its
//! order, and the summed costs tell [`choose_workers`] how many workers the
//! query is worth.

use crate::cn::CandidateNetwork;
use crate::tupleset::TupleSets;
use kwdb_relational::Database;
use std::collections::{HashMap, HashSet};

/// How [`crate::pexec`] joins one CN: the node placement order (`order[0]`
/// is the root, a keyword node) and, per node, the CN edge that attaches it
/// to an already placed node (`None` for the root).
#[derive(Debug)]
pub struct JoinPlan {
    pub order: Vec<usize>,
    pub join_via: Vec<Option<usize>>,
    /// Estimated rows touched — see [`estimate_cost`].
    pub cost: f64,
}

/// The cheapest [`JoinPlan`] over the CN's keyword nodes as roots (first on
/// ties). From a root the order is greedy: of the nodes adjacent to the
/// joined prefix, the one expected to leave the fewest partners per
/// intermediate tuple goes next — a keyword node behind a primary key
/// (a filter) before a free node behind one (one partner) before a fan-out
/// through the FK index's reverse chains. Which end a join starts from, and which
/// branch it takes first, decide how far the intermediate swells
/// (`paper`→`conference`: one row; `conference`→`paper`: hundreds). Free
/// nodes are never the root — they are joined into through the key indexes,
/// not scanned.
pub fn join_plan(db: &Database, ts: &TupleSets, cn: &CandidateNetwork) -> JoinPlan {
    if cn.nodes.is_empty() {
        return JoinPlan {
            order: Vec::new(),
            join_via: Vec::new(),
            cost: 0.0,
        };
    }
    cn.keyword_nodes()
        .into_iter()
        .map(|root| plan_from(db, ts, cn, root))
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .unwrap_or_else(|| plan_from(db, ts, cn, 0))
}

/// Estimated cost of evaluating a CN by its [`join_plan`], in rows touched:
/// the root tuple set, then per join step the intermediate's probes, what
/// the step reads — a referencing keyword node's tuple set (which probes
/// the grouped intermediate), or a free node's expected fan-out per probe
/// (one row forward along the FK index, the referencing table's average
/// chain length backward) — and the rows it emits, plus one unit per join.
/// The expected intermediate size carries forward under uniform-key
/// assumptions. Pure counting, and never proportional to a table a free
/// node stands for.
pub fn estimate_cost(db: &Database, ts: &TupleSets, cn: &CandidateNetwork) -> f64 {
    join_plan(db, ts, cn).cost
}

fn plan_from(db: &Database, ts: &TupleSets, cn: &CandidateNetwork, root: usize) -> JoinPlan {
    let n = cn.nodes.len();
    let live = |t| db.table(t).live_len().max(1) as f64;
    let rows = |v| crate::eval::default_row_count(db, cn, ts, v) as f64;
    // Expected partners of one intermediate tuple in `v`'s row set, joined
    // in over edge `e`.
    let fanout = |e: &crate::cn::CnEdge, v: usize| {
        let se = &db.schema_graph().edges()[e.schema_edge];
        let partners = if e.from_side_is(v) {
            live(se.from) / live(se.to)
        } else {
            1.0
        };
        if cn.nodes[v].mask == 0 {
            partners
        } else {
            partners * rows(v) / live(cn.nodes[v].table)
        }
    };
    let mut order = vec![root];
    let mut join_via = vec![None; n];
    let mut placed = vec![false; n];
    placed[root] = true;
    let mut card = rows(root);
    let mut cost = card + cn.edges.len() as f64;
    while let Some((ei, v, f)) = cn
        .edges
        .iter()
        .enumerate()
        .filter(|(_, e)| placed[e.a] != placed[e.b])
        .map(|(ei, e)| {
            let v = if placed[e.a] { e.b } else { e.a };
            (ei, v, fanout(e, v))
        })
        .min_by(|a, b| a.2.total_cmp(&b.2))
    {
        let e = &cn.edges[ei];
        cost += if cn.nodes[v].mask == 0 {
            card * f.max(1.0)
        } else if e.from_side_is(v) {
            card + rows(v) // the intermediate is grouped, the set probes it
        } else {
            card
        };
        card *= f;
        cost += card; // rows the step emits
        placed[v] = true;
        join_via[v] = Some(ei);
        order.push(v);
    }
    debug_assert_eq!(order.len(), n, "CN must be connected");
    JoinPlan {
        order,
        join_via,
        cost,
    }
}

/// [`estimate_cost`] units one worker must be handed before a second
/// thread pays for itself.
///
/// Measured on the 100k-tuple DBLP of `benchmark/` (2 cores). The spawn
/// alone would allow far less: one unit is 10–25 ns of inline evaluation and
/// a two-thread `std::thread::scope` spawn + join costs 28 µs at the median,
/// 144 µs at p99, 1.5–3 ms when the host deschedules a thread. But the
/// estimate cannot see the bound prune: on the benchmark's high-estimate
/// queries (13 CNs, three common keywords) one worker fills the top-k from
/// the best-bound CNs and then skips the rest, evaluating 0–0.3 CNs by
/// joins, where two workers start 0.6–1 more speculatively. With every
/// other such query forced inline inside one run, two workers were
/// 1.2–2.3× slower than one for every total below 4 M units and level with
/// it (1.06–1.09× at the median) above. So a second worker needs 2 × 2²¹ units: it runs
/// where it has stopped losing, not yet where it was seen to win.
pub const COST_PER_WORKER: f64 = 2_097_152.0;

/// The worker policy behind `intra_query_workers = 0`: as many workers as
/// the plan's total [`estimate_cost`] fills with [`COST_PER_WORKER`] each —
/// so a small plan runs inline on the calling thread — never more than
/// `cap`, never fewer than one.
pub fn choose_workers(total_cost: f64, cap: usize) -> usize {
    ((total_cost / COST_PER_WORKER) as usize).clamp(1, cap.max(1))
}

/// All distinct subtree codes of a CN (every node, rooted away from each
/// neighbor) — the shareable operators.
pub fn subtree_codes(cn: &CandidateNetwork) -> HashSet<String> {
    let mut codes = HashSet::new();
    for node in 0..cn.nodes.len() {
        cn.subtree_code(node, usize::MAX, &mut |code| {
            codes.insert(code.to_string());
        });
    }
    codes
}

/// An assignment of jobs to cores plus its simulated makespan.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// `core_of[j]` = core executing job `j`.
    pub core_of: Vec<usize>,
    /// Simulated per-core loads.
    pub loads: Vec<f64>,
}

impl Assignment {
    pub fn makespan(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }
}

/// Longest-processing-time greedy, sharing-oblivious.
pub fn partition_lpt(costs: &[f64], cores: usize) -> Assignment {
    let cores = cores.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    let mut loads = vec![0.0f64; cores];
    let mut core_of = vec![0usize; costs.len()];
    for j in order {
        let c = (0..cores)
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .unwrap();
        core_of[j] = c;
        loads[c] += costs[j];
    }
    Assignment { core_of, loads }
}

/// Sharing-aware greedy: a job's cost on a core is reduced by the fraction
/// of its subtree operators already present on that core (shared work is
/// paid once per core). Jobs are placed largest-first on the core that
/// minimizes the resulting maximum load.
pub fn partition_sharing_aware(
    cns: &[CandidateNetwork],
    costs: &[f64],
    cores: usize,
) -> Assignment {
    let cores = cores.max(1);
    let codes: Vec<HashSet<String>> = cns.iter().map(subtree_codes).collect();
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    let mut loads = vec![0.0; cores];
    let mut core_codes: Vec<HashSet<String>> = vec![HashSet::new(); cores];
    let mut core_of = vec![0usize; costs.len()];
    for j in order {
        // residual cost of job j on each core
        let mut best: Option<(f64, usize, f64)> = None; // (resulting load, core, residual)
        for c in 0..cores {
            let total = codes[j].len().max(1) as f64;
            let shared = codes[j].intersection(&core_codes[c]).count() as f64;
            let residual = costs[j] * (1.0 - shared / total).max(0.05);
            let resulting = loads[c] + residual;
            if best.is_none_or(|(bl, _, _)| resulting < bl) {
                best = Some((resulting, c, residual));
            }
        }
        let (_, c, residual) = best.expect("at least one core");
        core_of[j] = c;
        loads[c] += residual;
        core_codes[c].extend(codes[j].iter().cloned());
    }
    Assignment { core_of, loads }
}

/// Operator-level scheduling: distinct subtree operators are grouped by
/// height (level) and each level is LPT-scheduled independently; the
/// makespan is the sum of per-level maxima (levels are barriers, as deeper
/// operators consume shallower ones). Returns the simulated makespan.
pub fn operator_level_makespan(cns: &[CandidateNetwork], cores: usize) -> f64 {
    let cores = cores.max(1);
    // operator → (level, unit cost ~ subtree size)
    let mut ops: HashMap<String, (usize, f64)> = HashMap::new();
    for cn in cns {
        for code in subtree_codes(cn) {
            let level = code.matches('(').count(); // nesting depth proxy
            let cost = 1.0 + code.matches('-').count() as f64 / 2.0;
            ops.entry(code).or_insert((level, cost));
        }
    }
    let mut by_level: HashMap<usize, Vec<f64>> = HashMap::new();
    for (_, (lvl, cost)) in ops {
        by_level.entry(lvl).or_default().push(cost);
    }
    let mut total = 0.0;
    for (_, costs) in by_level {
        total += partition_lpt(&costs, cores).makespan();
    }
    total
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
        db.insert("author", vec![1.into(), "Jennifer Widom".into()])
            .unwrap();
        db.insert("author", vec![2.into(), "Serge Abiteboul".into()])
            .unwrap();
        for (pid, title) in [(10, "XML keyword search"), (11, "XML views")] {
            db.insert("paper", vec![pid.into(), title.into(), 1.into()])
                .unwrap();
        }
        for (wid, aid, pid) in [(100, 1, 10), (101, 2, 11)] {
            db.insert("write", vec![wid.into(), aid.into(), pid.into()])
                .unwrap();
        }
        db.build_text_index();
        db
    }

    fn jobs(db: &Database) -> (TupleSets, Vec<CandidateNetwork>) {
        let ts = TupleSets::build(db, &["widom", "xml"]).unwrap();
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
    fn lpt_balances_loads() {
        let costs = [10.0, 9.0, 8.0, 1.0, 1.0, 1.0];
        let a = partition_lpt(&costs, 3);
        assert_eq!(a.core_of.len(), 6);
        assert!(a.makespan() <= 11.0, "LPT makespan {}", a.makespan());
        let total: f64 = a.loads.iter().sum();
        assert!((total - 30.0).abs() < 1e-9);
    }

    #[test]
    fn sharing_aware_beats_oblivious_when_jobs_overlap() {
        let db = db();
        let (ts, cns) = jobs(&db);
        assert!(cns.len() >= 4);
        let costs: Vec<f64> = cns.iter().map(|cn| estimate_cost(&db, &ts, cn)).collect();
        let obl = partition_lpt(&costs, 2);
        let aware = partition_sharing_aware(&cns, &costs, 2);
        assert!(
            aware.makespan() <= obl.makespan() + 1e-9,
            "sharing-aware {} > LPT {}",
            aware.makespan(),
            obl.makespan()
        );
    }

    #[test]
    fn operator_level_bounded_by_total_work() {
        let db = db();
        let (_, cns) = jobs(&db);
        let m1 = operator_level_makespan(&cns, 1);
        let m4 = operator_level_makespan(&cns, 4);
        assert!(m4 <= m1);
        assert!(m4 > 0.0);
    }

    #[test]
    fn auto_runs_a_small_plan_inline_and_spreads_a_large_one() {
        use crate::pexec::{parallel_topk_budgeted, EvalScratch};
        use crate::score::ResultScorer;
        use crate::topk::TopKQuery;
        use kwdb_common::{Budget, ScratchPool};
        use kwdb_relational::ExecStats;

        assert_eq!(choose_workers(0.0, 8), 1);
        assert_eq!(choose_workers(COST_PER_WORKER * 1.9, 8), 1);
        assert_eq!(choose_workers(COST_PER_WORKER * 2.0, 8), 2);
        assert_eq!(choose_workers(COST_PER_WORKER * 100.0, 4), 4, "capped");
        assert_eq!(choose_workers(COST_PER_WORKER * 100.0, 1), 1);

        // The fixture's plan is a handful of rows: one worker.
        let small = db();
        let (ts, cns) = jobs(&small);
        let total = |db: &Database, ts: &TupleSets, cns: &[CandidateNetwork]| -> f64 {
            cns.iter().map(|cn| estimate_cost(db, ts, cn)).sum()
        };
        assert_eq!(choose_workers(total(&small, &ts, &cns), 4), 1);

        // A synthetic plan worth spreading: every author wrote every paper
        // of one conference and all match, so author–write–paper emits
        // N × N rows and the network through the conference N times that.
        const N: i64 = 176;
        let mut big = Database::new();
        dblp_schema(&mut big).unwrap();
        big.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        for i in 0..N {
            big.insert("author", vec![i.into(), "widom".into()])
                .unwrap();
            big.insert("paper", vec![i.into(), "xml".into(), 1.into()])
                .unwrap();
        }
        for w in 0..N * N {
            big.insert("write", vec![w.into(), (w / N).into(), (w % N).into()])
                .unwrap();
        }
        big.build_text_index();
        let (ts, cns) = jobs(&big);
        let cost = total(&big, &ts, &cns);
        let workers = choose_workers(cost, 4);
        assert!(workers > 1, "chose {workers} for {cost}");

        // Either way the answer is the same.
        let scorer = ResultScorer::new(&big);
        let keywords = ["widom", "xml"];
        let q = TopKQuery {
            db: &big,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        let pool: ScratchPool<EvalScratch> = ScratchPool::new();
        let run = |workers| {
            let out = parallel_topk_budgeted(
                &q,
                5,
                &ExecStats::new(),
                &Budget::unlimited(),
                workers,
                &pool,
            );
            out.results
                .iter()
                .map(|r| (r.score.to_bits(), r.result.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(workers));
    }

    #[test]
    fn single_core_makespan_is_total_cost() {
        let costs = [3.0, 4.0, 5.0];
        let a = partition_lpt(&costs, 1);
        assert_eq!(a.makespan(), 12.0);
    }
}
