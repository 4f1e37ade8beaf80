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
//! [`JoinPlan`] it derives per CN per query: the evaluator follows its
//! order, rooted where [`estimate_cost`] is least. The executor itself runs
//! one query on one thread.

use crate::cn::CandidateNetwork;
use crate::tupleset::TupleSets;
use kwdb_relational::Database;
use std::collections::{HashMap, HashSet};

/// How [`crate::pexec`] joins one CN: the node placement order (`order[0]`
/// is the root, a keyword node) and, per node, the CN edge that attaches it
/// to an already placed node (`None` for the root) and its position in
/// `order`, which is its row's in a joined chunk.
#[derive(Debug)]
pub struct JoinPlan {
    pub order: Vec<usize>,
    pub join_via: Vec<Option<usize>>,
    pub slot: Vec<usize>,
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
            slot: Vec::new(),
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
    let mut slot = vec![0; n];
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
        slot[v] = order.len();
        order.push(v);
    }
    debug_assert_eq!(order.len(), n, "CN must be connected");
    JoinPlan {
        order,
        join_via,
        slot,
        cost,
    }
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
    fn single_core_makespan_is_total_cost() {
        let costs = [3.0, 4.0, 5.0];
        let a = partition_lpt(&costs, 1);
        assert_eq!(a.makespan(), 12.0);
    }
}
