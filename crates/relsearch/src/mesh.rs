//! Shared execution across candidate networks — the operator mesh
//! (Markowetz et al., SIGMOD 07) and SPARK2's partition graph
//! (Luo et al., TKDE 11). Tutorial slides 134–135.
//!
//! CNs generated for one query overlap heavily: `A^{k1}–W–P^{k2}` is a
//! subtree of `A^{k1}–W–P^{k2}–W–A` and of dozens of larger networks. The
//! mesh executor evaluates each *distinct canonical subtree* once:
//! bottom-up semi-joins compute, per subtree, the set of root rows that can
//! actually anchor the subtree, memoized by the subtree's canonical code.
//! Two payoffs, both measured by E23:
//!
//! * **pruning** — a CN containing an empty sub-CN is skipped entirely
//!   (SPARK2's partition-graph rule);
//! * **sharing** — semi-join work for repeated subtrees is paid once.

use crate::cn::CandidateNetwork;
use crate::eval::{default_rows, evaluate_cn_with, JoinedResult};
use crate::tupleset::TupleSets;
use kwdb_relational::join::semi_join;
use kwdb_relational::{Database, ExecStats, RowId};
use std::collections::HashMap;
use std::rc::Rc;

/// Sharing metrics from one mesh run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Distinct subtrees whose semi-join chain was computed.
    pub subtrees_computed: usize,
    /// Subtree evaluations answered from the cache.
    pub cache_hits: usize,
    /// CNs skipped because a subtree pruned to empty.
    pub cns_pruned: usize,
}

/// Evaluate all `cns`, sharing subtree semi-join work. Returns per-CN
/// results identical to independent evaluation.
pub fn evaluate_shared(
    db: &Database,
    ts: &TupleSets,
    cns: &[CandidateNetwork],
    stats: &ExecStats,
) -> (Vec<Vec<JoinedResult>>, MeshStats) {
    let mut cache: HashMap<String, Rc<Vec<RowId>>> = HashMap::new();
    let mut mesh = MeshStats::default();
    let mut out = Vec::with_capacity(cns.len());
    for cn in cns {
        // prune each node's rows to those that can anchor their subtree
        // (rooted at node 0)
        let mut pruned: Vec<Option<Rc<Vec<RowId>>>> = vec![None; cn.nodes.len()];
        let ok = prune_subtree(
            db,
            ts,
            cn,
            0,
            usize::MAX,
            &mut pruned,
            &mut cache,
            &mut mesh,
            stats,
        );
        if !ok {
            mesh.cns_pruned += 1;
            out.push(Vec::new());
            continue;
        }
        let results = evaluate_cn_with(
            db,
            cn,
            &|node| {
                pruned[node]
                    .as_ref()
                    .map(|r| r.as_ref().clone())
                    .unwrap_or_else(|| default_rows(db, cn, ts, node))
            },
            stats,
        );
        out.push(results);
    }
    (out, mesh)
}

/// Compute (and cache) the set of `node` rows that can anchor the subtree of
/// `node` away from `parent`. Returns false if any subtree is empty.
#[allow(clippy::too_many_arguments)]
fn prune_subtree(
    db: &Database,
    ts: &TupleSets,
    cn: &CandidateNetwork,
    node: usize,
    parent: usize,
    pruned: &mut Vec<Option<Rc<Vec<RowId>>>>,
    cache: &mut HashMap<String, Rc<Vec<RowId>>>,
    mesh: &mut MeshStats,
    stats: &ExecStats,
) -> bool {
    // children of `node` away from `parent`
    let children: Vec<(usize, usize)> = cn
        .edges
        .iter()
        .enumerate()
        .filter_map(|(ei, e)| {
            if e.a == node && e.b != parent {
                Some((e.b, ei))
            } else if e.b == node && e.a != parent {
                Some((e.a, ei))
            } else {
                None
            }
        })
        .collect();
    // recurse first so children's pruned rows exist
    for &(c, _) in &children {
        if !prune_subtree(db, ts, cn, c, node, pruned, cache, mesh, stats) {
            return false;
        }
    }
    let key = cn.subtree_code(node, parent, &mut |_| {});
    if let Some(rows) = cache.get(&key) {
        mesh.cache_hits += 1;
        pruned[node] = Some(rows.clone());
        return !rows.is_empty();
    }
    mesh.subtrees_computed += 1;
    let mut rows = default_rows(db, cn, ts, node);
    for (c, ei) in children {
        let e = &cn.edges[ei];
        let se = &db.schema_graph().edges()[e.schema_edge];
        let (node_col, child_col) = if e.from_side_is(node) {
            (se.fk_column, se.pk_column)
        } else {
            (se.pk_column, se.fk_column)
        };
        let child_rows = pruned[c].as_ref().expect("child recursed");
        rows = semi_join(
            db.table(cn.nodes[node].table),
            &rows,
            node_col,
            db.table(cn.nodes[c].table),
            child_rows,
            child_col,
            stats,
        );
        if rows.is_empty() {
            break;
        }
    }
    let rows = Rc::new(rows);
    cache.insert(key, rows.clone());
    pruned[node] = Some(rows.clone());
    !rows.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::{CnGenConfig, CnGenerator, MaskOracle};
    use crate::eval::evaluate_cn;
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
        for (pid, title) in [(10, "XML keyword search"), (11, "Data on the Web")] {
            db.insert("paper", vec![pid.into(), title.into(), 1.into()])
                .unwrap();
        }
        for (wid, aid, pid) in [(100, 1, 10), (101, 2, 11), (102, 2, 10)] {
            db.insert("write", vec![wid.into(), aid.into(), pid.into()])
                .unwrap();
        }
        db.build_text_index();
        db
    }

    fn cns(db: &Database, kws: &[&str], max_size: usize) -> (TupleSets, Vec<CandidateNetwork>) {
        let ts = TupleSets::build(db, kws).unwrap();
        let oracle = MaskOracle::from_tuplesets(&ts);
        let mut g = CnGenerator::new(
            db.schema_graph(),
            &oracle,
            CnGenConfig {
                max_size,
                dedupe: true,
                max_cns: 0,
            },
        );
        let list = g.generate();
        (ts, list)
    }

    #[test]
    fn shared_results_match_independent_evaluation() {
        let db = db();
        let (ts, list) = cns(&db, &["widom", "xml"], 5);
        let s1 = ExecStats::new();
        let (shared, _) = evaluate_shared(&db, &ts, &list, &s1);
        let s2 = ExecStats::new();
        for (cn, got) in list.iter().zip(&shared) {
            let mut expect = evaluate_cn(&db, cn, &ts, &s2);
            let mut got = got.clone();
            expect.sort_by(|a, b| a.tuples.cmp(&b.tuples));
            got.sort_by(|a, b| a.tuples.cmp(&b.tuples));
            assert_eq!(expect, got);
        }
    }

    #[test]
    fn cache_hits_occur_with_overlapping_cns() {
        let db = db();
        let (ts, list) = cns(&db, &["widom", "xml"], 5);
        assert!(list.len() > 3, "need several CNs to share among");
        let stats = ExecStats::new();
        let (_, mesh) = evaluate_shared(&db, &ts, &list, &stats);
        assert!(mesh.cache_hits > 0, "expected shared subtrees: {mesh:?}");
    }

    #[test]
    fn empty_subtree_prunes_cn() {
        let db = db();
        // "web" exists only in paper 11 which Abiteboul wrote; "widom" exists
        // only in author 1 — CNs needing a widom-author of a web-paper prune.
        let (ts, list) = cns(&db, &["widom", "web"], 5);
        let stats = ExecStats::new();
        let (results, mesh) = evaluate_shared(&db, &ts, &list, &stats);
        // at least one CN yields nothing and some still yield answers
        assert!(results.iter().any(|r| r.is_empty()));
        assert!(results.iter().any(|r| !r.is_empty()));
        let _ = mesh;
    }

    #[test]
    fn subtree_code_distinguishes_orientation() {
        let db = db();
        let (_, list) = cns(&db, &["widom", "xml"], 5);
        // codes of all whole-CN subtrees must be pairwise distinct for
        // distinct CNs rooted at node 0 only when shapes differ; at minimum,
        // no two different-size CNs share a code
        let mut by_code: HashMap<String, usize> = HashMap::new();
        for cn in &list {
            let code = cn.subtree_code(0, usize::MAX, &mut |_| {});
            if let Some(&sz) = by_code.get(&code) {
                assert_eq!(sz, cn.size(), "same code for different-size CNs");
            }
            by_code.insert(code, cn.size());
        }
    }
}
