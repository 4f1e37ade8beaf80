//! CN evaluation: turn a candidate network into joined tuple trees.

use crate::cn::CandidateNetwork;
use crate::tupleset::TupleSets;
use kwdb_relational::join::{hash_join, seed};
use kwdb_relational::{Database, ExecStats, RowId, TupleId};

/// One result of a CN: a joining tree of tuples, aligned with the CN's
/// node order (`tuples[i]` instantiates `cn.nodes[i]`).
///
/// `Ord` gives results a content-based total order, which the executor
/// uses to break score ties deterministically.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinedResult {
    pub tuples: Vec<TupleId>,
}

/// Evaluate `cn` fully: free nodes range over their whole table, non-free
/// nodes over their tuple set.
pub fn evaluate_cn(
    db: &Database,
    cn: &CandidateNetwork,
    ts: &TupleSets,
    stats: &ExecStats,
) -> Vec<JoinedResult> {
    evaluate_cn_with(db, cn, &|i| default_rows(db, cn, ts, i), stats)
}

/// Rows a CN node ranges over by default: the free set `R^∅` for free
/// nodes (exact-partition semantics), the tuple set otherwise.
pub fn default_rows(
    db: &Database,
    cn: &CandidateNetwork,
    ts: &TupleSets,
    node: usize,
) -> Vec<RowId> {
    let n = cn.nodes[node];
    if n.mask == 0 {
        ts.free_rows(db, n.table)
    } else {
        ts.get(n.table, n.mask)
            .map(|s| s.rows.clone())
            .unwrap_or_default()
    }
}

/// Row count of [`default_rows`] without materializing anything — the
/// cost model and scheduler only need sizes.
pub fn default_row_count(
    db: &Database,
    cn: &CandidateNetwork,
    ts: &TupleSets,
    node: usize,
) -> usize {
    let n = cn.nodes[node];
    if n.mask == 0 {
        ts.free_row_count(db, n.table)
    } else {
        ts.get(n.table, n.mask).map_or(0, |s| s.rows.len())
    }
}

/// Evaluate with per-node row restrictions (the pipelined executors narrow
/// nodes to score-ordered prefixes or single tuples).
pub fn evaluate_cn_with(
    db: &Database,
    cn: &CandidateNetwork,
    rows_of: &dyn Fn(usize) -> Vec<RowId>,
    stats: &ExecStats,
) -> Vec<JoinedResult> {
    let n = cn.nodes.len();
    if n == 0 {
        return Vec::new();
    }
    // BFS placement order from node 0.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n]; // edge indices
    for (ei, e) in cn.edges.iter().enumerate() {
        adj[e.a].push(ei);
        adj[e.b].push(ei);
    }
    let mut order = vec![0usize];
    let mut join_via: Vec<Option<usize>> = vec![None; n]; // edge used to attach
    let mut placed = vec![false; n];
    placed[0] = true;
    let mut qi = 0;
    while qi < order.len() {
        let u = order[qi];
        qi += 1;
        for &ei in &adj[u] {
            let e = &cn.edges[ei];
            let v = if e.a == u { e.b } else { e.a };
            if !placed[v] {
                placed[v] = true;
                join_via[v] = Some(ei);
                order.push(v);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "CN must be connected");

    // slot position of each node in the intermediate result
    let mut slot = vec![0usize; n];
    for (s, &node) in order.iter().enumerate() {
        slot[node] = s;
    }

    let first_rows = rows_of(order[0]);
    stats.add_scanned(first_rows.len() as u64);
    let mut inter = seed(&first_rows);
    for &node in order.iter().skip(1) {
        if inter.is_empty() {
            break;
        }
        let ei = join_via[node].expect("non-root placed via an edge");
        let e = &cn.edges[ei];
        let parent = if e.a == node { e.b } else { e.a };
        let se = &db.schema_graph().edges()[e.schema_edge];
        // column on each side: FK side uses fk_column, PK side pk_column
        let (parent_col, node_col) = if e.from_side_is(parent) {
            (se.fk_column, se.pk_column)
        } else {
            (se.pk_column, se.fk_column)
        };
        let rows = rows_of(node);
        inter = hash_join(
            &inter,
            slot[parent],
            db.table(cn.nodes[parent].table),
            parent_col,
            db.table(cn.nodes[node].table),
            &rows,
            node_col,
            stats,
        );
    }

    inter
        .into_iter()
        .map(|row_ids| {
            // reorder slots back to CN node order
            let mut tuples = vec![TupleId::new(cn.nodes[0].table, RowId(0)); n];
            for (s, &node) in order.iter().enumerate() {
                tuples[node] = TupleId::new(cn.nodes[node].table, row_ids[s]);
            }
            JoinedResult { tuples }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::{CnEdge, CnNode};
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
        db.insert(
            "paper",
            vec![10.into(), "XML keyword search".into(), 1.into()],
        )
        .unwrap();
        db.insert("paper", vec![11.into(), "Data on the Web".into(), 1.into()])
            .unwrap();
        db.insert("write", vec![100.into(), 1.into(), 10.into()])
            .unwrap();
        db.insert("write", vec![101.into(), 2.into(), 11.into()])
            .unwrap();
        db.insert("write", vec![102.into(), 2.into(), 10.into()])
            .unwrap();
        db.build_text_index();
        db
    }

    /// author^{widom} — write — paper^{xml}
    fn awp_cn(db: &Database) -> CandidateNetwork {
        let a = db.table_id("author").unwrap();
        let p = db.table_id("paper").unwrap();
        let w = db.table_id("write").unwrap();
        let edges = db.schema_graph().edges();
        let se_wa = edges.iter().position(|e| e.from == w && e.to == a).unwrap();
        let se_wp = edges.iter().position(|e| e.from == w && e.to == p).unwrap();
        CandidateNetwork {
            nodes: vec![
                CnNode {
                    table: a,
                    mask: 0b01,
                },
                CnNode { table: w, mask: 0 },
                CnNode {
                    table: p,
                    mask: 0b10,
                },
            ],
            edges: vec![
                CnEdge {
                    a: 1,
                    b: 0,
                    schema_edge: se_wa,
                    a_is_from: true,
                },
                CnEdge {
                    a: 1,
                    b: 2,
                    schema_edge: se_wp,
                    a_is_from: true,
                },
            ],
        }
    }

    #[test]
    fn evaluates_joining_trees() {
        let db = db();
        let ts = TupleSets::build(&db, &["widom", "xml"]).unwrap();
        let cn = awp_cn(&db);
        let stats = ExecStats::new();
        let res = evaluate_cn(&db, &cn, &ts, &stats);
        // Widom wrote paper 10 (xml): exactly one joining tree.
        assert_eq!(res.len(), 1);
        let r = &res[0];
        assert_eq!(db.format_tuple(r.tuples[0]), "author(1, Jennifer Widom)");
        assert!(db.format_tuple(r.tuples[2]).contains("XML"));
        assert!(stats.snapshot().joins_executed >= 2);
    }

    #[test]
    fn empty_tuple_set_gives_no_results() {
        let db = db();
        let ts = TupleSets::build(&db, &["widom", "zzzz"]).unwrap();
        let cn = awp_cn(&db); // masks won't exist in ts
        let stats = ExecStats::new();
        let res = evaluate_cn(&db, &cn, &ts, &stats);
        assert!(res.is_empty());
    }

    #[test]
    fn row_restriction_narrows_results() {
        let db = db();
        let ts = TupleSets::build(&db, &["abiteboul", "xml"]).unwrap();
        // author^{abiteboul} — W — paper^{xml}: Abiteboul co-wrote paper 10
        let cn = awp_cn(&db);
        let stats = ExecStats::new();
        let all = evaluate_cn(&db, &cn, &ts, &stats);
        assert_eq!(all.len(), 1);
        // restrict the write node to row 0 only → no join
        let restricted = evaluate_cn_with(
            &db,
            &cn,
            &|i| {
                if i == 1 {
                    vec![RowId(0)]
                } else {
                    default_rows(&db, &cn, &ts, i)
                }
            },
            &stats,
        );
        assert!(restricted.is_empty());
    }

    #[test]
    fn self_join_cn_two_papers_one_author() {
        // paper^{xml} ← W → author^{abiteboul} ← W → paper^{web}
        let db = db();
        let ts = TupleSets::build(&db, &["xml", "abiteboul", "web"]).unwrap();
        let a = db.table_id("author").unwrap();
        let p = db.table_id("paper").unwrap();
        let w = db.table_id("write").unwrap();
        let edges = db.schema_graph().edges();
        let se_wa = edges.iter().position(|e| e.from == w && e.to == a).unwrap();
        let se_wp = edges.iter().position(|e| e.from == w && e.to == p).unwrap();
        let cn = CandidateNetwork {
            nodes: vec![
                CnNode {
                    table: p,
                    mask: 0b001,
                }, // xml
                CnNode { table: w, mask: 0 },
                CnNode {
                    table: a,
                    mask: 0b010,
                }, // abiteboul
                CnNode { table: w, mask: 0 },
                CnNode {
                    table: p,
                    mask: 0b100,
                }, // web
            ],
            edges: vec![
                CnEdge {
                    a: 1,
                    b: 0,
                    schema_edge: se_wp,
                    a_is_from: true,
                },
                CnEdge {
                    a: 1,
                    b: 2,
                    schema_edge: se_wa,
                    a_is_from: true,
                },
                CnEdge {
                    a: 3,
                    b: 2,
                    schema_edge: se_wa,
                    a_is_from: true,
                },
                CnEdge {
                    a: 3,
                    b: 4,
                    schema_edge: se_wp,
                    a_is_from: true,
                },
            ],
        };
        let stats = ExecStats::new();
        let res = evaluate_cn(&db, &cn, &ts, &stats);
        // Abiteboul wrote both paper 10 (xml) and 11 (web): one tree.
        assert_eq!(res.len(), 1);
        let r = &res[0];
        assert_ne!(r.tuples[1], r.tuples[3], "two distinct write tuples");
        assert_ne!(r.tuples[0], r.tuples[4]);
    }
}
