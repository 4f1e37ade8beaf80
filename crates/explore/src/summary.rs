//! Size-*l* object summaries: présentation of a result as a bounded
//! FK-neighborhood (tutorial slides 143–148; précis-style answers).
//!
//! A joining tree of tuples is a correct answer but a poor *presentation*:
//! the `write(wid, aid, pid)` junction row in the middle of an
//! author ⋈ write ⋈ paper tree carries no user-facing information, while
//! the conference the paper appeared at — one FK hop *outside* the tree —
//! often does. A size-*l* object summary starts from the result's own
//! tuples and grows outward along foreign keys, breadth-first, until *l*
//! tuples are collected: the result plus the most closely-joined context
//! around it.
//!
//! Expansion is *bidirectional*: a frontier tuple pulls in the tuples it
//! references and the tuples referencing it — an author's context is its
//! papers just as a paper's context is its conference. Both hops read the
//! database's FK index ([`Database::referenced_row`],
//! [`Database::referencing_rows`]): a hop costs what it returns, never a
//! pass over a table. The expansion is deterministic — seeds in result
//! order, then outgoing-FK order, then incoming edges in schema order with
//! referencing rows in row order — so the same hit always summarizes
//! identically regardless of thread or worker count, and of whether the
//! rows were bulk-loaded or ingested.

use kwdb_relational::{Database, TupleId};
use std::collections::{HashSet, VecDeque};

/// Tuples one FK hop from `t`, in either direction, deterministically
/// ordered: referenced tuples first, then referencing tuples.
fn fk_both_directions(db: &Database, t: TupleId) -> Vec<TupleId> {
    let edges = db.schema_graph().edges();
    let mut out = Vec::new();
    for (ei, e) in edges.iter().enumerate().filter(|(_, e)| e.from == t.table) {
        out.extend(db.referenced_row(ei, t.row).map(|r| TupleId::new(e.to, r)));
    }
    for (ei, e) in edges.iter().enumerate().filter(|(_, e)| e.to == t.table) {
        let start = out.len();
        out.extend(
            db.referencing_rows(ei, t.row)
                .map(|r| TupleId::new(e.from, r)),
        );
        // A chain reads newest-first once rows were ingested into it.
        out[start..].sort_unstable();
    }
    out
}

/// The size-*l* FK-neighborhood of `seeds`: the seed tuples themselves
/// (deduplicated, in order) followed by breadth-first FK expansion, cut to
/// at most `l` tuples. `l == 0` returns the empty summary; `l` smaller than
/// the seed count truncates the seeds themselves.
///
/// Needs what a query needs: a fresh index on `db` (the FK index is built
/// and maintained with the text index, and a hit's tuples come from one),
/// and live seeds.
pub fn object_summary(db: &Database, seeds: &[TupleId], l: usize) -> Vec<TupleId> {
    let mut out: Vec<TupleId> = Vec::with_capacity(l.min(seeds.len() + 8));
    let mut seen: HashSet<TupleId> = HashSet::new();
    let mut frontier: VecDeque<TupleId> = VecDeque::new();
    for &t in seeds {
        if out.len() >= l {
            return out;
        }
        if seen.insert(t) {
            out.push(t);
            frontier.push_back(t);
        }
    }
    while out.len() < l {
        let Some(t) = frontier.pop_front() else {
            break;
        };
        for n in fk_both_directions(db, t) {
            if out.len() >= l {
                break;
            }
            if seen.insert(n) {
                out.push(n);
                frontier.push_back(n);
            }
        }
    }
    out
}

/// Render a summary's tuples as `table(v, …)` lines via
/// [`Database::format_tuple`].
pub fn render_summary(db: &Database, tuples: &[TupleId]) -> Vec<String> {
    tuples.iter().map(|&t| db.format_tuple(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_relational::database::dblp_schema;

    /// conference SIGMOD ← paper p1 ← write w1 ← author alice, plus an
    /// unrelated paper p2.
    fn db() -> (Database, TupleId, TupleId) {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        let p1 = db
            .insert("paper", vec![10.into(), "keyword search".into(), 1.into()])
            .unwrap();
        db.insert("author", vec![100.into(), "alice".into()])
            .unwrap();
        let w1 = db
            .insert("write", vec![1000.into(), 100.into(), 10.into()])
            .unwrap();
        db.insert("paper", vec![11.into(), "other topic".into(), 1.into()])
            .unwrap();
        db.build_text_index();
        (db, p1, w1)
    }

    #[test]
    fn summary_starts_at_seeds_and_expands_by_fk() {
        let (db, p1, w1) = db();
        let sum = object_summary(&db, &[p1, w1], 4);
        assert_eq!(sum.len(), 4);
        assert_eq!(&sum[..2], &[p1, w1], "seeds come first, in order");
        // the FK frontier of {paper, write} is {conference, author}
        let rendered = render_summary(&db, &sum).join("\n");
        assert!(rendered.contains("SIGMOD"));
        assert!(rendered.contains("alice"));
        assert!(!rendered.contains("other topic"), "p2 is 2 hops away");
    }

    #[test]
    fn size_bound_is_exact_and_zero_is_empty() {
        let (db, p1, _) = db();
        assert!(object_summary(&db, &[p1], 0).is_empty());
        assert_eq!(object_summary(&db, &[p1], 1), vec![p1]);
        // l larger than the connected component stops at the component
        let all = object_summary(&db, &[p1], 100);
        assert!(all.len() >= 4 && all.len() < 100);
    }

    #[test]
    fn duplicate_seeds_collapse() {
        let (db, p1, _) = db();
        let sum = object_summary(&db, &[p1, p1, p1], 2);
        assert_eq!(sum[0], p1);
        assert_eq!(sum.iter().filter(|&&t| t == p1).count(), 1);
    }
}
