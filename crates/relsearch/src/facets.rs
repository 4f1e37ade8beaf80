//! Facet counting by count propagation over the CN tree, and drill-down
//! refinement as a restriction on the CN.
//!
//! Faceted search annotates a keyword query's *full result multiset* with
//! per-attribute value distributions. The exact-subset tuple-set partition
//! makes this well-defined: a joining tree matches exactly one CN, so the
//! union of all CN results is duplicate-free and the facet counts are a
//! property of the query, not of the execution strategy.
//!
//! The counting rule: for each result and each requested facet, every tuple
//! of the facet's table occurring in the result contributes its column value
//! once. Results without a tuple of that table contribute nothing. So a
//! facet value's count is a sum, over the nodes of the facet's table and
//! their rows, of *how many results hold that row at that node* — and a CN
//! is a tree, an acyclic join, where that number is a product of per-subtree
//! counts computable without enumerating a result. [`count_facets`] does
//! exactly this (Yannakakis-style): root the CN at the facet node, send each
//! subtree's `row → number of sub-results` message up the edges through the
//! FK index, multiply at each node. Its cost is linear in the tuple sets and
//! the FK chains walked; the join output never exists. The top-k hits come
//! from [`crate::pexec`]'s one pruned loop, facets or not.
//!
//! A [`Refinement`] is the drill-down half: a predicate over a facet
//! attribute that a result passes when *some* tuple of the attribute's table
//! in it matches. It is not part of the CN plan — the plan depends only on
//! schema and keywords, so a refined query hits the CN plan cache — but it
//! is part of the CN *as evaluated*: [`restrictions`] turns the request's
//! refinements into per-node "must match / must not match" literals, which
//! the join and the count pass both apply to a node's rows as they meet
//! them. A CN without a node of a refined table is dropped before any work.
//!
//! [`result_passes`] and [`FacetAccum::observe`] state the two rules over a
//! materialized result; tests use them as the oracle, no request path does.

use crate::cn::{CandidateNetwork, CnEdge};
use crate::eval::JoinedResult;
use crate::pexec::EvalScratch;
use crate::tupleset::{position, TupleSets, NIL};
use kwdb_common::{Budget, FacetCount, FacetCounts, FacetSpec, Result, Value};
use kwdb_relational::{Database, ExecStats, RowId, Table, TableId};
use std::borrow::Cow;
use std::collections::HashMap;

/// A facet spec resolved against a schema: `"table.column"` → ids, done once
/// per query so reading a row's facet value is two array indexes.
#[derive(Debug, Clone)]
pub struct ResolvedFacet {
    pub spec: FacetSpec,
    pub table: TableId,
    pub col: usize,
}

/// Resolve every requested facet, rejecting unknown attributes up front.
pub fn resolve_facets(db: &Database, specs: &[FacetSpec]) -> Result<Vec<ResolvedFacet>> {
    specs
        .iter()
        .map(|spec| {
            let (table, col) = db.resolve_attr(spec.attr())?;
            Ok(ResolvedFacet {
                spec: spec.clone(),
                table,
                col,
            })
        })
        .collect()
}

/// One drill-down predicate over a facet attribute. A result passes when it
/// contains at least one tuple of the attribute's table whose column value
/// matches — the same membership test that made the result count toward that
/// facet value in the first place.
#[derive(Debug, Clone, PartialEq)]
pub enum Refinement {
    /// Keep results with a tuple whose column renders as `value` (what a
    /// terms-facet click sends back).
    Term { attr: String, value: String },
    /// Keep results with a tuple whose numeric column falls in `[lo, hi)`
    /// (what a range-bucket click sends back).
    Range { attr: String, lo: f64, hi: f64 },
}

impl Refinement {
    pub fn attr(&self) -> &str {
        match self {
            Refinement::Term { attr, .. } | Refinement::Range { attr, .. } => attr,
        }
    }
}

/// A refinement resolved against the schema.
#[derive(Debug, Clone)]
pub struct ResolvedRefinement {
    pub refinement: Refinement,
    pub table: TableId,
    pub col: usize,
}

/// Resolve every refinement, rejecting unknown attributes up front.
pub fn resolve_refinements(db: &Database, refs: &[Refinement]) -> Result<Vec<ResolvedRefinement>> {
    refs.iter()
        .map(|r| {
            let (table, col) = db.resolve_attr(r.attr())?;
            Ok(ResolvedRefinement {
                refinement: r.clone(),
                table,
                col,
            })
        })
        .collect()
}

/// Whether `v` displays as exactly `text`, decided while formatting: the
/// formatter's pieces are matched off the front of `text` as they come, so
/// nothing is allocated (this runs per row a refined node meets).
fn renders_as(v: &Value, text: &str) -> bool {
    use std::fmt::Write;
    struct Rest<'a>(&'a str);
    impl Write for Rest<'_> {
        fn write_str(&mut self, piece: &str) -> std::fmt::Result {
            self.0 = self.0.strip_prefix(piece).ok_or(std::fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(text);
    write!(rest, "{v}").is_ok() && rest.0.is_empty()
}

fn value_matches(v: &Value, refinement: &Refinement) -> bool {
    match refinement {
        Refinement::Term { value, .. } => match v {
            Value::Null => false,
            Value::Text(s) => s == value,
            v => renders_as(v, value),
        },
        Refinement::Range { lo, hi, .. } => v.as_f64().is_some_and(|x| x >= *lo && x < *hi),
    }
}

/// Whether `r` satisfies *all* refinements (drill-downs compose as AND): the
/// rule [`restrictions`] compiles into the CN, stated over a materialized
/// result. The test oracle.
pub fn result_passes(db: &Database, refs: &[ResolvedRefinement], r: &JoinedResult) -> bool {
    refs.iter().all(|rf| {
        r.tuples.iter().any(|t| {
            t.table == rf.table
                && value_matches(db.table(rf.table).get(t.row, rf.col), &rf.refinement)
        })
    })
}

/// One literal of a restricted CN: the row at `node` must match
/// `refinement` (`wanted`) or must not.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Literal<'a> {
    node: usize,
    refinement: &'a ResolvedRefinement,
    wanted: bool,
}

/// Whether `row` of `table` satisfies every one of a node's `literals`.
pub(crate) fn admits(table: &Table, literals: &[Literal<'_>], row: RowId) -> bool {
    literals.iter().all(|l| {
        let v = table.get(row, l.refinement.col);
        value_matches(v, &l.refinement.refinement) == l.wanted
    })
}

/// A conjunction of "the row at node *n* must (not) match refinement *r*"
/// literals over a CN's nodes: one of the disjoint cases [`restrictions`]
/// splits a refined CN into. The default is the unrestricted CN.
#[derive(Debug, Clone, Default)]
pub struct Restriction<'a> {
    /// Sorted by node.
    literals: Vec<Literal<'a>>,
}

impl<'a> Restriction<'a> {
    /// The literals a row at `node` must satisfy.
    pub(crate) fn on(&self, node: usize) -> &[Literal<'a>] {
        let lo = self.literals.partition_point(|l| l.node < node);
        let hi = self.literals.partition_point(|l| l.node <= node);
        &self.literals[lo..hi]
    }
}

/// `cn` under `refinements`, as disjoint restricted CNs whose results
/// together are exactly `cn`'s results that [`result_passes`] keeps. A
/// result passes a refinement when *some* node of the refined table holds a
/// matching row, so a refinement whose table occurs at `m` nodes splits
/// every case so far into `m`: "node *i* matches and no such node before it
/// does". No refinements: the one unrestricted case. A refined table that
/// occurs nowhere in `cn`: no case — nothing of `cn` can pass.
pub fn restrictions<'a>(
    cn: &CandidateNetwork,
    refinements: &'a [ResolvedRefinement],
) -> Vec<Restriction<'a>> {
    let mut cases = vec![Restriction::default()];
    for refinement in refinements {
        let nodes: Vec<usize> = (0..cn.nodes.len())
            .filter(|&v| cn.nodes[v].table == refinement.table)
            .collect();
        cases = cases
            .iter()
            .flat_map(|case| {
                let nodes = &nodes;
                (0..nodes.len()).map(move |i| {
                    let mut literals = case.literals.clone();
                    literals.extend(nodes[..=i].iter().map(|&node| Literal {
                        node,
                        refinement,
                        wanted: node == nodes[i],
                    }));
                    literals.sort_by_key(|l| l.node);
                    Restriction { literals }
                })
            })
            .collect();
    }
    cases
}

/// What a faceted request asks of the evaluators: the resolved facets
/// [`count_facets`] counts and the refinements both it and the executor
/// restrict every CN by. Empty (no facets, no refinements) is a plain
/// request.
#[derive(Debug, Clone, Copy)]
pub struct FacetRequest<'a> {
    pub facets: &'a [ResolvedFacet],
    pub refinements: &'a [ResolvedRefinement],
}

/// A facet-count accumulator: per requested facet, the `(value, count)`
/// pairs added to it — by [`count_facets`] one per distinct row, by
/// [`observe`](Self::observe) one per tuple. Nothing is merged, hashed or
/// copied until [`FacetAccum::finish`] shapes the response.
#[derive(Debug, Default)]
pub struct FacetAccum<'a> {
    counters: Vec<Vec<(&'a Value, u64)>>,
}

impl<'a> FacetAccum<'a> {
    pub fn new(n_facets: usize) -> Self {
        FacetAccum {
            counters: vec![Vec::new(); n_facets],
        }
    }

    /// Count one materialized result by the counting rule: every tuple of
    /// each facet's table contributes its column value once. The test
    /// oracle for [`count_facets`].
    pub fn observe(&mut self, db: &'a Database, facets: &[ResolvedFacet], r: &JoinedResult) {
        for (fi, f) in facets.iter().enumerate() {
            for t in r.tuples.iter().filter(|t| t.table == f.table) {
                self.counters[fi].push((db.table(f.table).get(t.row, f.col), 1));
            }
        }
    }

    /// Finalize into response-shaped [`FacetCounts`], one per requested
    /// facet, in request order. NULL is no facet value; sums saturate.
    pub fn finish(self, facets: &[ResolvedFacet]) -> Vec<FacetCounts> {
        let counters = self
            .counters
            .into_iter()
            .chain(std::iter::repeat(Vec::new()));
        facets
            .iter()
            .zip(counters)
            .map(|(f, pairs)| match &f.spec {
                FacetSpec::Terms { attr, top_n } => {
                    // Merge by rendered value: distinct `Value`s that display
                    // identically (Int(2) vs Text("2")) are one facet value.
                    let mut by_text: HashMap<Cow<'_, str>, u64> =
                        HashMap::with_capacity(pairs.len());
                    for (v, c) in pairs.into_iter().filter(|(v, _)| !v.is_null()) {
                        let text = match v {
                            Value::Text(s) => Cow::Borrowed(s.as_str()),
                            v => Cow::Owned(v.to_string()),
                        };
                        let count = by_text.entry(text).or_insert(0);
                        *count = count.saturating_add(c);
                    }
                    let mut values: Vec<(Cow<'_, str>, u64)> = by_text.into_iter().collect();
                    values.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                    values.truncate(*top_n);
                    FacetCounts {
                        attr: attr.clone(),
                        values: (values.into_iter())
                            .map(|(value, count)| FacetCount {
                                value: value.into_owned(),
                                count,
                            })
                            .collect(),
                    }
                }
                FacetSpec::Range { attr, buckets } => {
                    let values = buckets
                        .iter()
                        .map(|b| FacetCount {
                            value: b.label.clone(),
                            count: (pairs.iter())
                                .filter(|(v, _)| v.as_f64().is_some_and(|x| b.contains(x)))
                                .fold(0, |sum: u64, (_, c)| sum.saturating_add(*c)),
                        })
                        .collect();
                    FacetCounts {
                        attr: attr.clone(),
                        values,
                    }
                }
            })
            .collect()
    }
}

/// A count-pass message: `count[row]` sub-results per row of one table, and
/// `rows`, exactly the rows whose count is not 0. The dense array outlives
/// the message in a [`CountScratch`], all zero between uses: a message
/// resets what it touched (the `group_head` idiom of [`crate::pexec`]).
#[derive(Debug, Default)]
struct Message {
    count: Vec<u64>,
    rows: Vec<RowId>,
}

impl Message {
    fn add(&mut self, row: RowId, n: u64) {
        let slot = &mut self.count[row.0 as usize];
        if *slot == 0 {
            self.rows.push(row);
        }
        *slot = slot.saturating_add(n);
    }

    /// Keep the rows `keep` accepts with their count scaled by what it
    /// returns (a row scaled to 0 goes too).
    fn scale(&mut self, mut keep: impl FnMut(RowId) -> Option<u64>) {
        let count = &mut self.count;
        self.rows.retain(|&row| {
            let slot = &mut count[row.0 as usize];
            *slot = keep(row).map_or(0, |n| slot.saturating_mul(n));
            *slot != 0
        });
    }
}

/// The count pass's pooled buffers (one lives in every [`EvalScratch`]):
/// dense `u64`-per-row arrays, one per tree level in flight, every entry 0
/// between uses.
#[derive(Debug, Default)]
pub struct CountScratch {
    free: Vec<Message>,
}

impl CountScratch {
    /// An empty message over a table of `len` rows.
    fn take(&mut self, len: usize) -> Message {
        let mut m = self.free.pop().unwrap_or_default();
        if m.count.len() < len {
            m.count.resize(len, 0);
        }
        m
    }

    fn give(&mut self, mut m: Message) {
        for row in m.rows.drain(..) {
            m.count[row.0 as usize] = 0;
        }
        self.free.push(m);
    }
}

/// What [`count_facets`] found and what it cost.
#[derive(Debug, Default)]
pub struct FacetTally<'a> {
    /// The counts; [`FacetAccum::finish`] shapes them for the response.
    pub counts: FacetAccum<'a>,
    /// A deadline cut the pass short and `counts` is partial. Nothing else
    /// does: a candidate cap bounds joins, and the pass makes none.
    pub cut: bool,
    /// CNs counted, in every case their refinements split them into.
    pub cns_counted: u64,
    /// CNs without a node of any facet's table: nothing to count, no cost.
    pub cns_skipped_no_facet_node: u64,
    /// CNs without a node of some refined table: no result of theirs passes.
    pub cns_dropped_by_refinement: u64,
    /// Rows in all messages sent.
    pub message_rows: u64,
}

/// The facet counts of `cns`' full result multiset under `freq` — what
/// [`FacetAccum::observe`] would count over every result of every CN that
/// [`result_passes`] keeps — by count propagation, without a join.
///
/// Per restricted CN ([`restrictions`]) and per node `v` of a facet's
/// table: root the tree at `v`; every subtree sends its parent, per parent
/// row, the number of ways that row extends into the subtree; `v`
/// multiplies its children's messages over its own rows, and each row left
/// adds its count to the row's total for `v`'s table. A keyword node's own
/// rows are its tuple set; a free node's are the rows its first message
/// reached that match no query keyword (unmatched in the row array `ts`
/// keeps, the join's free-node test) — never its table. All of it follows
/// the FK index, as the join does, each message through the one [`FkEdge`]
/// it resolves. After the last CN every row with a total hands it to its
/// column value, once, for each facet on its table.
///
/// [`FkEdge`]: kwdb_relational::FkEdge
///
/// [`ExecStats`]: one `join_probes` per message row sent, one
/// `tuples_scanned` per FK chain row visited; no output rows — there are
/// none. `budget`'s deadline is polled between CNs and every 1 024 message
/// rows; its candidate cap does not apply.
pub fn count_facets<'a>(
    db: &'a Database,
    ts: &TupleSets,
    cns: &[CandidateNetwork],
    freq: &FacetRequest<'_>,
    budget: &Budget,
    stats: &ExecStats,
    scratch: &mut EvalScratch,
) -> FacetTally<'a> {
    let tally = FacetTally {
        counts: FacetAccum::new(freq.facets.len()),
        ..FacetTally::default()
    };
    if freq.facets.is_empty() {
        return tally;
    }
    let mut pass = CountPass {
        db,
        ts,
        budget,
        stats,
        scratch: &mut scratch.counts,
        tally,
    };
    // Counts gather per facet *table*, `row → results holding the row at a
    // node of that table`, over all CNs: a row's column values are read
    // once per query, not once per CN the row occurs in.
    let mut tables: Vec<TableId> = freq.facets.iter().map(|f| f.table).collect();
    tables.sort_unstable();
    tables.dedup();
    let mut totals: Vec<Message> = (tables.iter())
        .map(|&t| pass.scratch.take(db.table(t).len()))
        .collect();
    let total_of = |table| tables.iter().position(|&t| t == table);
    'cns: for cn in cns {
        if budget.deadline_exceeded() {
            pass.tally.cut = true;
            break;
        }
        if !cn.nodes.iter().any(|n| total_of(n.table).is_some()) {
            pass.tally.cns_skipped_no_facet_node += 1;
            continue;
        }
        let cases = restrictions(cn, freq.refinements);
        if cases.is_empty() {
            pass.tally.cns_dropped_by_refinement += 1;
            continue;
        }
        pass.tally.cns_counted += 1;
        for case in &cases {
            for (v, node) in cn.nodes.iter().enumerate() {
                let Some(ti) = total_of(node.table) else {
                    continue;
                };
                let at_v = pass.subtree(cn, case, v, None);
                for &row in &at_v.rows {
                    totals[ti].add(row, at_v.count[row.0 as usize]);
                }
                pass.scratch.give(at_v);
                if pass.tally.cut {
                    break 'cns;
                }
            }
        }
    }
    for (&t, total) in tables.iter().zip(totals) {
        let table = db.table(t);
        for (fi, f) in freq.facets.iter().enumerate().filter(|(_, f)| f.table == t) {
            let pairs = (total.rows.iter())
                .map(|&row| (table.get(row, f.col), total.count[row.0 as usize]));
            pass.tally.counts.counters[fi].extend(pairs);
        }
        pass.scratch.give(total);
    }
    pass.tally
}

/// [`count_facets`]' state across CNs: what it reads, what it charges, its
/// buffers and its findings.
struct CountPass<'a, 'd> {
    db: &'d Database,
    ts: &'a TupleSets,
    budget: &'a Budget,
    stats: &'a ExecStats,
    scratch: &'a mut CountScratch,
    tally: FacetTally<'d>,
}

impl CountPass<'_, '_> {
    /// Per row of node `v`: the number of joined sub-results of `v`'s
    /// subtree — everything on `v`'s side of edge `via`, all of `cn` when
    /// `via` is `None` — that hold the row at `v`.
    fn subtree(
        &mut self,
        cn: &CandidateNetwork,
        case: &Restriction<'_>,
        v: usize,
        via: Option<usize>,
    ) -> Message {
        let (db, ts) = (self.db, self.ts);
        let node = cn.nodes[v];
        let literals = case.on(v);
        let table = db.table(node.table);
        let len = table.len();
        // A keyword node's own rows: its tuple set. A free node has none
        // until a child's message names the rows it reached.
        let mut own = (node.mask != 0).then(|| {
            let mut own = self.scratch.take(len);
            let set = ts.get(node.table, node.mask);
            for &row in set.map_or(&[][..], |s| &s.rows) {
                if admits(table, literals, row) {
                    own.add(row, 1);
                }
            }
            own
        });
        for (ei, e) in cn.edges.iter().enumerate() {
            if Some(ei) == via || (e.a != v && e.b != v) || self.tally.cut {
                continue;
            }
            let child = if e.a == v { e.b } else { e.a };
            let below = self.subtree(cn, case, child, Some(ei));
            let mut sent = self.send(below, e, child, len);
            own = Some(match own {
                Some(mut own) => {
                    own.scale(|row| Some(sent.count[row.0 as usize]));
                    self.scratch.give(sent);
                    own
                }
                None => {
                    let map = ts.positions(node.table);
                    sent.scale(|row| {
                        let free = position(map, row) == NIL;
                        (free && admits(table, literals, row)).then_some(1)
                    });
                    sent
                }
            });
        }
        // (`None`: the deadline cut the pass before a free node, which is
        // never a leaf, heard from a child)
        own.unwrap_or_else(|| self.scratch.take(len))
    }

    /// Carry `below` — the subtree counts of node `child` — over edge `e`
    /// to its parent, a table of `parent_len` rows: per parent row, the sum
    /// over its join partners. A child on the referencing side adds each
    /// row's count into the one row it references; under a child on the
    /// referenced side every referencing row takes its count.
    fn send(&mut self, below: Message, e: &CnEdge, child: usize, parent_len: usize) -> Message {
        let mut sent = self.scratch.take(parent_len);
        let edge = self.db.fk_edge(e.schema_edge);
        let mut chain_rows = 0;
        for (i, &row) in below.rows.iter().enumerate() {
            if i % 1024 == 1023 && self.budget.deadline_exceeded() {
                self.tally.cut = true;
                break;
            }
            let n = below.count[row.0 as usize];
            if e.from_side_is(child) {
                // (a NULL foreign key references no row)
                if let Some(parent) = edge.referenced(row) {
                    sent.add(parent, n);
                }
            } else {
                for parent in edge.referencing(row) {
                    chain_rows += 1;
                    sent.add(parent, n);
                }
            }
        }
        self.stats.add_probes(below.rows.len() as u64);
        self.stats.add_scanned(chain_rows);
        self.tally.message_rows += sent.rows.len() as u64;
        self.scratch.give(below);
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_common::RangeBucket;
    use kwdb_relational::database::dblp_schema;
    use kwdb_relational::{RowId, TupleId};

    fn db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        db.insert("conference", vec![2.into(), "VLDB".into(), 1998.into()])
            .unwrap();
        db.insert(
            "paper",
            vec![10.into(), "XML keyword search".into(), 1.into()],
        )
        .unwrap();
        db
    }

    fn result(db: &Database, parts: &[(&str, u32)]) -> JoinedResult {
        JoinedResult {
            tuples: parts
                .iter()
                .map(|(t, r)| TupleId::new(db.table_id(t).unwrap(), RowId(*r)))
                .collect(),
        }
    }

    #[test]
    fn resolve_rejects_unknown_attrs() {
        let db = db();
        assert!(db.resolve_attr("conference.name").is_ok());
        assert!(db.resolve_attr("nope.name").is_err());
        assert!(db.resolve_attr("conference.nope").is_err());
        assert!(db.resolve_attr("noperiod").is_err());
    }

    #[test]
    fn terms_counting_sorts_and_truncates() {
        let db = db();
        let facets = resolve_facets(&db, &[FacetSpec::terms("conference.name", 1)]).unwrap();
        let mut acc = FacetAccum::new(1);
        acc.observe(
            &db,
            &facets,
            &result(&db, &[("conference", 0), ("paper", 0)]),
        );
        acc.observe(&db, &facets, &result(&db, &[("conference", 0)]));
        acc.observe(&db, &facets, &result(&db, &[("conference", 1)]));
        let counts = acc.finish(&facets);
        assert_eq!(counts[0].attr, "conference.name");
        assert_eq!(counts[0].values.len(), 1, "top_n truncates");
        assert_eq!(counts[0].values[0].value, "SIGMOD");
        assert_eq!(counts[0].values[0].count, 2);
    }

    #[test]
    fn range_counting_buckets_in_request_order() {
        let db = db();
        let facets = resolve_facets(
            &db,
            &[FacetSpec::range(
                "conference.year",
                vec![
                    RangeBucket::new("90s", 1990.0, 2000.0),
                    RangeBucket::new("00s", 2000.0, 2010.0),
                    RangeBucket::new("10s", 2010.0, 2020.0),
                ],
            )],
        )
        .unwrap();
        let mut acc = FacetAccum::new(1);
        acc.observe(&db, &facets, &result(&db, &[("conference", 0)]));
        acc.observe(&db, &facets, &result(&db, &[("conference", 1)]));
        let counts = acc.finish(&facets);
        let vals: Vec<(&str, u64)> = counts[0]
            .values
            .iter()
            .map(|v| (v.value.as_str(), v.count))
            .collect();
        assert_eq!(vals, vec![("90s", 1), ("00s", 1), ("10s", 0)]);
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let mut scratch = CountScratch::default();
        let mut m = scratch.take(2);
        m.add(RowId(1), u64::MAX);
        m.add(RowId(1), 1);
        m.add(RowId(0), 3);
        m.scale(|_| Some(2));
        assert_eq!(m.count, [6, u64::MAX]);
        m.scale(|row| (row == RowId(1)).then_some(1));
        assert_eq!((m.count[0], &m.rows[..]), (0, &[RowId(1)][..]));
        scratch.give(m);
        assert_eq!(
            scratch.take(2).count,
            [0, 0],
            "a message resets what it set"
        );

        let (x, null) = (Value::from("x"), Value::Null);
        let acc = FacetAccum {
            counters: vec![vec![(&x, u64::MAX), (&x, 2), (&null, 2)]],
        };
        let facets = resolve_facets(&db(), &[FacetSpec::terms("conference.name", 9)]).unwrap();
        let counts = acc.finish(&facets);
        assert_eq!(counts[0].values.len(), 1, "NULL is no facet value");
        assert_eq!(counts[0].count_of("x"), u64::MAX);
    }

    /// The pexec fixture plus a citation between two conferences' papers (so
    /// one CN holds two `conference` nodes), a NULL FK on either side and a
    /// NULL facet value.
    fn joined_db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        for (cid, name, year) in [(1, "SIGMOD", 2007), (2, "VLDB", 2008)] {
            db.insert("conference", vec![cid.into(), name.into(), year.into()])
                .unwrap();
        }
        db.insert("conference", vec![3.into(), "XML Days".into(), Value::Null])
            .unwrap();
        for (aid, name) in [
            (1, "Jennifer Widom"),
            (2, "Serge Abiteboul"),
            (3, "Widom Junior"),
        ] {
            db.insert("author", vec![aid.into(), name.into()]).unwrap();
        }
        for (pid, title, cid) in [
            (10, "XML keyword search", 1.into()),
            (11, "Data on the Web", 1.into()),
            (12, "Streams and XML", 2.into()),
            (13, "Query optimization", 2.into()),
            (14, "XML without a venue", Value::Null),
            (15, "Widom on XML", 3.into()),
            (16, "XML views", 1.into()),
        ] {
            db.insert("paper", vec![pid.into(), title.into(), cid])
                .unwrap();
        }
        for (wid, aid, pid) in [
            (100, 1.into(), 10),
            (101, 2.into(), 11),
            (102, 1.into(), 12),
            (103, 3.into(), 13),
            (104, Value::Null, 12),
            (105, 3.into(), 10),
        ] {
            db.insert("write", vec![wid.into(), aid, pid.into()])
                .unwrap();
        }
        for (id, citing, cited) in [(200, 10, 13), (201, 12, 11), (202, 13, 12)] {
            db.insert("cite", vec![id.into(), citing.into(), cited.into()])
                .unwrap();
        }
        db.build_text_index();
        db
    }

    #[test]
    fn count_pass_equals_observing_every_result_that_passes() {
        use crate::cn::{CnGenConfig, CnGenerator, MaskOracle};
        use crate::eval::evaluate_cn;

        let db = joined_db();
        let facets = resolve_facets(
            &db,
            &[
                FacetSpec::terms("conference.name", 100),
                FacetSpec::terms("conference.year", 100),
                FacetSpec::terms("author.name", 100),
                FacetSpec::terms("paper.title", 100),
            ],
        )
        .unwrap();
        let term = |attr: &str, value: &str| Refinement::Term {
            attr: attr.into(),
            value: value.into(),
        };
        let refinement_sets = [
            vec![],
            vec![term("conference.name", "SIGMOD")],
            vec![term("author.name", "Jennifer Widom")],
            vec![
                term("conference.name", "VLDB"),
                term("conference.year", "2008"),
            ],
            vec![
                term("paper.title", "Streams and XML"),
                term("conference.name", "SIGMOD"),
            ],
        ];
        let mut scratch = EvalScratch::new();
        let (mut two_conference_cns, mut split_cases) = (0, 0);
        for keywords in [
            ["widom", "xml"],
            ["sigmod", "xml"],
            ["vldb", "widom"],
            ["xml", "query"],
            ["widom", "serge"],
            // author ← write → paper → conference ← 2 × paper^{xml}: a count
            // above 1 copied down an FK chain
            ["serge", "xml"],
        ] {
            let ts = TupleSets::build_with(&db, &keywords, &mut scratch).unwrap();
            let oracle = MaskOracle::from_tuplesets(&ts);
            let cfg = CnGenConfig {
                max_size: 5,
                dedupe: true,
                max_cns: 0,
            };
            let cns = CnGenerator::new(db.schema_graph(), &oracle, cfg).generate();
            let conference = db.table_id("conference").unwrap();
            two_conference_cns += cns
                .iter()
                .filter(|cn| cn.nodes.iter().filter(|n| n.table == conference).count() == 2)
                .count();
            for refinements in &refinement_sets {
                let refinements = resolve_refinements(&db, refinements).unwrap();
                let mut want = FacetAccum::new(facets.len());
                for cn in &cns {
                    split_cases += restrictions(cn, &refinements).len().saturating_sub(1);
                    for r in evaluate_cn(&db, cn, &ts, &ExecStats::new()) {
                        if result_passes(&db, &refinements, &r) {
                            want.observe(&db, &facets, &r);
                        }
                    }
                }
                let freq = FacetRequest {
                    facets: &facets,
                    refinements: &refinements,
                };
                let stats = ExecStats::new();
                let budget = Budget::unlimited();
                let tally = count_facets(&db, &ts, &cns, &freq, &budget, &stats, &mut scratch);
                assert!(!tally.cut);
                assert_eq!(
                    tally.counts.finish(&facets),
                    want.finish(&facets),
                    "{keywords:?} under {refinements:?}"
                );
                let sorted = tally.cns_counted
                    + tally.cns_skipped_no_facet_node
                    + tally.cns_dropped_by_refinement;
                assert_eq!(sorted, cns.len() as u64);
                assert_eq!(stats.rows_output() + stats.joins_executed(), 0);
                let zeroed = |m: &Message| m.rows.is_empty() && m.count.iter().all(|&c| c == 0);
                assert!(
                    scratch.counts.free.iter().all(zeroed),
                    "a message left residue"
                );

                let late = Budget::unlimited().with_timeout(std::time::Duration::ZERO);
                let tally = count_facets(&db, &ts, &cns, &freq, &late, &stats, &mut scratch);
                assert!(tally.cut && tally.cns_counted == 0);
            }
            ts.recycle(&mut scratch);
            assert!(scratch.unmatched_rows().is_some_and(|n| n > 0));
        }
        assert!(two_conference_cns > 0 && split_cases > 0);
    }

    #[test]
    fn refinements_filter_by_membership() {
        let db = db();
        let refs = resolve_refinements(
            &db,
            &[Refinement::Term {
                attr: "conference.name".into(),
                value: "SIGMOD".into(),
            }],
        )
        .unwrap();
        assert!(result_passes(
            &db,
            &refs,
            &result(&db, &[("conference", 0), ("paper", 0)])
        ));
        assert!(!result_passes(
            &db,
            &refs,
            &result(&db, &[("conference", 1)])
        ));
        // no tuple of the refined table at all ⇒ fails the drill-down
        assert!(!result_passes(&db, &refs, &result(&db, &[("paper", 0)])));

        // a term refinement matches what a value *displays* as, NULL never
        let term = |value: &str| Refinement::Term {
            attr: "conference.year".into(),
            value: value.into(),
        };
        let cases: [(Value, &str); 10] = [
            (2007.into(), "2007"),
            (2007.into(), "200"),
            (2007.into(), "20070"),
            ((-3).into(), "-3"),
            (Value::Float(2.5), "2.5"),
            (Value::Float(2.0), "2"),
            (Value::Bool(true), "true"),
            ("2007".into(), "2007"),
            ("".into(), ""),
            (Value::Null, "NULL"),
        ];
        for (v, text) in &cases {
            assert_eq!(
                value_matches(v, &term(text)),
                !v.is_null() && v.to_string() == *text,
                "{v:?} against {text:?}"
            );
        }
        assert!(value_matches(&cases[0].0, &term("2007")));
        assert!(!value_matches(&cases[1].0, &term("200")));
        assert!(!value_matches(&Value::Null, &term("NULL")));

        let yr = resolve_refinements(
            &db,
            &[Refinement::Range {
                attr: "conference.year".into(),
                lo: 2000.0,
                hi: 2010.0,
            }],
        )
        .unwrap();
        assert!(result_passes(&db, &yr, &result(&db, &[("conference", 0)])));
        assert!(!result_passes(&db, &yr, &result(&db, &[("conference", 1)])));
    }
}
