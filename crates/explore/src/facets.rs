//! Faceted search with a navigation-cost model (Chakrabarti, Chaudhuri &
//! Hwang 2004; FACeTOR, CIKM 10) — tutorial slides 84–93.
//!
//! Query results are rows with categorical attributes; the system builds a
//! navigation tree (one facet per level) minimizing the user's *expected
//! navigation cost* under the slide-87 action model: at a node the user
//! either **shows results** (pays one unit per result) or **expands** the
//! child facet (pays one unit per facet value read, then recurses into the
//! values judged relevant). Probabilities come from a historical query log:
//!
//! * `p(expand(N))` — high when many log queries constrain the child facet;
//! * `p(proc(child))` — the fraction of log queries whose selection overlaps
//!   the child's value.
//!
//! Exact tree optimization is prohibitively expensive (slide 91); the
//! greedy builder picks, level by level, the attribute with the smallest
//! resulting cost. E15 compares greedy vs fixed attribute order vs a flat
//! SHOWALL list.

use kwdb_common::Result;
use kwdb_relational::{Database, TupleId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A result table: attribute names + rows of values.
#[derive(Debug, Clone)]
pub struct FacetTable {
    pub attributes: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl FacetTable {
    pub fn new(attributes: Vec<String>, rows: Vec<Vec<String>>) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == attributes.len()),
            "ragged rows"
        );
        FacetTable { attributes, rows }
    }

    /// Project engine results onto facet attributes: one row per result
    /// (a joining tree of tuple IDs, e.g. `RelationalHit::tuples`), one
    /// column per `"table.column"` attribute. A result's value for an
    /// attribute is the rendered column value of its first tuple from that
    /// table, or `""` when the result's tree does not touch the table —
    /// so navigation trees are built over the *real* result multiset
    /// rather than a hand-maintained copy of it.
    pub fn from_results(
        db: &Database,
        attrs: &[&str],
        results: &[Vec<TupleId>],
    ) -> Result<FacetTable> {
        let resolved: Vec<(kwdb_relational::TableId, usize)> = attrs
            .iter()
            .map(|a| db.resolve_attr(a))
            .collect::<Result<_>>()?;
        let rows = results
            .iter()
            .map(|tuples| {
                resolved
                    .iter()
                    .map(|&(tid, col)| {
                        tuples
                            .iter()
                            .find(|t| t.table == tid)
                            .map(|t| db.table(tid).get(t.row, col).to_string())
                            .unwrap_or_default()
                    })
                    .collect()
            })
            .collect();
        Ok(FacetTable::new(
            attrs.iter().map(|a| a.to_string()).collect(),
            rows,
        ))
    }

    /// Value distribution of `attr` over the rows: `(value, count)` sorted
    /// count-descending then value-ascending — the same order the engine's
    /// `FacetCounts` uses, so the two are directly comparable.
    pub fn value_counts(&self, attr: &str) -> Vec<(String, usize)> {
        let ai = self.attr_index(attr);
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for row in &self.rows {
            *counts.entry(row[ai].as_str()).or_default() += 1;
        }
        let mut out: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(v, n)| (v.to_string(), n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn attr_index(&self, name: &str) -> usize {
        self.attributes
            .iter()
            .position(|a| a == name)
            .expect("unknown attribute")
    }
}

/// A historical query: the facet conditions the user applied.
pub type LogQuery = Vec<(String, String)>;

/// Log-derived probabilities.
#[derive(Debug, Clone)]
pub struct LogModel<'a> {
    log: &'a [LogQuery],
}

impl<'a> LogModel<'a> {
    pub fn new(log: &'a [LogQuery]) -> Self {
        LogModel { log }
    }

    /// p(expand): fraction of log queries constraining `attr` (slide 89).
    pub fn p_expand(&self, attr: &str) -> f64 {
        if self.log.is_empty() {
            return 0.5;
        }
        let n = self
            .log
            .iter()
            .filter(|q| q.iter().any(|(a, _)| a == attr))
            .count();
        n as f64 / self.log.len() as f64
    }

    /// p(child relevant): fraction of log queries selecting this value of
    /// `attr` among those constraining `attr` at all (slide 90).
    pub fn p_relevant(&self, attr: &str, value: &str) -> f64 {
        let constraining: Vec<&LogQuery> = self
            .log
            .iter()
            .filter(|q| q.iter().any(|(a, _)| a == attr))
            .collect();
        if constraining.is_empty() {
            return 0.5;
        }
        let n = constraining
            .iter()
            .filter(|q| q.iter().any(|(a, v)| a == attr && v == value))
            .count();
        n as f64 / constraining.len() as f64
    }
}

/// A navigation tree node: either a facet level or a leaf result set.
#[derive(Debug, Clone)]
pub enum NavNode {
    /// Split on `attr`; children keyed by value.
    Facet {
        attr: String,
        children: BTreeMap<String, NavNode>,
    },
    /// Show these row indices.
    Leaf { rows: Vec<usize> },
}

impl NavNode {
    /// Expected navigation cost of this subtree under the log model.
    pub fn expected_cost(&self, model: &LogModel<'_>) -> f64 {
        match self {
            NavNode::Leaf { rows } => rows.len() as f64,
            NavNode::Facet { attr, children } => {
                let pe = model.p_expand(attr);
                let show_all: f64 = children
                    .values()
                    .map(|c| match c {
                        NavNode::Leaf { rows } => rows.len() as f64,
                        f => f.expected_cost(model),
                    })
                    .sum();
                // expand: read every child value, then process relevant ones
                let read = children.len() as f64;
                let recurse: f64 = children
                    .iter()
                    .map(|(v, c)| model.p_relevant(attr, v) * c.expected_cost(model))
                    .sum();
                (1.0 - pe) * show_all + pe * (read + recurse)
            }
        }
    }

    /// Depth of the tree (leaves are depth 0).
    pub fn depth(&self) -> usize {
        match self {
            NavNode::Leaf { .. } => 0,
            NavNode::Facet { children, .. } => {
                1 + children.values().map(|c| c.depth()).max().unwrap_or(0)
            }
        }
    }
}

/// Build a navigation tree with a *fixed* attribute order.
pub fn build_fixed(table: &FacetTable, order: &[String], rows: Vec<usize>) -> NavNode {
    let Some((attr, rest)) = order.split_first() else {
        return NavNode::Leaf { rows };
    };
    let ai = table.attr_index(attr);
    let mut children: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for r in rows {
        children
            .entry(table.rows[r][ai].clone())
            .or_default()
            .push(r);
    }
    NavNode::Facet {
        attr: attr.clone(),
        children: children
            .into_iter()
            .map(|(v, rs)| (v, build_fixed(table, rest, rs)))
            .collect(),
    }
}

/// Greedy tree (slide 91): at each level choose the unused attribute whose
/// one-level tree has the smallest expected cost; recurse per child.
pub fn build_greedy(
    table: &FacetTable,
    model: &LogModel<'_>,
    rows: Vec<usize>,
    max_depth: usize,
) -> NavNode {
    build_greedy_by(
        table,
        &|tree| tree.expected_cost(model),
        rows,
        &BTreeSet::new(),
        max_depth,
    )
}

/// The greedy loop under either cost model: price every unused attribute's
/// one-level tree with `cost`, and split on the cheapest unless just showing
/// the rows costs no more; then recurse into each value's rows.
fn build_greedy_by(
    table: &FacetTable,
    cost: &dyn Fn(&NavNode) -> f64,
    rows: Vec<usize>,
    used: &BTreeSet<String>,
    max_depth: usize,
) -> NavNode {
    if max_depth == 0 || rows.len() <= 1 {
        return NavNode::Leaf { rows };
    }
    let mut best: Option<(f64, NavNode)> = None;
    for attr in table.attributes.iter().filter(|a| !used.contains(*a)) {
        let candidate = build_fixed(table, std::slice::from_ref(attr), rows.clone());
        let c = cost(&candidate);
        if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
            best = Some((c, candidate));
        }
    }
    let Some((split_cost, NavNode::Facet { attr, children })) = best else {
        return NavNode::Leaf { rows };
    };
    if rows.len() as f64 <= split_cost {
        return NavNode::Leaf { rows };
    }
    let mut next_used = used.clone();
    next_used.insert(attr.clone());
    let children = children
        .into_iter()
        .map(|(v, child)| {
            let NavNode::Leaf { rows } = child else {
                unreachable!("a one-level tree has leaf children")
            };
            (
                v,
                build_greedy_by(table, cost, rows, &next_used, max_depth - 1),
            )
        })
        .collect();
    NavNode::Facet { attr, children }
}

/// FACeTOR's variant of the model (Kashyap, Hristidis & Petropoulos,
/// CIKM 10) — tutorial slides 92–93. Differences from the log model:
///
/// * probabilities come from **user-declared facet interestingness** and
///   from the **result distribution itself** (value popularity), not from a
///   historical log;
/// * reading a facet's values is paginated with a **SHOWMORE** action: the
///   user reads one page, and continues to the next with a probability that
///   grows with the facet's interestingness.
#[derive(Debug, Clone)]
pub struct FacetorModel {
    /// attr → user-declared interestingness in `[0, ∞)`.
    pub interestingness: HashMap<String, f64>,
    /// Facet values shown per page before SHOWMORE.
    pub page_size: usize,
}

impl FacetorModel {
    pub fn new(interestingness: HashMap<String, f64>, page_size: usize) -> Self {
        FacetorModel {
            interestingness,
            page_size: page_size.max(1),
        }
    }

    fn interest(&self, attr: &str) -> f64 {
        self.interestingness.get(attr).copied().unwrap_or(0.0)
    }

    /// p(expand): interesting facets get expanded.
    pub fn p_expand(&self, attr: &str) -> f64 {
        let i = self.interest(attr);
        i / (1.0 + i)
    }

    /// p(showMore): continue past a page of an interesting facet.
    pub fn p_show_more(&self, attr: &str) -> f64 {
        0.5 * self.p_expand(attr)
    }

    /// Expected cost of a navigation tree under the FACeTOR model: value
    /// reading is paginated, child relevance is its result-share.
    pub fn expected_cost(&self, node: &NavNode) -> f64 {
        match node {
            NavNode::Leaf { rows } => rows.len() as f64,
            NavNode::Facet { attr, children } => {
                let pe = self.p_expand(attr);
                let show_all: f64 = children.values().map(|c| self.expected_cost(c)).sum();
                // paginated reading: expected values read
                let n = children.len() as f64;
                let page = self.page_size as f64;
                let pm = self.p_show_more(attr);
                let mut read = 0.0;
                let mut remaining = n;
                let mut reach = 1.0;
                while remaining > 0.0 {
                    read += reach * remaining.min(page);
                    remaining -= page;
                    reach *= pm;
                }
                // child relevance = its share of the results
                let total_rows: f64 = children.values().map(subtree_rows).sum();
                let recurse: f64 = children
                    .values()
                    .map(|c| {
                        let share = if total_rows == 0.0 {
                            0.0
                        } else {
                            subtree_rows(c) / total_rows
                        };
                        share * self.expected_cost(c)
                    })
                    .sum();
                (1.0 - pe) * show_all + pe * (read + recurse)
            }
        }
    }
}

fn subtree_rows(node: &NavNode) -> f64 {
    match node {
        NavNode::Leaf { rows } => rows.len() as f64,
        NavNode::Facet { children, .. } => children.values().map(subtree_rows).sum(),
    }
}

/// Greedy tree under the FACeTOR model: at each level pick the unused
/// attribute minimizing the one-level FACeTOR cost.
pub fn build_greedy_facetor(
    table: &FacetTable,
    model: &FacetorModel,
    rows: Vec<usize>,
    max_depth: usize,
) -> NavNode {
    build_greedy_by(
        table,
        &|tree| model.expected_cost(tree),
        rows,
        &BTreeSet::new(),
        max_depth,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slide 87's apartment scenario: neighborhood and price facets.
    fn apartments() -> FacetTable {
        let mut rows = Vec::new();
        for (nbhd, price, pets) in [
            ("redmond", "500-1000", "yes"),
            ("redmond", "1000-1500", "yes"),
            ("redmond", "1500-2000", "no"),
            ("bellevue", "500-1000", "no"),
            ("bellevue", "1000-1500", "yes"),
            ("bellevue", "1500-2000", "no"),
            ("seattle", "500-1000", "yes"),
            ("seattle", "1000-1500", "no"),
        ] {
            rows.push(vec![nbhd.to_string(), price.to_string(), pets.to_string()]);
        }
        FacetTable::new(
            vec!["neighborhood".into(), "price".into(), "pets".into()],
            rows,
        )
    }

    /// Log dominated by price-constraining queries.
    fn price_log() -> Vec<LogQuery> {
        vec![
            vec![("price".into(), "500-1000".into())],
            vec![("price".into(), "500-1000".into())],
            vec![("price".into(), "1000-1500".into())],
            vec![("neighborhood".into(), "redmond".into())],
        ]
    }

    #[test]
    fn log_model_probabilities() {
        let log = price_log();
        let m = LogModel::new(&log);
        assert!((m.p_expand("price") - 0.75).abs() < 1e-12);
        assert!((m.p_expand("neighborhood") - 0.25).abs() < 1e-12);
        assert!((m.p_relevant("price", "500-1000") - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.p_expand("pets"), 0.0);
    }

    #[test]
    fn greedy_splits_on_popular_facet_first() {
        let table = apartments();
        let log = price_log();
        let m = LogModel::new(&log);
        let tree = build_greedy(&table, &m, (0..table.rows.len()).collect(), 2);
        match &tree {
            NavNode::Facet { attr, .. } => assert_eq!(attr, "price"),
            NavNode::Leaf { .. } => panic!("expected a facet split"),
        }
    }

    #[test]
    fn greedy_cost_beats_or_matches_alternatives() {
        let table = apartments();
        let log = price_log();
        let m = LogModel::new(&log);
        let all: Vec<usize> = (0..table.rows.len()).collect();
        let greedy = build_greedy(&table, &m, all.clone(), 2);
        let flat = NavNode::Leaf { rows: all.clone() };
        let fixed = build_fixed(&table, &["pets".into(), "neighborhood".into()], all);
        let gc = greedy.expected_cost(&m);
        assert!(gc <= flat.expected_cost(&m) + 1e-9);
        assert!(gc <= fixed.expected_cost(&m) + 1e-9);
    }

    #[test]
    fn singleton_results_become_leaves() {
        let table = apartments();
        let log = price_log();
        let m = LogModel::new(&log);
        let tree = build_greedy(&table, &m, vec![0], 3);
        assert!(matches!(tree, NavNode::Leaf { ref rows } if rows == &vec![0]));
    }

    #[test]
    fn max_depth_limits_tree() {
        let table = apartments();
        let log = price_log();
        let m = LogModel::new(&log);
        let tree = build_greedy(&table, &m, (0..table.rows.len()).collect(), 1);
        assert!(tree.depth() <= 1);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        FacetTable::new(vec!["a".into()], vec![vec!["x".into(), "y".into()]]);
    }

    #[test]
    fn from_results_projects_tuple_trees_onto_attributes() {
        let mut db = kwdb_relational::Database::new();
        kwdb_relational::database::dblp_schema(&mut db).unwrap();
        let c1 = db
            .insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        let c2 = db
            .insert("conference", vec![2.into(), "VLDB".into(), 2008.into()])
            .unwrap();
        let p1 = db
            .insert("paper", vec![10.into(), "keyword search".into(), 1.into()])
            .unwrap();
        let p2 = db
            .insert("paper", vec![11.into(), "query forms".into(), 2.into()])
            .unwrap();
        db.build_text_index();
        // two joining trees and one conference-less "result"
        let results = vec![vec![p1, c1], vec![p2, c2], vec![p1]];
        let t = FacetTable::from_results(&db, &["conference.name", "conference.year"], &results)
            .unwrap();
        assert_eq!(t.attributes, vec!["conference.name", "conference.year"]);
        assert_eq!(t.rows[0], vec!["SIGMOD", "2007"]);
        assert_eq!(t.rows[1], vec!["VLDB", "2008"]);
        assert_eq!(t.rows[2], vec!["", ""], "tree without the table → blank");
        // the real distribution feeds the nav-tree builders directly
        let counts = t.value_counts("conference.name");
        assert_eq!(
            counts,
            vec![
                (String::new(), 1),
                ("SIGMOD".to_string(), 1),
                ("VLDB".to_string(), 1)
            ]
        );
        assert!(FacetTable::from_results(&db, &["conference.bogus"], &results).is_err());
        assert!(FacetTable::from_results(&db, &["noperiod"], &results).is_err());
    }

    use std::collections::HashMap;

    fn facetor_model(price_interest: f64) -> FacetorModel {
        FacetorModel::new(
            HashMap::from([
                ("price".to_string(), price_interest),
                ("neighborhood".to_string(), 0.2),
            ]),
            2,
        )
    }

    #[test]
    fn facetor_splits_on_the_interesting_facet() {
        let table = apartments();
        let model = facetor_model(5.0);
        let tree = build_greedy_facetor(&table, &model, (0..table.rows.len()).collect(), 2);
        match &tree {
            NavNode::Facet { attr, .. } => assert_eq!(attr, "price"),
            NavNode::Leaf { .. } => panic!("expected a split"),
        }
    }

    #[test]
    fn facetor_uninteresting_facets_stay_flat() {
        // zero interestingness everywhere → expanding never pays; show results
        let table = apartments();
        let model = FacetorModel::new(HashMap::new(), 2);
        let tree = build_greedy_facetor(&table, &model, (0..table.rows.len()).collect(), 2);
        assert!(matches!(tree, NavNode::Leaf { .. }));
    }

    #[test]
    fn facetor_pagination_reduces_reading_cost() {
        let table = apartments();
        let rows: Vec<usize> = (0..table.rows.len()).collect();
        let one_level = build_fixed(&table, &["price".to_string()], rows);
        let small_pages = facetor_model(5.0);
        let big_pages = FacetorModel::new(HashMap::from([("price".to_string(), 5.0)]), 50);
        // with big pages every value is read up-front; small pages defer
        // later values behind SHOWMORE, lowering the expected read cost
        assert!(small_pages.expected_cost(&one_level) <= big_pages.expected_cost(&one_level));
    }

    #[test]
    fn facetor_cost_of_leaf_is_result_count() {
        let model = facetor_model(1.0);
        let leaf = NavNode::Leaf {
            rows: vec![1, 2, 3],
        };
        assert_eq!(model.expected_cost(&leaf), 3.0);
    }
}
