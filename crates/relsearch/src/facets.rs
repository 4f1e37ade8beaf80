//! Facet accumulation and drill-down refinement over CN executor results.
//!
//! Faceted search annotates a keyword query's *full result multiset* with
//! per-attribute value distributions. The exact-subset tuple-set partition
//! makes this well-defined: a joining tree matches exactly one CN, so the
//! union of all CN results is duplicate-free and the facet counts are a
//! property of the query, not of the execution strategy. Counts therefore
//! must come out identical for any worker count and either posting layout —
//! the same bar the parallel executor meets for top-k.
//!
//! The counting rule: for each result and each requested facet, every tuple
//! of the facet's table occurring in the result contributes its column value
//! once. Results without a tuple of that table contribute nothing.
//!
//! A [`Refinement`] is the drill-down half: a predicate over facet
//! attributes that filters results *before* they are ranked or counted, so
//! clicking a facet value re-runs the query narrowed to it. Refinements are
//! deliberately not part of the CN plan — the plan depends only on schema
//! and keywords — so a refined query hits the CN plan cache.

use crate::eval::JoinedResult;
use kwdb_common::{FacetCount, FacetCounts, FacetSpec, Result, Value};
use kwdb_relational::{Database, TableId};
use std::collections::HashMap;

/// A facet spec resolved against a schema: `"table.column"` → ids, done once
/// per query at parse time so the per-result hot path is two array indexes.
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
/// nothing is allocated (this runs per tuple per joined row).
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

/// Whether `r` satisfies *all* refinements (drill-downs compose as AND).
pub fn result_passes(db: &Database, refs: &[ResolvedRefinement], r: &JoinedResult) -> bool {
    refs.iter().all(|rf| {
        r.tuples.iter().any(|t| {
            t.table == rf.table
                && value_matches(db.table(rf.table).get(t.row, rf.col), &rf.refinement)
        })
    })
}

/// What an executor needs to run faceted: the resolved facets to count and
/// the refinements to filter by. An empty value (no facets, no refinements)
/// reduces every faceted code path to the plain one.
#[derive(Debug, Clone, Copy)]
pub struct FacetRequest<'a> {
    pub facets: &'a [ResolvedFacet],
    pub refinements: &'a [ResolvedRefinement],
}

impl FacetRequest<'_> {
    /// The no-op request: nothing to count, nothing to filter.
    pub fn none() -> FacetRequest<'static> {
        FacetRequest {
            facets: &[],
            refinements: &[],
        }
    }

    /// Facet counting covers the full result multiset, so an executor must
    /// disable bound pruning and early stopping and evaluate every CN to
    /// completion — the price of exact, worker-count-invariant counts.
    pub fn exhaustive(&self) -> bool {
        !self.facets.is_empty()
    }

    /// Whether `r` survives the refinements (true when there are none).
    pub fn passes(&self, db: &Database, r: &JoinedResult) -> bool {
        self.refinements.is_empty() || result_passes(db, self.refinements, r)
    }

    pub fn is_empty(&self) -> bool {
        self.facets.is_empty() && self.refinements.is_empty()
    }
}

/// A facet-count accumulator: one raw `value → count` map per requested
/// facet. Workers each fill their own and the executor merges them at drain
/// time — addition is commutative, so the merged counts are independent of
/// worker count and interleaving. Bucketing (for range facets) and
/// sort/truncate (for terms facets) happen once in [`FacetAccum::finish`].
#[derive(Debug, Default)]
pub struct FacetAccum {
    counters: Vec<HashMap<Value, u64>>,
}

impl FacetAccum {
    pub fn new(n_facets: usize) -> Self {
        FacetAccum {
            counters: vec![HashMap::new(); n_facets],
        }
    }

    /// Count one result: every tuple of each facet's table contributes its
    /// column value once. Null values are skipped. A value is cloned into
    /// the map only the first time it is seen.
    pub fn observe(&mut self, db: &Database, facets: &[ResolvedFacet], r: &JoinedResult) {
        for (fi, f) in facets.iter().enumerate() {
            for t in &r.tuples {
                if t.table != f.table {
                    continue;
                }
                let v = db.table(f.table).get(t.row, f.col);
                if v.is_null() {
                    continue;
                }
                match self.counters[fi].get_mut(v) {
                    Some(count) => *count += 1,
                    None => {
                        self.counters[fi].insert(v.clone(), 1);
                    }
                }
            }
        }
    }

    /// Fold another worker's counts into this one.
    pub fn merge(&mut self, other: FacetAccum) {
        if self.counters.len() < other.counters.len() {
            self.counters
                .resize_with(other.counters.len(), HashMap::new);
        }
        for (fi, m) in other.counters.into_iter().enumerate() {
            for (v, c) in m {
                *self.counters[fi].entry(v).or_insert(0) += c;
            }
        }
    }

    /// Finalize into response-shaped [`FacetCounts`], one per requested
    /// facet, in request order.
    pub fn finish(self, facets: &[ResolvedFacet]) -> Vec<FacetCounts> {
        facets
            .iter()
            .zip(
                self.counters
                    .into_iter()
                    .chain(std::iter::repeat_with(HashMap::new)),
            )
            .map(|(f, counter)| match &f.spec {
                FacetSpec::Terms { attr, top_n } => {
                    // Merge by rendered value: distinct `Value`s that display
                    // identically (Int(2) vs Text("2")) are one facet value.
                    let mut by_text: HashMap<String, u64> = HashMap::new();
                    for (v, c) in counter {
                        *by_text.entry(v.to_string()).or_insert(0) += c;
                    }
                    let mut values: Vec<FacetCount> = by_text
                        .into_iter()
                        .map(|(value, count)| FacetCount { value, count })
                        .collect();
                    values.sort_by(|a, b| b.count.cmp(&a.count).then(a.value.cmp(&b.value)));
                    values.truncate(*top_n);
                    FacetCounts {
                        attr: attr.clone(),
                        values,
                    }
                }
                FacetSpec::Range { attr, buckets } => {
                    let values = buckets
                        .iter()
                        .map(|b| {
                            let count = counter
                                .iter()
                                .filter_map(|(v, c)| {
                                    v.as_f64().filter(|&x| b.contains(x)).map(|_| *c)
                                })
                                .sum();
                            FacetCount {
                                value: b.label.clone(),
                                count,
                            }
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
    fn merge_is_plain_addition() {
        let db = db();
        let facets = resolve_facets(&db, &[FacetSpec::terms("conference.name", 10)]).unwrap();
        let mut a = FacetAccum::new(1);
        let mut b = FacetAccum::new(1);
        a.observe(&db, &facets, &result(&db, &[("conference", 0)]));
        b.observe(&db, &facets, &result(&db, &[("conference", 0)]));
        b.observe(&db, &facets, &result(&db, &[("conference", 1)]));
        a.merge(b);
        let counts = a.finish(&facets);
        assert_eq!(counts[0].count_of("SIGMOD"), 2);
        assert_eq!(counts[0].count_of("VLDB"), 1);
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
