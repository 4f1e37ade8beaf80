//! Integration: faceted search through the engine API.
//!
//! Facet counts are a property of the *query*, not of the execution
//! strategy: the exact-subset tuple-set partition makes the full result
//! multiset duplicate-free, so the counts must come out identical for any
//! worker count and either posting layout, and must equal a naive per-hit
//! recomputation from the returned joining trees. Drill-down refinements
//! are deliberately outside the CN plan key, so a refined query hits the
//! plan cache.

use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn dblp(layout: Layout) -> Arc<kwdb::relational::Database> {
    let mut db = generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    });
    db.set_posting_layout(layout);
    Arc::new(db)
}

fn faceted_request() -> SearchRequest {
    SearchRequest::new("data query")
        .k(5)
        .facet(FacetSpec::terms("conference.name", 1000))
        .facet(FacetSpec::range(
            "conference.year",
            (1970..2030)
                .step_by(10)
                .map(|y| RangeBucket::new(format!("{y}s"), y as f64, (y + 10) as f64))
                .collect(),
        ))
}

/// Recompute the facet distributions from returned hits by the counting
/// rule: every tuple of the facet's table in a result contributes its
/// column value once, values merged by rendered string, terms sorted by
/// descending count then ascending value, range buckets in request order.
fn naive_counts(
    db: &kwdb::relational::Database,
    hits: &[kwdb::engine::RelationalHit],
    specs: &[FacetSpec],
) -> Vec<FacetCounts> {
    specs
        .iter()
        .map(|spec| {
            let (tname, cname) = spec.attr().split_once('.').unwrap();
            let tid = db.table_id(tname).unwrap();
            let col = db
                .table(tid)
                .schema
                .columns
                .iter()
                .position(|c| c.name == cname)
                .unwrap();
            let mut raw: Vec<kwdb::common::Value> = Vec::new();
            for hit in hits {
                for t in &hit.tuples {
                    if t.table == tid && !db.table(tid).get(t.row, col).is_null() {
                        raw.push(db.table(tid).get(t.row, col).clone());
                    }
                }
            }
            let values = match spec {
                FacetSpec::Terms { top_n, .. } => {
                    let mut by_text: HashMap<String, u64> = HashMap::new();
                    for v in &raw {
                        *by_text.entry(v.to_string()).or_insert(0) += 1;
                    }
                    let mut values: Vec<FacetCount> = by_text
                        .into_iter()
                        .map(|(value, count)| FacetCount { value, count })
                        .collect();
                    values.sort_by(|a, b| b.count.cmp(&a.count).then(a.value.cmp(&b.value)));
                    values.truncate(*top_n);
                    values
                }
                FacetSpec::Range { buckets, .. } => buckets
                    .iter()
                    .map(|b| FacetCount {
                        value: b.label.clone(),
                        count: raw
                            .iter()
                            .filter(|v| v.as_f64().is_some_and(|x| b.contains(x)))
                            .count() as u64,
                    })
                    .collect(),
            };
            FacetCounts {
                attr: spec.attr().to_string(),
                values,
            }
        })
        .collect()
}

#[test]
fn facet_counts_are_invariant_and_match_naive_recomputation() {
    // Reference: the naive recomputation needs every result as a hit, so
    // ask for a k far above the result count.
    let all = faceted_request().k(100_000);
    let reference = {
        let engine = RelationalEngine::with_config(
            dblp(Layout::Plain),
            RelationalConfig {
                intra_query_workers: 1,
                ..Default::default()
            },
        );
        let resp = engine.execute(&all).unwrap();
        assert!(resp.facets_exact);
        assert!(!resp.hits.is_empty());
        assert!(
            resp.hits.len() < 100_000,
            "k must exceed the result count for the naive recount to be total"
        );
        let naive = naive_counts(&engine.database(), &resp.hits, all.facet_specs());
        assert_eq!(
            resp.facets, naive,
            "engine counts must equal per-hit recomputation"
        );
        assert!(
            resp.facets[0].total() > 0,
            "the workload must actually exercise the facets"
        );
        resp.facets
    };

    // The same counts (of the full multiset) and the same top-k page for every
    // layout × worker count, on a database that stays shared with this test: an
    // engine serves the layout its data arrives in, sole owner or not.
    let mut pages = Vec::new();
    for layout in [Layout::Plain, Layout::Blocks] {
        let db = dblp(layout);
        for workers in [1usize, 2, 8] {
            let engine = RelationalEngine::with_config(
                Arc::clone(&db),
                RelationalConfig {
                    intra_query_workers: workers,
                    ..Default::default()
                },
            );
            assert_eq!(engine.database().text_index().unwrap().layout(), layout);
            let resp = engine.execute(&faceted_request()).unwrap();
            assert!(resp.facets_exact, "{layout:?}/{workers} must be exact");
            assert_eq!(
                resp.facets, reference,
                "{layout:?}/{workers}: facet counts depend on execution strategy"
            );
            assert_eq!(resp.hits.len(), 5);
            pages.push(format!("{:?}", resp.hits));
        }
    }
    pages.dedup();
    assert_eq!(pages.len(), 1, "top-k depends on execution strategy");
}

#[test]
fn truncated_terms_facet_is_a_prefix_of_the_full_distribution() {
    let engine = RelationalEngine::new(dblp(Layout::Plain));
    let full = engine
        .execute(&SearchRequest::new("data query").facet(FacetSpec::terms("conference.name", 1000)))
        .unwrap();
    let top3 = engine
        .execute(&SearchRequest::new("data query").facet(FacetSpec::terms("conference.name", 3)))
        .unwrap();
    assert!(full.facets[0].values.len() > 3);
    assert_eq!(top3.facets[0].values, full.facets[0].values[..3]);
}

#[test]
fn drill_down_refinement_reuses_the_cached_plan() {
    let engine = RelationalEngine::new(dblp(Layout::Plain));
    let base = faceted_request();
    let first = engine.execute(&base).unwrap();
    assert_eq!(
        (first.stats.cache_hits, first.stats.cache_misses),
        (0, 1),
        "first faceted query plans from scratch"
    );
    let clicked = first.facets[0].values[0].clone();

    // Clicking a facet value refines the same query: same keywords, so the
    // CN plan must come from the cache, not a re-plan.
    let refined = engine
        .execute(&base.clone().refine(Refinement::Term {
            attr: "conference.name".into(),
            value: clicked.value.clone(),
        }))
        .unwrap();
    assert_eq!(
        (refined.stats.cache_hits, refined.stats.cache_misses),
        (1, 0),
        "drill-down must hit the CN plan cache"
    );
    assert!(refined.facets_exact);
    // The refined distribution collapses onto the clicked value with its
    // unrefined count: refinement keeps exactly the results that counted
    // toward it.
    assert_eq!(refined.facets[0].count_of(&clicked.value), clicked.count);
    assert!(refined.facets[0]
        .values
        .iter()
        .all(|v| v.value == clicked.value || v.count == 0));
    // Range refinements compose and also reuse the plan.
    let year_refined = engine
        .execute(
            &base
                .clone()
                .refine(Refinement::Term {
                    attr: "conference.name".into(),
                    value: clicked.value.clone(),
                })
                .refine(Refinement::Range {
                    attr: "conference.year".into(),
                    lo: 0.0,
                    hi: 10_000.0,
                }),
        )
        .unwrap();
    assert_eq!(year_refined.stats.cache_hits, 1);
    assert_eq!(
        year_refined.facets[0].count_of(&clicked.value),
        clicked.count,
        "an all-pass range refinement must not change the counts"
    );
}

#[test]
fn summaries_attach_rendered_context_to_hits() {
    let engine = RelationalEngine::new(dblp(Layout::Plain));
    let plain = engine
        .execute(&SearchRequest::new("data query").k(3))
        .unwrap();
    assert!(plain.hits.iter().all(|h| h.summary.is_empty()));
    let with_summaries = engine
        .execute(&SearchRequest::new("data query").k(3).summaries(4))
        .unwrap();
    for hit in &with_summaries.hits {
        assert!(!hit.summary.is_empty());
        assert!(hit.summary.len() <= 4);
        // the summary starts from the hit's own tuples
        assert!(
            hit.summary[0].contains('('),
            "rendered tuples: {:?}",
            hit.summary
        );
    }
}
