//! Integration: faceted search through the engine API.
//!
//! Facet counts are a property of the *query*, not of the execution
//! strategy: the exact-subset tuple-set partition makes the full result
//! multiset duplicate-free, so the counts must come out identical for
//! any page size, and must equal a naive per-hit recomputation from the
//! returned joining trees. Drill-down refinements
//! are deliberately outside the CN plan key, so a refined query hits the
//! plan cache.
//!
//! The counts come from a count-propagation pass over the CN trees and a
//! drill-down restricts the CNs it joins; neither enumerates the results
//! it is about. What holds them to the definition is the generated
//! differential harness in `relational_lattice.rs` (every CN joined in full
//! by `eval::evaluate_cn`, filtered by `result_passes`, counted row by row
//! by `FacetAccum::observe`); this suite adds exact work counters: facets
//! add no join, a drill-down joins only CNs that can pass it.

use kwdb::common::CacheConfig;
use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::prelude::*;
use kwdb::relational::Database;
use kwdb::relsearch::cn::{CandidateNetwork, CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::TupleSets;
use std::collections::HashMap;
use std::sync::Arc;

fn dblp() -> Arc<kwdb::relational::Database> {
    Arc::new(generate_dblp(&DblpConfig {
        n_papers: 60,
        n_authors: 30,
        ..Default::default()
    }))
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
        let engine = RelationalEngine::new(dblp());
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

    // The same counts (of the full multiset) for a top-5 page, on a
    // database that stays shared with this test: an engine serves the
    // index its data arrives with, sole owner or not.
    let db = dblp();
    let engine = RelationalEngine::new(Arc::clone(&db));
    let resp = engine.execute(&faceted_request()).unwrap();
    assert!(resp.facets_exact, "a top-5 page must be exact");
    assert_eq!(
        resp.facets, reference,
        "facet counts depend on execution strategy"
    );
    assert_eq!(resp.hits.len(), 5);
}

#[test]
fn truncated_terms_facet_is_a_prefix_of_the_full_distribution() {
    let engine = RelationalEngine::new(dblp());
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
    let engine = RelationalEngine::new(dblp());
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
    // toward it. (True while no CN of the query holds two `conference`
    // nodes, as here; `two_conference_nodes_split_a_drill_down_…` is the
    // other case.)
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
    let engine = RelationalEngine::new(dblp());
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

/// The CNs the engine plans for `keywords` under its default configuration.
fn plan(db: &Database, ts: &TupleSets) -> Vec<CandidateNetwork> {
    let oracle = MaskOracle::from_tuplesets(ts);
    let cfg = CnGenConfig {
        max_size: 5,
        dedupe: true,
        max_cns: 2000,
    };
    CnGenerator::new(db.schema_graph(), &oracle, cfg).generate()
}

fn uncached_engine(db: &Arc<Database>) -> RelationalEngine {
    RelationalEngine::with_config(
        Arc::clone(db),
        RelationalConfig {
            result_cache: CacheConfig::disabled(),
            ..Default::default()
        },
    )
}

#[test]
fn facets_add_no_join_and_a_drill_down_joins_only_what_can_pass() {
    let db = dblp();
    let engine = uncached_engine(&db);
    let plain = engine
        .execute(&SearchRequest::new("data query").k(5))
        .unwrap();
    let faceted = engine.execute(&faceted_request()).unwrap();
    // The same pruned top-k loop, facets or not.
    let joins = |r: &SearchResponse<RelationalHit>| {
        let s = &r.stats;
        (
            s.operators.rows_output,
            s.operators.joins_executed,
            s.operators.join_probe_rows,
            s.cns_evaluated,
            s.cns_pruned,
        )
    };
    assert_eq!(joins(&faceted), joins(&plain));
    assert!(plain.stats.cns_pruned > 0, "the fixture must prune");
    assert_eq!(format!("{:?}", faceted.hits), format!("{:?}", plain.hits));
    // The count pass charges what it looked up to the existing counters.
    let (f, p) = (&faceted.stats.operators, &plain.stats.operators);
    assert!(f.join_probes > p.join_probes && f.tuples_scanned > p.tuples_scanned);

    let ts = TupleSets::build(&db, &["data", "query"]).unwrap();
    let conference = db.table_id("conference").unwrap();
    let cns = plan(&db, &ts);
    let with_conference = cns
        .iter()
        .filter(|cn| cn.nodes.iter().any(|n| n.table == conference))
        .count() as u64;
    assert_eq!(faceted.stats.candidates_generated, cns.len() as u64);
    assert!(0 < with_conference && with_conference < cns.len() as u64);
    let clicked = Refinement::Term {
        attr: "conference.name".into(),
        value: faceted.facets[0].values[0].value.clone(),
    };
    let drill = engine
        .execute(&faceted_request().refine(clicked.clone()))
        .unwrap();
    let s = &drill.stats;
    assert!(!drill.hits.is_empty());
    assert!(s.cns_evaluated <= with_conference, "{s:?}");
    assert_eq!(s.cns_evaluated + s.cns_pruned, cns.len() as u64);
    // The refinement is in the join, not behind it. Compared where the
    // top-k prunes neither side (at k = 5 the unrefined page fills from
    // single-node CNs without one join, and the refined one cannot).
    let all = faceted_request().k(100_000);
    let unrefined = engine.execute(&all).unwrap().stats;
    let refined = engine.execute(&all.refine(clicked)).unwrap().stats;
    assert_eq!(unrefined.cns_evaluated, cns.len() as u64);
    assert_eq!(refined.cns_evaluated, with_conference);
    assert!(refined.operators.rows_output * 2 < unrefined.operators.rows_output);
    assert!(refined.operators.join_probes < unrefined.operators.join_probes);
}

#[test]
fn two_conference_nodes_split_a_drill_down_into_disjoint_cases() {
    // P → C, P cites P′ → C′: four results of `sigmod vldb`, each holding
    // two conferences.
    //   r1 (c1, p10 → p12, c2)   r2 (c1, p11 → p12, c2)
    //   r3 (c2, p13 → p10, c1)   r4 (c3, p14 → p12, c2)
    let mut db = Database::new();
    kwdb::relational::database::dblp_schema(&mut db).unwrap();
    for (cid, name, year) in [(1, "SIGMOD", 2007), (2, "VLDB", 2008), (3, "SIGMOD", 2012)] {
        db.insert("conference", vec![cid.into(), name.into(), year.into()])
            .unwrap();
    }
    for (pid, cid) in [(10, 1), (11, 1), (12, 2), (13, 2), (14, 3)] {
        db.insert("paper", vec![pid.into(), "untitled".into(), cid.into()])
            .unwrap();
    }
    for (id, citing, cited) in [(1, 10, 12), (2, 11, 12), (3, 13, 10), (4, 14, 12)] {
        db.insert("cite", vec![id.into(), citing.into(), cited.into()])
            .unwrap();
    }
    db.build_text_index();
    let engine = RelationalEngine::new(db);
    let decades = ["2000s", "2010s"]
        .iter()
        .zip([2000.0, 2010.0])
        .map(|(label, lo)| RangeBucket::new(*label, lo, lo + 10.0))
        .collect();
    let base = SearchRequest::new("sigmod vldb")
        .k(10)
        .facet(FacetSpec::terms("conference.name", 10))
        .facet(FacetSpec::range("conference.year", decades));
    let counts = |resp: &SearchResponse<RelationalHit>| {
        assert!(resp.facets_exact);
        let of = |f: usize, v: &str| resp.facets[f].count_of(v);
        (
            resp.hits.len(),
            [of(0, "SIGMOD"), of(0, "VLDB")],
            [of(1, "2000s"), of(1, "2010s")],
        )
    };
    let unrefined = engine.execute(&base).unwrap();
    // per occurrence: c1 in r1–r3, c2 in r1–r4, c3 in r4
    assert_eq!(counts(&unrefined), (4, [4, 4], [7, 1]));
    let decade = |lo: f64| Refinement::Range {
        attr: "conference.year".into(),
        lo,
        hi: lo + 10.0,
    };
    // r1–r3 pass at *both* nodes and count once; r4 passes at its second.
    let refined = engine
        .execute(&base.clone().refine(decade(2000.0)))
        .unwrap();
    assert_eq!(counts(&refined), (4, [4, 4], [7, 1]));
    // Only r4 holds a conference of the 2010s — and keeps its VLDB 2008.
    let refined = engine
        .execute(&base.clone().refine(decade(2010.0)))
        .unwrap();
    assert_eq!(counts(&refined), (1, [1, 1], [1, 1]));
    // Composed: a 2000s conference and a SIGMOD — either node may be both.
    let both = base
        .clone()
        .refine(decade(2000.0))
        .refine(Refinement::Term {
            attr: "conference.name".into(),
            value: "SIGMOD".into(),
        });
    assert_eq!(counts(&engine.execute(&both).unwrap()), (4, [4, 4], [7, 1]));
    let none = base.refine(decade(1990.0));
    assert_eq!(counts(&engine.execute(&none).unwrap()), (0, [0, 0], [0, 0]));
}
