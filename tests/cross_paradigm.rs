//! Integration: the same query answered through different paradigms must
//! tell one consistent story — CN evaluation over the relational engine,
//! graph search over the tuple-graph view, distinct-core communities, and
//! the RDBMS-powered formulation.

use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::engine::{GraphEngine, GraphSemantics, Hit, SearchRequest};
use kwdb::graph::graph::{from_database, EdgeWeighting};
use kwdb::graphsearch::{community, BanksI, Dpbf};
use kwdb::relational::ExecStats;
use kwdb::relsearch::cn::{CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::rdbms_power;
use kwdb::relsearch::topk::{naive, TopKQuery};
use kwdb::relsearch::{ResultScorer, TupleSets};
use std::collections::HashSet;

fn db() -> kwdb::relational::Database {
    generate_dblp(&DblpConfig {
        n_authors: 40,
        n_papers: 100,
        n_conferences: 6,
        ..Default::default()
    })
}

#[test]
fn cn_results_appear_as_graph_answers() {
    let db = db();
    let query: Vec<String> = vec!["widom".into(), "xml".into()];
    // CN pipeline
    let ts = TupleSets::build(&db, &query).unwrap();
    if !ts.covers_all_keywords() {
        return; // seed produced no xml+widom pairing — nothing to compare
    }
    let oracle = MaskOracle::from_tuplesets(&ts);
    let mut generator = CnGenerator::new(
        db.schema_graph(),
        &oracle,
        CnGenConfig {
            max_size: 4,
            dedupe: true,
            max_cns: 500,
        },
    );
    let cns = generator.generate();
    let scorer = ResultScorer::new(&db);
    let q = TopKQuery {
        db: &db,
        ts: &ts,
        cns: &cns,
        scorer: &scorer,
        keywords: &query,
    };
    let stats = ExecStats::new();
    let rel_hits = naive(&q, 10, &stats);

    // graph search over the tuple graph
    let (g, by_tuple) = from_database(&db, EdgeWeighting::Uniform);
    let dpbf = Dpbf::new(&g);
    let graph_hits = dpbf.search(&query, 10);

    // The CN pipeline is size-bounded (Tmax = 4) and uses exact-partition
    // free sets, so it can legitimately miss answers the unbounded graph
    // search finds; the reverse cannot happen — any CN result is a connected
    // tuple tree, hence a graph answer exists.
    if rel_hits.is_empty() {
        return;
    }
    assert!(
        !graph_hits.is_empty(),
        "CN pipeline found answers but graph search did not"
    );
    // every relational joining tree corresponds to a connected node set in
    // the graph whose total keyword coverage matches; check the top hit's
    // tuples all map to graph nodes
    let top = &rel_hits[0];
    for t in &top.result.tuples {
        assert!(
            by_tuple.contains_key(t),
            "tuple {t:?} missing from the graph view"
        );
    }
    // the optimal graph answer can never be larger than the best CN result's
    // joining tree (graph search may also join through rows CN pruning skips)
    assert!(graph_hits[0].size() <= top.result.tuples.len());
}

#[test]
fn rdbms_power_agrees_with_graph_communities() {
    let db = db();
    let query = ["data", "query"];
    let d_max = 2u32;
    let (cores_sql, _) = rdbms_power::search(&db, &query, d_max, 200);
    let (g, by_tuple) = from_database(&db, EdgeWeighting::Uniform);
    let communities = community::search(&g, &query, d_max as f64, 200);

    // map graph cores back to tuples for comparison
    let node_to_tuple: std::collections::HashMap<_, _> =
        by_tuple.iter().map(|(&t, &n)| (n, t)).collect();
    let graph_cores: HashSet<Vec<kwdb::relational::TupleId>> = communities
        .iter()
        .map(|c| c.core.iter().map(|n| node_to_tuple[n]).collect())
        .collect();
    let sql_cores: HashSet<Vec<kwdb::relational::TupleId>> =
        cores_sql.iter().map(|c| c.core.clone()).collect();
    // both enumerate nearest-match cores over the same graph: same sets
    assert_eq!(sql_cores, graph_cores);
}

#[test]
fn banks_cost_never_beats_dpbf() {
    let db = db();
    let (g, _) = from_database(&db, EdgeWeighting::Uniform);
    for query in [
        vec!["data", "query"],
        vec!["widom", "data"],
        vec!["sigmod", "search"],
    ] {
        let dpbf = Dpbf::new(&g);
        let exact = dpbf.search(&query, 1);
        let banks = BanksI::new(&g);
        let approx = banks.search(&query, 1);
        match (exact.first(), approx.first()) {
            (Some(e), Some(a)) => {
                assert!(
                    a.cost + 1e-9 >= e.cost,
                    "BANKS {} beat DPBF {} on {query:?}",
                    a.cost,
                    e.cost
                );
                a.validate(&g, &query).unwrap();
                e.validate(&g, &query).unwrap();
            }
            (None, None) => {}
            (e, a) => panic!("feasibility mismatch on {query:?}: {e:?} vs {a:?}"),
        }
    }
}

/// BANKS and BLINKS order answers by the distinct-root cost, DPBF by the
/// tree weight; `Hit::score()` reports whichever the engine ranked by, so it
/// never rises down a ranking, while `cost` stays the weight `validate()`
/// re-derives from the edges.
#[test]
fn graph_hits_are_ranked_by_the_score_they_report() {
    let db = db();
    let (g, _) = from_database(&db, EdgeWeighting::LogDegree);
    let engine = GraphEngine::new(g.clone());
    // Semantics under which some ranking's tree weights are *not* sorted —
    // where the two costs can be told apart.
    let mut weight_disagrees = Vec::new();
    for query in ["data query", "sigmod search", "vldb xml search"] {
        let keywords: Vec<&str> = query.split_whitespace().collect();
        for sem in [
            GraphSemantics::SteinerExact,
            GraphSemantics::Banks,
            GraphSemantics::DistinctRoot,
        ] {
            let req = SearchRequest::new(query).k(10).semantics(sem);
            let trees = engine.execute(&req).unwrap().hits;
            let scores: Vec<f64> = trees
                .iter()
                .map(|t| Hit::Graph(t.clone()).score())
                .collect();
            assert!(
                scores.windows(2).all(|w| w[0] >= w[1]),
                "{sem:?} {query:?}: scores rise down the ranking: {scores:?}"
            );
            for t in &trees {
                t.validate(&g, &keywords)
                    .unwrap_or_else(|e| panic!("{sem:?} {query:?}: {e}"));
                assert!(t.rank_cost + 1e-9 >= t.cost, "{sem:?} {query:?}: {t:?}");
            }
            if sem == GraphSemantics::SteinerExact {
                assert!(trees.iter().all(|t| t.rank_cost == t.cost), "{query:?}");
            } else if trees.windows(2).any(|w| w[0].cost > w[1].cost) {
                weight_disagrees.push(sem);
            }
        }
    }
    for sem in [GraphSemantics::Banks, GraphSemantics::DistinctRoot] {
        assert!(weight_disagrees.contains(&sem), "{sem:?}: fixture too tame");
    }
}
