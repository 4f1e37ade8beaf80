//! Integration: the score the executor reads from the index ≡ the score
//! computed from the tuples' text, bit for bit.
//!
//! `relsearch::pexec` ranks from [`ScoreTable`] columns, filled from the
//! term frequencies the tuple sets kept from the postings;
//! `ResultScorer::tuple_score` re-tokenizes the tuple and counts. These
//! tests state that the two are the *same number* — for every row of every
//! tuple set, and for the engine's top-k against `topk::naive` — in every
//! state the index passes through (built, ingested into, committed, a
//! primary key deleted and ingested again, rebuilt from scratch). The
//! fixture has what makes a frequency more than a
//! flag: two text columns holding the same term, tuples with tf ≥ 2, a
//! query that repeats a keyword and one whose keyword no tuple contains.
//! `Scoring::Spark` is the same executor over `watf` columns: the second test
//! holds it to `spark::naive_spark` and, for what is not ranking, to `Monotone`.

use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::engine::{RelationalConfig, RelationalEngine, Scoring, SearchRequest};
use kwdb::relational::schema::{ColumnType, TableBuilder};
use kwdb::relational::{Database, ExecStats, Row, TupleId};
use kwdb::relsearch::cn::{CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::pexec::{parallel_topk_budgeted, EvalScratch};
use kwdb::relsearch::score::ScoreTable;
use kwdb::relsearch::spark::naive_spark;
use kwdb::relsearch::topk::{naive, TopKQuery};
use kwdb::relsearch::{CandidateNetwork, Refinement, ResultScorer, TupleSets};
use kwdb_common::{Budget, CacheConfig, FacetSpec, Rng, ScratchPool};

const WORDS: &[&str] = &[
    "keyword", "search", "database", "graph", "xml", "ranking", "index", "join", "stream", "query",
];

/// `n` words from the pool, repeats allowed — how a tuple gets tf ≥ 2.
fn phrase(rng: &mut Rng, n: usize) -> String {
    (0..n)
        .map(|_| WORDS[rng.gen_index(WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// venue(name, blurb) ← article(title, abstract) ← wrote → person(name):
/// two tables with two text columns each.
fn schema() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableBuilder::new("venue")
            .column("vid", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("blurb", ColumnType::Text)
            .primary_key("vid"),
    )
    .unwrap();
    db.create_table(
        TableBuilder::new("person")
            .column("pid", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key("pid"),
    )
    .unwrap();
    db.create_table(
        TableBuilder::new("article")
            .column("aid", ColumnType::Int)
            .column("title", ColumnType::Text)
            .column("abstract", ColumnType::Text)
            .column("vid", ColumnType::Int)
            .primary_key("aid")
            .foreign_key("vid", "venue"),
    )
    .unwrap();
    db.create_table(
        TableBuilder::new("wrote")
            .column("wid", ColumnType::Int)
            .column("pid", ColumnType::Int)
            .column("aid", ColumnType::Int)
            .primary_key("wid")
            .foreign_key("pid", "person")
            .foreign_key("aid", "article"),
    )
    .unwrap();
    db
}

const N_VENUES: i64 = 4;
const N_PEOPLE: i64 = 12;

fn venue(rng: &mut Rng, v: i64) -> (&'static str, Row) {
    let row = vec![
        v.into(),
        format!("venue{v} {}", phrase(rng, 1)).into(),
        phrase(rng, 3).into(),
    ];
    ("venue", row)
}

fn person(rng: &mut Rng, p: i64) -> (&'static str, Row) {
    let row = vec![p.into(), format!("person{p} {}", phrase(rng, 1)).into()];
    ("person", row)
}

/// An article and one authorship row; FK targets are drawn from the venues
/// and people every stage already holds.
fn article(rng: &mut Rng, a: i64) -> [(&'static str, Row); 2] {
    let article = vec![
        a.into(),
        phrase(rng, 3).into(),
        phrase(rng, 4).into(),
        (rng.gen_index(N_VENUES as usize) as i64).into(),
    ];
    let wrote = vec![
        a.into(),
        (rng.gen_index(N_PEOPLE as usize) as i64).into(),
        a.into(),
    ];
    [("article", article), ("wrote", wrote)]
}

/// The keyword lists every state is checked with. The last two cannot come
/// out of the engine's parser (it drops repeats) or cannot match (AND
/// semantics), so they exercise the library surface only.
fn queries() -> Vec<Vec<&'static str>> {
    vec![
        vec!["xml"],
        vec!["xml", "search"],
        vec!["graph", "ranking"],
        vec!["keyword", "database", "join"],
        vec!["xml", "xml"],
        vec!["xml", "nosuchterm"],
    ]
}

/// The CNs the engine's default configuration plans for `ts`.
fn engine_cns(db: &Database, ts: &TupleSets) -> Vec<CandidateNetwork> {
    let cfg = RelationalConfig::default();
    let gen_cfg = CnGenConfig {
        max_size: cfg.max_cn_size,
        dedupe: true,
        max_cns: cfg.max_cns,
    };
    CnGenerator::new(db.schema_graph(), &MaskOracle::from_tuplesets(ts), gen_cfg).generate()
}

/// Everything the suite claims, on one engine state.
fn check(engine: &RelationalEngine, what: &str) {
    let db = engine.database();
    let scorer = ResultScorer::new(&*db);
    let pool: ScratchPool<EvalScratch> = ScratchPool::new();
    for kws in queries() {
        let ctx = format!("{what}, query {kws:?}");
        let ts = TupleSets::build(&db, &kws).unwrap();
        let table = ScoreTable::new(&ts, &scorer, &kws, Scoring::Monotone);
        let bounds = ScoreTable::new(&ts, &scorer, &kws, Scoring::Spark);
        for (t, mask) in ts.keys() {
            let set = ts.get(t, mask).unwrap();
            let column = table.column(t, mask).unwrap().scores();
            let watf = bounds.column(t, mask).unwrap().scores();
            assert_eq!(column.len(), set.rows.len(), "{ctx}");
            let bits: Vec<usize> = (0..kws.len()).filter(|k| mask & (1 << k) != 0).collect();
            for (i, &row) in set.rows.iter().enumerate() {
                let tid = TupleId::new(t, row);
                // The frequencies are the text's …
                let toks = db.tuple_tokens(tid);
                let counted: Vec<u32> = bits
                    .iter()
                    .map(|&k| toks.iter().filter(|tok| *tok == kws[k]).count() as u32)
                    .collect();
                assert_eq!(set.row_tfs(i), counted, "{ctx}: tf of {tid:?}");
                // … and so are the score and the SPARK bound.
                let text = [scorer.tuple_score(tid, &kws), scorer.watf(tid, &kws)];
                assert_eq!(
                    [column[i], watf[i]].map(f64::to_bits),
                    text.map(f64::to_bits),
                    "{ctx}: score and watf of {tid:?}"
                );
            }
        }

        // The executor against the exhaustive reference, same CNs.
        let cns = engine_cns(&db, &ts);
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &kws,
        };
        let want: Vec<u64> = naive(&q, 10, &ExecStats::new())
            .iter()
            .map(|r| r.score.to_bits())
            .collect();
        let out = parallel_topk_budgeted(&q, 10, &ExecStats::new(), &Budget::unlimited(), 1, &pool);
        let got: Vec<u64> = out.results.iter().map(|r| r.score.to_bits()).collect();
        assert_eq!(got, want, "{ctx}: executor vs naive");
        let expressible = kws.iter().collect::<std::collections::HashSet<_>>().len() == kws.len();
        if expressible {
            let resp = engine
                .execute(&SearchRequest::new(kws.join(" ")).k(10))
                .unwrap();
            let got: Vec<u64> = resp.hits.iter().map(|h| h.score.to_bits()).collect();
            assert_eq!(got, want, "{ctx}: engine vs naive");
        }
    }
}

fn ingest_all(engine: &RelationalEngine, rows: impl IntoIterator<Item = (&'static str, Row)>) {
    for (table, row) in rows {
        engine.ingest_tuple(table, row).unwrap();
    }
}

#[test]
fn index_scores_equal_text_scores_in_every_index_state() {
    let mut rng = Rng::seed_from_u64(0x5c0e);
    let mut db = schema();
    let mut base: Vec<(&str, Row)> = Vec::new();
    base.extend((0..N_VENUES).map(|v| venue(&mut rng, v)));
    base.extend((0..N_PEOPLE).map(|p| person(&mut rng, p)));
    base.extend((0..40).flat_map(|a| article(&mut rng, a)));
    // The same term in both text columns of one tuple, three times over.
    base.push((
        "article",
        vec![
            900.into(),
            "xml xml search".into(),
            "xml ranking".into(),
            0.into(),
        ],
    ));
    base.push((
        "venue",
        vec![900.into(), "xml".into(), "xml graph xml".into()],
    ));
    for (table, row) in base {
        db.insert(table, row).unwrap();
    }
    db.build_text_index();
    let engine = RelationalEngine::new(db);
    check(&engine, "built");

    ingest_all(&engine, (40..60).flat_map(|a| article(&mut rng, a)));
    check(&engine, "ingested");

    engine.commit().unwrap();
    check(&engine, "committed");

    ingest_all(&engine, (60..70).flat_map(|a| article(&mut rng, a)));
    check(&engine, "ingested after a commit");

    // A primary key deleted and ingested again with other text: the new
    // row's counts, never the deleted one's.
    engine.delete_tuple("article", &900.into()).unwrap();
    check(&engine, "deleted");
    ingest_all(
        &engine,
        [(
            "article",
            vec![
                900.into(),
                "search search search".into(),
                "xml".into(),
                1.into(),
            ],
        )],
    );
    check(&engine, "re-ingested");

    let mut rebuilt = (*engine.database()).clone();
    rebuilt.build_text_index();
    let engine = RelationalEngine::new(rebuilt);
    check(&engine, "rebuilt");
}

#[test]
fn spark_ranks_like_naive_spark_and_counts_like_monotone() {
    const QUERY: &str = "keyword search database";
    const MODELS: [Scoring; 2] = [Scoring::Monotone, Scoring::Spark];
    let kws: Vec<&str> = QUERY.split(' ').collect();
    let db = generate_dblp(&DblpConfig {
        n_papers: 400,
        n_authors: 150,
        ..Default::default()
    });
    let ts = TupleSets::build(&db, &kws).unwrap();
    let q = TopKQuery {
        db: &db,
        ts: &ts,
        cns: &engine_cns(&db, &ts),
        scorer: &ResultScorer::new(&db),
        keywords: &kws,
    };
    let want: Vec<u64> = naive_spark(&q, 20, &ExecStats::new())
        .iter()
        .map(|r| r.score.to_bits())
        .collect();
    let cfg = RelationalConfig {
        result_cache: CacheConfig::disabled(),
        ..Default::default()
    };
    let engine = RelationalEngine::with_config(db, cfg);
    let run = |req: &SearchRequest, model| engine.execute(&req.clone().scoring(model));
    let both = |req: &SearchRequest| MODELS.map(|m| run(req, m).unwrap());
    for k in [1, 5, 20] {
        let resp = run(&SearchRequest::new(QUERY).k(k), Scoring::Spark).unwrap();
        let got: Vec<u64> = resp.hits.iter().map(|h| h.score.to_bits()).collect();
        assert_eq!(got, want[..k], "engine vs naive_spark, k = {k}");
        let s = &resp.stats;
        let cns = s.cns_evaluated + s.cns_pruned;
        assert_eq!(cns, s.candidates_generated);
        // 2.37 × 10⁹ through the per-combination sweep this replaced.
        assert!(s.operators.tuples_scanned <= 100_000);
    }
    // Facets, drill-downs, a candidate cap: the executor's, not the model's.
    let faceted = SearchRequest::new(QUERY)
        .k(5)
        .facet(FacetSpec::terms("conference.name", 10));
    let [monotone, spark] = both(&faceted);
    assert!(spark.facets_exact);
    assert_eq!(spark.facets, monotone.facets);
    let [monotone, spark] = both(&faceted.clone().refine(Refinement::Term {
        attr: "conference.name".into(),
        value: monotone.facets[0].values[9].value.clone(),
    }));
    assert!(!monotone.hits.is_empty());
    assert_eq!(spark.hits.len(), monotone.hits.len(), "drill-down");
    let cap = Budget::unlimited().with_max_candidates(2);
    let [monotone, spark] = both(&SearchRequest::new(QUERY).k(5).budget(cap));
    assert!(monotone.truncated());
    assert_eq!(spark.truncation, monotone.truncation, "cap verdict");
}
