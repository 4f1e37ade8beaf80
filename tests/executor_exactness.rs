//! Integration: the engine's CN executor (`relsearch::pexec`) returns the
//! exact top-k, with the text-derived scores' bits, on random DBLP-shaped
//! databases that change between queries.
//!
//! The executor reads a joined row's score at the row's position in its
//! tuple set (a pooled per-table row map), computes each row's score the
//! first time it is read, and bounds a CN by each column's maximum, found
//! without computing every row. This suite holds all three to references
//! that do none of it: every CN joined in full (`eval::evaluate_cn`), each
//! result scored from its tuples' text, ranked by score then content as the
//! executor's collector ranks ties; `topk::global_pipeline` and
//! `spark::naive_spark` for the score bits; and each column's maximum
//! against the largest text-derived score among its rows.
//!
//! One scratch pool serves every query of a database while rows are
//! ingested and deleted between rounds, so tombstones appear, the tables
//! outgrow the row maps the pool already holds, and a map left dirty by one
//! query would join wrong rows in the next.

use kwdb::relational::database::dblp_schema;
use kwdb::relational::schema::{ColumnType, TableBuilder};
use kwdb::relational::{Database, ExecStats, TupleId};
use kwdb::relsearch::cn::{CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::eval::evaluate_cn;
use kwdb::relsearch::facets::{resolve_refinements, result_passes};
use kwdb::relsearch::pexec::{parallel_topk_planned, EvalScratch};
use kwdb::relsearch::score::{ScoreTable, Scoring};
use kwdb::relsearch::spark::naive_spark;
use kwdb::relsearch::topk::{global_pipeline, TopKQuery};
use kwdb::relsearch::{JoinedResult, Refinement, ResultScorer, TupleSets};
use kwdb_common::{Budget, Rng, ScratchPool, Value};

const VOCAB: &[&str] = &[
    "xml", "data", "query", "graph", "search", "stream", "keyword", "index",
];

/// 0–`max` words from [`VOCAB`], repeats allowed (tf ≥ 2).
fn phrase(rng: &mut Rng, max: usize) -> String {
    let n = rng.gen_range(0..max + 1);
    let words: Vec<&str> = (0..n).map(|_| *rng.choose(VOCAB)).collect();
    words.join(" ")
}

/// The live primary keys of each table the mutations draw from.
#[derive(Default)]
struct Keys {
    conferences: Vec<i64>,
    authors: Vec<i64>,
    papers: Vec<i64>,
    writes: Vec<i64>,
    reviews: Vec<i64>,
    next: i64,
}

impl Keys {
    fn fresh(&mut self) -> i64 {
        self.next += 1;
        self.next
    }
}

/// The DBLP schema plus `review`, which has three text columns and points
/// at a paper.
fn schema() -> Database {
    let mut db = Database::new();
    dblp_schema(&mut db).unwrap();
    db.create_table(
        TableBuilder::new("review")
            .column("rid", ColumnType::Int)
            .column("pid", ColumnType::Int)
            .column("summary", ColumnType::Text)
            .column("body", ColumnType::Text)
            .column("verdict", ColumnType::Text)
            .primary_key("rid")
            .foreign_key("pid", "paper"),
    )
    .unwrap();
    db
}

/// Insert (before the index is built) or ingest (after) one row.
fn put(db: &mut Database, indexed: bool, table: &str, row: Vec<Value>) {
    if indexed {
        db.ingest(table, row).unwrap();
    } else {
        db.insert(table, row).unwrap();
    }
}

fn add_rows(db: &mut Database, rng: &mut Rng, keys: &mut Keys, indexed: bool, scale: usize) {
    for _ in 0..scale / 4 {
        let aid = keys.fresh();
        put(
            db,
            indexed,
            "author",
            vec![aid.into(), phrase(rng, 3).into()],
        );
        keys.authors.push(aid);
    }
    for _ in 0..scale {
        let pid = keys.fresh();
        let cid = match rng.gen_range(0..8usize) {
            0 => Value::Null,
            _ => (*rng.choose(&keys.conferences)).into(),
        };
        put(
            db,
            indexed,
            "paper",
            vec![pid.into(), phrase(rng, 5).into(), cid],
        );
        keys.papers.push(pid);
    }
    for _ in 0..scale * 3 / 2 {
        let wid = keys.fresh();
        let (aid, pid) = (*rng.choose(&keys.authors), *rng.choose(&keys.papers));
        put(
            db,
            indexed,
            "write",
            vec![wid.into(), aid.into(), pid.into()],
        );
        keys.writes.push(wid);
    }
    for _ in 0..scale / 2 {
        let id = keys.fresh();
        let (citing, cited) = (*rng.choose(&keys.papers), *rng.choose(&keys.papers));
        put(
            db,
            indexed,
            "cite",
            vec![id.into(), citing.into(), cited.into()],
        );
    }
    for _ in 0..scale / 2 {
        let rid = keys.fresh();
        let pid = *rng.choose(&keys.papers);
        let texts = [phrase(rng, 3), phrase(rng, 4), phrase(rng, 2)];
        let [summary, body, verdict] = texts.map(Value::from);
        put(
            db,
            indexed,
            "review",
            vec![rid.into(), pid.into(), summary, body, verdict],
        );
        keys.reviews.push(rid);
    }
}

fn delete_some(db: &mut Database, rng: &mut Rng, table: &str, keys: &mut Vec<i64>, n: usize) {
    for _ in 0..n {
        let pk = keys.swap_remove(rng.gen_index(keys.len()));
        db.delete(table, &pk.into()).unwrap();
    }
}

/// A text-scored result: its score, then the collector's tie order.
type Ranked = (f64, (usize, JoinedResult));

fn rank_by_content(mut all: Vec<Ranked>, k: usize) -> Vec<Ranked> {
    all.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    all.truncate(k);
    all
}

fn queries(rng: &mut Rng) -> Vec<Vec<&'static str>> {
    let mut queries: Vec<Vec<&'static str>> = vec![
        vec!["xml"],
        vec!["xml", "data"],
        vec!["xml", "xml"],
        vec!["graph", "absent"],
        vec!["search", "query", "xml"],
        vec!["data", "keyword", "index", "stream"],
        vec!["query", "query", "data"],
    ];
    for _ in 0..4 {
        let n = rng.gen_range(1..5usize);
        let draw = |rng: &mut Rng| match rng.gen_range(0..10usize) {
            0 => "absent",
            _ => *rng.choose(VOCAB),
        };
        queries.push((0..n).map(|_| draw(rng)).collect());
    }
    queries
}

/// What one database state showed, summed over its queries: how much the
/// checks had to bite on.
#[derive(Default)]
struct Coverage {
    /// Multi-keyword tuple sets with rows whose counts differ.
    mixed_sets: usize,
    /// Refined requests with a hit.
    refined_hits: usize,
    /// Requests whose hits filled k = 10.
    full_pages: usize,
}

fn check_state(
    db: &Database,
    pool: &ScratchPool<EvalScratch>,
    rng: &mut Rng,
    conference: &str,
    cov: &mut Coverage,
) {
    let scorer = ResultScorer::new(db);
    let refinement_sets = [
        vec![],
        vec![Refinement::Term {
            attr: "conference.name".into(),
            value: conference.into(),
        }],
        vec![Refinement::Range {
            attr: "conference.year".into(),
            lo: 2000.0,
            hi: 2010.0,
        }],
    ];
    let cn_cfg = CnGenConfig {
        max_size: 4,
        dedupe: true,
        max_cns: 0,
    };
    for kws in queries(rng) {
        let ts = TupleSets::build(db, &kws).unwrap();
        let cns = CnGenerator::new(db.schema_graph(), &MaskOracle::from_tuplesets(&ts), cn_cfg)
            .generate();
        let q = TopKQuery {
            db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &kws,
        };
        for model in [Scoring::Monotone, Scoring::Spark] {
            let ctx = format!("{kws:?} {model:?}");
            // Every column's maximum is its rows' largest text-derived score.
            let table = ScoreTable::new(&ts, &scorer, &kws, model);
            for (t, mask) in ts.keys() {
                let set = ts.get(t, mask).unwrap();
                let text = |tid| match model {
                    Scoring::Monotone => scorer.tuple_score(tid, &kws),
                    Scoring::Spark => scorer.watf(tid, &kws),
                };
                let best = (set.rows.iter())
                    .map(|&row| text(TupleId::new(t, row)))
                    .fold(0.0, f64::max);
                let column = table.column(t, mask).unwrap();
                assert_eq!(
                    column.best().to_bits(),
                    best.to_bits(),
                    "{ctx}: the maximum of {t:?} {mask:b}"
                );
                let width = mask.count_ones() as usize;
                if width > 1 && (1..set.rows.len()).any(|i| set.row_tfs(i) != set.row_tfs(0)) {
                    cov.mixed_sets += 1;
                }
            }

            // Every result of every CN, scored from the text.
            let mut all: Vec<Ranked> = Vec::new();
            for (ci, cn) in cns.iter().enumerate() {
                for r in evaluate_cn(db, cn, &ts, &ExecStats::new()) {
                    let score = match model {
                        Scoring::Monotone => scorer.monotone_score(&r, &kws),
                        Scoring::Spark => scorer.spark_score(&r, &kws),
                    };
                    all.push((score, (ci, r)));
                }
            }
            for refinements in &refinement_sets {
                let refinements = resolve_refinements(db, refinements).unwrap();
                let passing: Vec<Ranked> = (all.iter())
                    .filter(|(_, (_, r))| result_passes(db, &refinements, r))
                    .cloned()
                    .collect();
                for k in [1, 10, 100] {
                    let ctx = format!("{ctx}, k = {k}, refined by {refinements:?}");
                    let budget = Budget::unlimited();
                    let stats = ExecStats::new();
                    let out =
                        parallel_topk_planned(&q, k, model, &stats, &budget, pool, &refinements);
                    assert!(out.truncation.is_none(), "{ctx}");
                    assert_eq!(out.cns_evaluated + out.cns_pruned, cns.len() as u64);
                    let got: Vec<(u64, usize, &JoinedResult)> = (out.results.iter())
                        .map(|r| (r.score.to_bits(), r.cn_index, &r.result))
                        .collect();
                    let want = rank_by_content(passing.clone(), k);
                    let want: Vec<(u64, usize, &JoinedResult)> = (want.iter())
                        .map(|(score, (ci, r))| (score.to_bits(), *ci, r))
                        .collect();
                    assert_eq!(got, want, "{ctx}: hits");
                    if refinements.is_empty() {
                        let reference = match model {
                            Scoring::Monotone => global_pipeline(&q, k, &ExecStats::new()),
                            Scoring::Spark => naive_spark(&q, k, &ExecStats::new()),
                        };
                        let reference: Vec<u64> =
                            reference.iter().map(|r| r.score.to_bits()).collect();
                        let bits: Vec<u64> = got.iter().map(|h| h.0).collect();
                        assert_eq!(bits, reference, "{ctx}: score bits");
                    } else if !got.is_empty() {
                        cov.refined_hits += 1;
                    }
                    if k == 10 && got.len() == 10 {
                        cov.full_pages += 1;
                    }
                }
            }
        }
    }
}

#[test]
fn executor_equals_the_exhaustive_text_scored_reference_as_the_database_changes() {
    for seed in [0x5eed_0001u64, 0x5eed_0002] {
        let mut rng = Rng::seed_from_u64(seed);
        let mut db = schema();
        let mut keys = Keys::default();
        let conference = "xml data";
        for (i, name) in [conference, "graph", "search query", "stream", "xml"]
            .into_iter()
            .enumerate()
        {
            let cid = keys.fresh();
            let year = 1996 + 5 * i as i64;
            let row = vec![cid.into(), name.into(), year.into()];
            db.insert("conference", row).unwrap();
            keys.conferences.push(cid);
        }
        add_rows(&mut db, &mut rng, &mut keys, false, 32);
        db.build_text_index();

        let pool: ScratchPool<EvalScratch> = ScratchPool::new();
        let mut cov = Coverage::default();
        let mut paper_slots = Vec::new();
        for round in 0..2 {
            check_state(&db, &pool, &mut rng, conference, &mut cov);
            assert_eq!(
                pool.idle(),
                1,
                "seed {seed:#x}, round {round}: one scratch, reused"
            );
            let paper = db.table_id("paper").unwrap();
            paper_slots.push(db.table(paper).len());
            add_rows(&mut db, &mut rng, &mut keys, true, 12);
            delete_some(&mut db, &mut rng, "paper", &mut keys.papers, 4);
            delete_some(&mut db, &mut rng, "write", &mut keys.writes, 6);
            delete_some(&mut db, &mut rng, "review", &mut keys.reviews, 3);
            delete_some(&mut db, &mut rng, "author", &mut keys.authors, 1);
        }
        check_state(&db, &pool, &mut rng, conference, &mut cov);
        assert!(
            paper_slots.windows(2).all(|w| w[0] < w[1]),
            "the tables outgrow the pooled maps: {paper_slots:?}"
        );
        assert!(
            cov.mixed_sets > 0 && cov.refined_hits > 0 && cov.full_pages > 0,
            "seed {seed:#x}: {} mixed multi-keyword sets, {} refined requests with hits, \
             {} full pages",
            cov.mixed_sets,
            cov.refined_hits,
            cov.full_pages
        );
    }
}
