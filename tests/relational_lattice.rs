//! The relational lattice: the engine's answer to a keyword query equals
//! the definition of that answer, at every point of the configuration
//! lattice, after every step of a mutation script.
//!
//! The definition (the oracle) is DISCOVER's over exact-subset tuple sets
//! and depends on the keyword *set*: every candidate network the generator
//! plans, joined in full by `eval::evaluate_cn`; each result scored from its
//! tuples' text by a scanning `ResultScorer::new`, under both `Scoring`s;
//! kept by `result_passes`; ranked by score, ties by (CN, tuples); counted
//! result by result by `FacetAccum::observe`; summarized by a breadth-first
//! walk that follows foreign keys by value. Beside the answers, the oracle
//! holds the substrate to scans: every term's posting list, `doc_freq`,
//! `doc_count` and `total_tokens` to a token scan of the live tuples, both
//! directions of the FK index to by-value partners, each tuple set's score
//! column maximum to its rows' text scores, and the executor's join of
//! every CN (`evaluate` on a one-CN slice, unbounded `k`, one pooled
//! scratch throughout) to `evaluate_cn`.
//!
//! The data comes from one seeded generator of small random schemas: a
//! table with several text columns and a foreign key into itself, NULL and
//! dangling foreign keys. The script ingests, deletes, re-ingests deleted
//! primary keys, raw-inserts (a query in between must be `IndexStale`) and
//! rebuilds, creates a table after the build, and commits. After each step
//! every scripted query runs at every lattice point — result cache on and
//! off; on the mutated database and on a clone whose derived structures
//! `build_text_index` rebuilt; keywords as generated and permuted — and is
//! compared with the oracle. A failure names the seed, step, query and
//! lattice point, then replays the seed with the script cut to its shortest
//! failing prefix.

use kwdb::common::text::parse_query;
use kwdb::common::{
    Budget, CacheConfig, FacetCounts, FacetSpec, KwdbError, RangeBucket, Rng, ScratchPool,
    TruncationReason, Value,
};
use kwdb::engine::{
    RelationalConfig, RelationalEngine, RelationalHit, Scoring, SearchRequest, SearchResponse,
};
use kwdb::relational::schema::{ColumnType, TableBuilder};
use kwdb::relational::{Database, ExecStats, Row, RowId, TupleId};
use kwdb::relsearch::cn::{CandidateNetwork, CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::facets::{resolve_facets, resolve_refinements, result_passes};
use kwdb::relsearch::pexec::{evaluate, EvalScratch};
use kwdb::relsearch::score::ScoreTable;
use kwdb::relsearch::topk::TopKQuery;
use kwdb::relsearch::{evaluate_cn, FacetAccum, JoinedResult, Refinement, ResultScorer, TupleSets};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The seeds the harness runs, each through the whole script.
const SEEDS: [u64; 3] = [0x1a77_1ce0, 0x1a77_1ce1, 0x1a77_1ce2];

const VOCAB: &[&str] = &[
    "xml", "data", "query", "graph", "search", "stream", "keyword",
];

/// A `k` above every result count the generator produces.
const UNBOUNDED: usize = 10_000;

/// The engines' CN size limit: four nodes reach a table twice
/// (venue–doc–doc–venue) at a third of the default's CNs.
const MAX_CN_SIZE: usize = 4;

/// The primary key of the one doc holding the words of the long queries.
const LONG_DOC: i64 = 777;

/// The script, one name per step; step 0 is the initial build.
const STEPS: [&str; 7] = [
    "build",
    "ingest",
    "delete",
    "re-ingest",
    "insert+rebuild",
    "create_table",
    "commit",
];

// Where the harness is: seed, step, query and lattice point. A caught panic
// reports it.
thread_local!(static WHERE: RefCell<String> = const { RefCell::new(String::new()) });

fn at(place: String) {
    WHERE.with(|w| *w.borrow_mut() = place);
}

/// 0–`max` words from [`VOCAB`], repeats allowed (tf ≥ 2).
fn phrase(rng: &mut Rng, max: usize) -> String {
    let n = rng.gen_range(0..max + 1);
    let words: Vec<&str> = (0..n).map(|_| *rng.choose(VOCAB)).collect();
    words.join(" ")
}

/// The words of the 31-, 32- and 33-keyword queries.
fn long_words() -> Vec<String> {
    (0..33).map(|i| format!("w{i}x")).collect()
}

/// One seed's schema and data, and the live keys its script draws from.
struct Gen {
    rng: Rng,
    /// Text columns of `doc` (two or three).
    doc_texts: usize,
    /// Whether the schema has `tag`.
    tag: bool,
    venues: Vec<i64>,
    people: Vec<i64>,
    docs: Vec<i64>,
    links: Vec<i64>,
    dead_docs: Vec<i64>,
    dead_people: Vec<i64>,
    next: i64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        let mut rng = Rng::seed_from_u64(seed);
        let (doc_texts, tag) = (rng.gen_range(2..=3usize), rng.gen_bool(0.5));
        Gen {
            rng,
            doc_texts,
            tag,
            venues: Vec::new(),
            people: Vec::new(),
            docs: Vec::new(),
            links: Vec::new(),
            dead_docs: Vec::new(),
            dead_people: Vec::new(),
            next: 0,
        }
    }

    fn fresh(&mut self) -> i64 {
        self.next += 1;
        self.next
    }

    /// venue ← doc (→ doc, its parent) ← link → person, and maybe
    /// tag → doc.
    fn schema(&self) -> Database {
        let mut db = Database::new();
        let table = |name| TableBuilder::new(name);
        db.create_table(
            (table("venue").column("vid", ColumnType::Int))
                .column("name", ColumnType::Text)
                .column("year", ColumnType::Int)
                .primary_key("vid"),
        )
        .unwrap();
        let person = table("person").column("pid", ColumnType::Int);
        let person = person.column("name", ColumnType::Text).primary_key("pid");
        db.create_table(person).unwrap();
        let mut doc = table("doc").column("did", ColumnType::Int);
        for name in &["title", "body", "note"][..self.doc_texts] {
            doc = doc.column(name, ColumnType::Text);
        }
        let doc = (doc.column("vid", ColumnType::Int))
            .column("parent", ColumnType::Int)
            .primary_key("did")
            .foreign_key("vid", "venue")
            .foreign_key("parent", "doc");
        db.create_table(doc).unwrap();
        db.create_table(
            (table("link").column("lid", ColumnType::Int))
                .column("pid", ColumnType::Int)
                .column("did", ColumnType::Int)
                .primary_key("lid")
                .foreign_key("pid", "person")
                .foreign_key("did", "doc"),
        )
        .unwrap();
        if self.tag {
            db.create_table(
                (table("tag").column("tid", ColumnType::Int))
                    .column("did", ColumnType::Int)
                    .column("label", ColumnType::Text)
                    .primary_key("tid")
                    .foreign_key("did", "doc"),
            )
            .unwrap();
        }
        db
    }

    /// A live key of `keys`, or NULL one time in `null_in`.
    fn key_or_null(&mut self, keys: &[i64], null_in: usize) -> Value {
        match keys.is_empty() || self.rng.gen_index(null_in) == 0 {
            true => Value::Null,
            false => (*self.rng.choose(keys)).into(),
        }
    }

    fn venue(&mut self) -> (&'static str, Row) {
        let vid = self.fresh();
        self.venues.push(vid);
        let name = format!("{} {}", self.rng.choose(VOCAB), phrase(&mut self.rng, 1));
        let year = self.rng.gen_range(1995..2025i64);
        ("venue", vec![vid.into(), name.trim().into(), year.into()])
    }

    fn person(&mut self, pid: i64) -> (&'static str, Row) {
        self.people.push(pid);
        let name = format!("p{pid} {}", phrase(&mut self.rng, 2));
        ("person", vec![pid.into(), name.trim().into()])
    }

    /// A doc under a live venue (or none) and a live parent (or none,
    /// or `parent` when given).
    fn doc(&mut self, did: i64, parent: Option<Value>) -> (&'static str, Row) {
        let mut row: Row = vec![did.into()];
        for max in [3, 4, 2].into_iter().take(self.doc_texts) {
            row.push(phrase(&mut self.rng, max).into());
        }
        let venues = self.venues.clone();
        row.push(self.key_or_null(&venues, 6));
        let docs = self.docs.clone();
        row.push(parent.unwrap_or_else(|| self.key_or_null(&docs, 2)));
        self.docs.push(did);
        ("doc", row)
    }

    fn link(&mut self, person: Option<Value>) -> (&'static str, Row) {
        let lid = self.fresh();
        self.links.push(lid);
        let people = self.people.clone();
        let pid = person.unwrap_or_else(|| self.key_or_null(&people, 10));
        let did = (*self.rng.choose(&self.docs)).into();
        ("link", vec![lid.into(), pid, did])
    }

    fn tags(&mut self, n: usize) -> Vec<(&'static str, Row)> {
        let mut rows = Vec::new();
        for _ in 0..n * usize::from(self.tag) {
            let (tid, did) = (self.fresh(), *self.rng.choose(&self.docs));
            let label = phrase(&mut self.rng, 2);
            rows.push(("tag", vec![tid.into(), did.into(), label.into()]));
        }
        rows
    }

    /// The rows of the initial build, with NULL foreign keys and dangling
    /// ones: a parent and a link wait for doc 999, a link for person 998.
    fn initial(&mut self) -> Vec<(&'static str, Row)> {
        let mut rows: Vec<(&str, Row)> = Vec::new();
        for _ in 0..self.rng.gen_range(3..=5usize) {
            rows.push(self.venue());
        }
        for _ in 0..self.rng.gen_range(5..=8usize) {
            let pid = self.fresh();
            rows.push(self.person(pid));
        }
        for _ in 0..self.rng.gen_range(12..=16usize) {
            let did = self.fresh();
            rows.push(self.doc(did, None));
        }
        let mut long = self.doc(LONG_DOC, Some(Value::Null));
        long.1[self.doc_texts] = long_words().join(" ").into();
        rows.push(long);
        rows.push(self.doc(self.next + 1, Some(999.into())));
        self.next += 1;
        for _ in 0..self.rng.gen_range(16..=22usize) {
            rows.push(self.link(None));
        }
        rows.push(self.link(Some(998.into())));
        rows.push(("link", vec![900.into(), 1.into(), 999.into()]));
        rows.extend(self.tags(5));
        rows
    }
}

fn engine(db: Database, cache: bool) -> RelationalEngine {
    let result_cache = match cache {
        true => CacheConfig::default(),
        false => CacheConfig::disabled(),
    };
    let cfg = RelationalConfig {
        max_cn_size: MAX_CN_SIZE,
        result_cache,
        ..Default::default()
    };
    RelationalEngine::with_config(db, cfg)
}

/// The database under test, behind a cache-on and a cache-off engine that
/// live as long as the data allows: ingest, delete and commit go through
/// both, so results the cache holds must fall out on the generation bump.
struct Mutated {
    on: RelationalEngine,
    off: RelationalEngine,
}

impl Mutated {
    fn new(db: Database) -> Mutated {
        Mutated {
            on: engine(db.clone(), true),
            off: engine(db, false),
        }
    }

    fn ingest(&self, rows: &[(&'static str, Row)]) {
        for (table, row) in rows {
            for e in [&self.on, &self.off] {
                e.ingest_tuple(table, row.clone()).unwrap();
            }
        }
    }

    fn delete(&self, table: &str, pk: i64) {
        for e in [&self.on, &self.off] {
            e.delete_tuple(table, &pk.into()).unwrap();
        }
    }
}

/// Apply step `step` of the script.
fn apply(step: usize, g: &mut Gen, m: &mut Mutated) {
    match STEPS[step] {
        "ingest" => {
            let venue = g.venue();
            let people = [g.person(998), g.person(g.next + 1)];
            g.next += 1;
            // doc 999 adopts the parent and link waiting for it; the docs
            // after it may name it as their parent
            let mut rows = vec![venue, people[0].clone(), people[1].clone()];
            rows.push(g.doc(999, Some(Value::Null)));
            for _ in 0..3 {
                let did = g.fresh();
                rows.push(g.doc(did, None));
            }
            rows.extend((0..4).map(|i| g.link((i == 0).then_some(Value::Null))));
            rows.extend(g.tags(2));
            m.ingest(&rows);
        }
        "delete" => {
            for _ in 0..3 {
                let at = g.rng.gen_index(g.docs.len());
                let did = g.docs.swap_remove(at);
                if did == LONG_DOC {
                    g.docs.push(did);
                    continue;
                }
                m.delete("doc", did);
                g.dead_docs.push(did);
            }
            let pid = g.people.swap_remove(g.rng.gen_index(g.people.len()));
            m.delete("person", pid);
            g.dead_people.push(pid);
            for _ in 0..2 {
                let lid = g.links.swap_remove(g.rng.gen_index(g.links.len()));
                m.delete("link", lid);
            }
        }
        "re-ingest" => {
            // the same keys, new text: referencing rows join the new rows
            let did = g.dead_docs.pop().unwrap();
            let pid = g.dead_people.pop().unwrap();
            let rows = [g.doc(did, None), g.person(pid)];
            m.ingest(&rows);
        }
        "insert+rebuild" => {
            let mut db = (*m.off.database()).clone();
            let did = g.fresh();
            let dangling = g.doc(did, Some(5_000.into()));
            let link = g.link(None);
            for (table, row) in [dangling, link] {
                db.insert(table, row).unwrap();
            }
            let indexed = db.generation() - 2;
            at(format!("{} (stale)", WHERE.with(|w| w.borrow().clone())));
            let stale = Mutated::new(db.clone());
            for e in [&stale.on, &stale.off] {
                let err = e.execute(&SearchRequest::new("data")).unwrap_err();
                let want = KwdbError::IndexStale {
                    indexed,
                    current: indexed + 2,
                };
                assert_eq!(err, want, "a query between a raw insert and the rebuild");
            }
            db.build_text_index();
            *m = Mutated::new(db);
        }
        "create_table" => {
            let mut db = (*m.off.database()).clone();
            let note = TableBuilder::new("note")
                .column("nid", ColumnType::Int)
                .column("did", ColumnType::Int)
                .column("body", ColumnType::Text)
                .primary_key("nid")
                .foreign_key("did", "doc");
            db.create_table(note).unwrap();
            assert!(db.is_index_fresh(), "a new table leaves the index fresh");
            for i in 0..4 {
                let docs = g.docs.clone();
                let did = g.key_or_null(&docs, 4 - i);
                let (nid, body) = (g.fresh(), phrase(&mut g.rng, 3));
                db.ingest("note", vec![nid.into(), did, body.into()])
                    .unwrap();
            }
            *m = Mutated::new(db);
        }
        "commit" => {
            for e in [&m.on, &m.off] {
                e.commit().unwrap();
            }
        }
        other => unreachable!("{other}"),
    }
}

/// The terms facet and range facet on `venue`, and terms facets on
/// `person` (two nodes of one CN: person–link–doc–link–person) and `doc`.
fn facet_specs() -> Vec<FacetSpec> {
    let decades = (1990..2030)
        .step_by(10)
        .map(|y| RangeBucket::new(format!("{y}s"), y as f64, (y + 10) as f64))
        .collect();
    vec![
        FacetSpec::terms("venue.name", 1000),
        FacetSpec::range("venue.year", decades),
        FacetSpec::terms("person.name", 1000),
        FacetSpec::terms("doc.title", 1000),
    ]
}

/// The CNs the harness's engines plan for `ts`.
fn plan(db: &Database, ts: &TupleSets) -> Vec<CandidateNetwork> {
    let gen = CnGenConfig {
        max_size: MAX_CN_SIZE,
        dedupe: true,
        max_cns: RelationalConfig::default().max_cns,
    };
    CnGenerator::new(db.schema_graph(), &MaskOracle::from_tuplesets(ts), gen).generate()
}

/// A scored result of the definition: its scores under both models, then
/// the executor's tie order (CN, tuples).
type Scored = ([f64; 2], (usize, JoinedResult));

/// The definition of one query's answer, before ranking and refining.
struct Definition {
    cns: Vec<CandidateNetwork>,
    results: Vec<Scored>,
}

/// Every CN joined in full and every result scored from its text, over the
/// keyword *set* (sorted); `Err` where the engine must refuse the query.
fn define(
    db: &Database,
    query: &str,
    pool: &ScratchPool<EvalScratch>,
    joins: bool,
) -> Result<Definition, KwdbError> {
    let mut keywords = parse_query(query);
    keywords.sort();
    let mut def = Definition {
        cns: Vec::new(),
        results: Vec::new(),
    };
    if keywords.is_empty() {
        return Ok(def);
    }
    let ts = TupleSets::build(db, &keywords)?;
    if !ts.covers_all_keywords() {
        return Ok(def);
    }
    def.cns = plan(db, &ts);
    let scorer = ResultScorer::new(db);
    for (m, model) in [Scoring::Monotone, Scoring::Spark].into_iter().enumerate() {
        // Each column's maximum is its rows' largest text score.
        let table = ScoreTable::new(&ts, &scorer, &keywords, model);
        for (t, mask) in ts.keys() {
            let text = |row| {
                let tid = TupleId::new(t, row);
                [
                    scorer.tuple_score(tid, &keywords),
                    scorer.watf(tid, &keywords),
                ][m]
            };
            let rows = &ts.get(t, mask).unwrap().rows;
            let best = rows.iter().map(|&r| text(r)).fold(0.0, f64::max);
            let got = table.column(t, mask).unwrap().best();
            assert_eq!(
                got.to_bits(),
                best.to_bits(),
                "{model:?} column maximum of {t:?} {mask:b}"
            );
        }
    }
    for (ci, cn) in def.cns.iter().enumerate() {
        let mut all = evaluate_cn(db, cn, &ts, &ExecStats::new());
        if joins {
            // The executor's join of this CN alone, every row kept.
            let q = TopKQuery {
                db,
                ts: &ts,
                cns: std::slice::from_ref(cn),
                scorer: &scorer,
                keywords: &keywords,
            };
            let budget = Budget::unlimited();
            let out = evaluate(
                &q,
                UNBOUNDED,
                Scoring::Monotone,
                &ExecStats::new(),
                &budget,
                &mut pool.checkout(EvalScratch::new),
                &[],
            );
            let mut joined: Vec<JoinedResult> = out.results.into_iter().map(|r| r.result).collect();
            joined.sort();
            all.sort();
            assert_eq!(
                joined,
                all,
                "the executor's join of {}",
                cn.display(db, &keywords)
            );
        }
        for r in all {
            let scores = [
                scorer.monotone_score(&r, &keywords),
                scorer.spark_score(&r, &keywords),
            ];
            def.results.push((scores, (ci, r)));
        }
    }
    assert!(
        def.results.len() < UNBOUNDED,
        "k = {UNBOUNDED} must be unbounded"
    );
    Ok(def)
}

/// What a request's response must hold, in comparable form.
#[derive(Debug, PartialEq)]
struct Answer {
    /// Score bits and tuples of each hit, in rank order.
    hits: Vec<(u64, Vec<TupleId>)>,
    summaries: Vec<Vec<String>>,
    facets: Vec<FacetCounts>,
    truncation: Option<TruncationReason>,
}

fn observed(resp: &SearchResponse<RelationalHit>) -> Answer {
    Answer {
        hits: (resp.hits.iter())
            .map(|h| (h.score.to_bits(), h.tuples.clone()))
            .collect(),
        summaries: resp.hits.iter().map(|h| h.summary.clone()).collect(),
        facets: resp.facets.clone(),
        truncation: resp.truncation,
    }
}

/// A size-`l` object summary by value: outgoing hops by `lookup_pk` of the
/// FK value, incoming hops by a scan of the referencing table in row order.
fn summary_by_value(db: &Database, seeds: &[TupleId], l: usize) -> Vec<String> {
    let mut out: Vec<TupleId> = Vec::new();
    let mut frontier = VecDeque::new();
    let visit = |t: TupleId, out: &mut Vec<TupleId>| {
        let new = out.len() < l && !out.contains(&t);
        if new {
            out.push(t);
        }
        new
    };
    for &t in seeds {
        if visit(t, &mut out) {
            frontier.push_back(t);
        }
    }
    while let Some(t) = frontier.pop_front() {
        let mut hop = db.fk_neighbors(t);
        for e in db.schema_graph().edges().iter().filter(|e| e.to == t.table) {
            let pk = db.table(t.table).get(t.row, e.pk_column);
            let referencing = db
                .table(e.from)
                .iter()
                .filter(|(_, row)| &row[e.fk_column] == pk);
            hop.extend(referencing.map(|(r, _)| TupleId::new(e.from, r)));
        }
        for n in hop {
            if visit(n, &mut out) {
                frontier.push_back(n);
            }
        }
    }
    out.into_iter().map(|t| db.format_tuple(t)).collect()
}

/// One scripted request, built over either keyword order.
#[derive(Debug, Clone)]
struct Req {
    k: usize,
    model: Scoring,
    facets: bool,
    refinements: Vec<Refinement>,
    summaries: usize,
    cap: Option<u64>,
}

impl Req {
    fn plain(k: usize, model: Scoring) -> Req {
        Req {
            k,
            model,
            facets: false,
            refinements: Vec::new(),
            summaries: 0,
            cap: None,
        }
    }

    fn build(&self, query: &str) -> SearchRequest {
        let mut req = (SearchRequest::new(query).k(self.k))
            .scoring(self.model)
            .summaries(self.summaries);
        if self.facets {
            req = req.facets(facet_specs());
        }
        for r in &self.refinements {
            req = req.refine(r.clone());
        }
        match self.cap {
            Some(c) => req.budget(Budget::unlimited().with_max_candidates(c)),
            None => req,
        }
    }
}

/// The definition's answer to `req` (uncapped).
fn expected(db: &Database, def: &Definition, req: &Req) -> Answer {
    let refinements = resolve_refinements(db, &req.refinements).unwrap();
    let specs = if req.facets {
        facet_specs()
    } else {
        Vec::new()
    };
    let facets = resolve_facets(db, &specs).unwrap();
    let m = usize::from(req.model == Scoring::Spark);
    let mut passing: Vec<&Scored> = (def.results.iter())
        .filter(|(_, (_, r))| result_passes(db, &refinements, r))
        .collect();
    let mut counts = FacetAccum::new(facets.len());
    for (_, (_, r)) in &passing {
        counts.observe(db, &facets, r);
    }
    passing.sort_by(|a, b| b.0[m].total_cmp(&a.0[m]).then_with(|| a.1.cmp(&b.1)));
    passing.truncate(req.k);
    let l = req.summaries;
    Answer {
        hits: (passing.iter())
            .map(|(s, (_, r))| (s[m].to_bits(), r.tuples.clone()))
            .collect(),
        summaries: (passing.iter())
            .map(|(_, (_, r))| match l {
                0 => Vec::new(),
                l => summary_by_value(db, &r.tuples, l),
            })
            .collect(),
        facets: counts.finish(&facets),
        truncation: None,
    }
}

/// The substrate against scans: every posting list, `doc_freq`,
/// `doc_count` and `total_tokens` against the live tuples' tokens, and both
/// directions of the FK index against by-value partners.
fn check_substrate(db: &Database) {
    let ix = db.text_index().unwrap();
    let mut scan: BTreeMap<String, BTreeMap<TupleId, u32>> = BTreeMap::new();
    let (mut docs, mut tokens) = (0, 0);
    for t in db.tables() {
        for (rid, _) in t.iter() {
            let tid = TupleId::new(t.id, rid);
            let toks = db.tuple_tokens(tid);
            (docs, tokens) = (docs + 1, tokens + toks.len() as u64);
            for tok in toks {
                *scan.entry(tok).or_default().entry(tid).or_default() += 1;
            }
        }
    }
    assert_eq!(
        (ix.doc_count(), ix.total_tokens()),
        (docs, tokens),
        "documents and tokens"
    );
    let none = BTreeMap::new();
    for term in ix.terms() {
        let want: Vec<(TupleId, u32)> = scan
            .get(term)
            .unwrap_or(&none)
            .iter()
            .map(|(&t, &tf)| (t, tf))
            .collect();
        let got: Vec<(TupleId, u32)> = ix.postings(term).iter().map(|p| (p.tuple, p.tf)).collect();
        assert_eq!(got, want, "postings of {term:?}");
        assert_eq!(ix.doc_freq(term), want.len(), "doc_freq of {term:?}");
    }
    assert!(
        scan.keys().all(|term| ix.sym(term).is_some()),
        "a scanned term is missing"
    );
    for (ei, e) in db.schema_graph().edges().iter().enumerate() {
        let (from, to) = (db.table(e.from), db.table(e.to));
        for (rid, row) in from.iter() {
            let by_value = to.lookup_pk(&row[e.fk_column]);
            assert_eq!(
                db.referenced_row(ei, rid),
                by_value,
                "edge {ei}: referenced by {rid:?}"
            );
        }
        for (rid, row) in to.iter() {
            let mut indexed: Vec<RowId> = db.referencing_rows(ei, rid).collect();
            indexed.sort();
            let pk = &row[e.pk_column];
            let scanned: Vec<RowId> = (from.iter())
                .filter(|(_, r)| &r[e.fk_column] == pk)
                .map(|(r, _)| r)
                .collect();
            assert_eq!(indexed, scanned, "edge {ei}: referencing {rid:?}");
        }
    }
}

/// How much the checks had to bite on, over every seed.
#[derive(Default)]
struct Coverage {
    results: usize,
    refined_with_hits: usize,
    /// Refined requests with hits whose refined table occurs 0, 1 and 2+
    /// times in some CN.
    occurrences: [usize; 3],
    /// Refined results that pass at a later node of the refined table only.
    later_node_only: usize,
    summaries: usize,
    capped: usize,
    reordered: usize,
    long_queries: usize,
}

/// A token of a random live tuple of `table`: keywords come from where the
/// data is.
fn token(db: &Database, table: &str, rng: &mut Rng) -> String {
    let t = db.table_by_name(table).unwrap();
    let rows: Vec<RowId> = t.iter().map(|(rid, _)| rid).collect();
    let tokens = db.tuple_tokens(TupleId::new(t.id, *rng.choose(&rows)));
    match tokens.is_empty() {
        true => rng.choose(VOCAB).to_string(),
        false => rng.choose(&tokens).clone(),
    }
}

/// The state's keyword queries, each sorted (the generated order): one,
/// two and three keywords from the data, a duplicate, an absent one.
fn keyword_sets(db: &Database, rng: &mut Rng) -> Vec<Vec<String>> {
    let mut sets = Vec::new();
    for tables in [
        &["doc"][..],
        &["doc", "person"],
        &["doc", "venue", "person"],
        &["doc", "doc"],
    ] {
        sets.push(tables.iter().map(|t| token(db, t, rng)).collect::<Vec<_>>());
    }
    let dup = token(db, "doc", rng);
    sets.push(vec![dup.clone(), dup, token(db, "venue", rng)]);
    sets.push(vec![token(db, "person", rng), "zzabsent".into()]);
    for set in &mut sets {
        set.sort();
    }
    sets
}

/// 0–2 refinements on values the unrefined answer shows.
fn refinements(rng: &mut Rng, shown: &[FacetCounts]) -> Vec<Refinement> {
    let specs = facet_specs();
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(0..=2usize) {
        let f = rng.gen_index(specs.len());
        let values: Vec<_> = shown[f].values.iter().filter(|v| v.count > 0).collect();
        if values.is_empty() {
            continue;
        }
        let value = rng.choose(&values).value.clone();
        out.push(match &specs[f] {
            FacetSpec::Terms { attr, .. } => Refinement::Term {
                attr: attr.clone(),
                value,
            },
            FacetSpec::Range { attr, buckets } => {
                let b = buckets.iter().find(|b| b.label == value).unwrap();
                let (lo, hi) = (b.lo, b.hi);
                Refinement::Range {
                    attr: attr.clone(),
                    lo,
                    hi,
                }
            }
        });
    }
    out
}

/// One state's engines: the mutated pair and a rebuilt pair.
type Points<'a> = [(&'static str, &'a RelationalEngine); 4];

/// `req` over `query` as generated and as `permuted` at every lattice
/// point, each response handed to `check`.
fn at_every_point(
    points: &Points<'_>,
    query: &str,
    permuted: &str,
    req: &Req,
    mut check: impl FnMut(kwdb::Result<SearchResponse<RelationalHit>>),
) {
    let place = WHERE.with(|w| w.borrow().clone());
    for (engine_point, engine) in points {
        for (order, q) in [
            ("keywords as generated", query),
            ("keywords permuted", permuted),
        ] {
            at(format!(
                "{place} {req:?}, lattice point: {engine_point}, {order}"
            ));
            check(engine.execute(&req.build(q)));
        }
    }
    at(place);
}

/// Every scripted query of one state at every lattice point, against the
/// definition on the mutated database.
fn check_state(m: &Mutated, rng: &mut Rng, pool: &ScratchPool<EvalScratch>, cov: &mut Coverage) {
    let db = m.off.database();
    let place = WHERE.with(|w| w.borrow().clone());
    let mut rebuilt = (*db).clone();
    rebuilt.build_text_index();
    for what in [&*db, &rebuilt] {
        check_substrate(what);
    }
    let (rebuilt_on, rebuilt_off) = (engine(rebuilt.clone(), true), engine(rebuilt, false));
    let points: Points<'_> = [
        ("mutated, cache on", &m.on),
        ("mutated, cache off", &m.off),
        ("rebuilt, cache on", &rebuilt_on),
        ("rebuilt, cache off", &rebuilt_off),
    ];
    let models = [Scoring::Monotone, Scoring::Spark];
    for (qi, set) in keyword_sets(&db, rng).into_iter().enumerate() {
        let query = set.join(" ");
        let mut permuted = set.clone();
        permuted.reverse();
        let permuted = permuted.join(" ");
        cov.reordered += usize::from(parse_query(&query) != parse_query(&permuted));
        at(format!("{place}, query {query:?}"));
        let def = define(&db, &query, pool, qi < 3).unwrap();
        let shown = expected(
            &db,
            &def,
            &Req {
                facets: true,
                ..Req::plain(0, Scoring::Monotone)
            },
        )
        .facets;
        let refined = refinements(rng, &shown);
        let reqs = [
            Req::plain([1, 3, 10, UNBOUNDED][qi % 4], models[qi % 2]),
            Req {
                facets: true,
                refinements: refined.clone(),
                ..Req::plain(UNBOUNDED, models[(qi + 1) % 2])
            },
            Req {
                facets: true,
                refinements: refined.clone(),
                summaries: 1 + qi % 5,
                ..Req::plain(3, models[qi % 2])
            },
        ];
        for req in &reqs {
            let want = expected(&db, &def, req);
            at_every_point(&points, &query, &permuted, req, |got| {
                let got = got.unwrap();
                assert!(got.facets_exact, "facets_exact");
                let s = &got.stats;
                if s.result_cache_hits == 0 {
                    let n = def.cns.len() as u64;
                    assert_eq!(s.cns_evaluated + s.cns_pruned, n, "every CN accounted for");
                }
                assert_eq!(observed(&got), want);
            });
            cov.results += want.hits.len();
            cov.summaries += want.summaries.iter().map(Vec::len).sum::<usize>();
        }
        // How often the refined tables occur in the CNs of a refined query
        // that has hits (0, 1, 2 or more), and how many of its results pass
        // at a later node of their table only: the case a CN with the table
        // twice splits off.
        let resolved = resolve_refinements(&db, &refined).unwrap();
        let passing: Vec<&JoinedResult> = (def.results.iter())
            .map(|(_, (_, r))| r)
            .filter(|r| result_passes(&db, &resolved, r))
            .collect();
        if !refined.is_empty() && !passing.is_empty() {
            cov.refined_with_hits += 1;
            for cn in &def.cns {
                for rf in &resolved {
                    let n = cn.nodes.iter().filter(|n| n.table == rf.table).count();
                    cov.occurrences[n.min(2)] += 1;
                }
            }
            for r in passing {
                for rf in &resolved {
                    let at: Vec<TupleId> = r
                        .tuples
                        .iter()
                        .copied()
                        .filter(|t| t.table == rf.table)
                        .collect();
                    let first = JoinedResult {
                        tuples: at[..1].to_vec(),
                    };
                    let later_only = !result_passes(&db, std::slice::from_ref(rf), &first);
                    cov.later_node_only += usize::from(at.len() > 1 && later_only);
                }
            }
        }
        // A candidate cap: the verdict says whether it cut any CN, and the
        // hits are results of the definition with their scores, best first.
        let n = def.cns.len() as u64;
        if n > 0 {
            let cap = Req {
                cap: Some(1 + rng.gen_index(n as usize) as u64),
                ..Req::plain(10, models[qi % 2])
            };
            let mut first: Option<Answer> = None;
            let m = usize::from(cap.model == Scoring::Spark);
            let scores: BTreeMap<&[TupleId], u64> = (def.results.iter())
                .map(|(s, (_, r))| (r.tuples.as_slice(), s[m].to_bits()))
                .collect();
            at_every_point(&points, &query, &permuted, &cap, |got| {
                let got = got.unwrap();
                let cut = cap.cap < Some(n);
                assert_eq!(
                    got.truncation,
                    cut.then_some(TruncationReason::CandidateCapReached)
                );
                let s = &got.stats;
                assert_eq!(s.cns_evaluated + s.cns_pruned, n, "every CN accounted for");
                assert!(Some(s.cns_evaluated) <= cap.cap, "evaluated past the cap");
                assert!(
                    got.hits.windows(2).all(|w| w[0].score >= w[1].score),
                    "sorted"
                );
                for h in &got.hits {
                    assert_eq!(
                        scores.get(h.tuples.as_slice()),
                        Some(&h.score.to_bits()),
                        "a capped hit"
                    );
                }
                let got = observed(&got);
                match &first {
                    Some(first) => assert_eq!(&got, first, "the cap cuts at the same point"),
                    None => first = Some(got),
                }
            });
            cov.capped += usize::from(cap.cap < Some(n));
        }
    }
    // 31 and 32 keywords: the one doc holding them all; 33: a typed error.
    let words = long_words();
    for n in [31, 32, 33] {
        let query = words[..n].join(" ");
        let mut permuted = words[..n].to_vec();
        permuted.reverse();
        at(format!("{place}, {n} keywords"));
        let req = Req::plain(10, Scoring::Monotone);
        match define(&db, &query, pool, false) {
            Ok(def) => {
                let want = expected(&db, &def, &req);
                at_every_point(&points, &query, &permuted.join(" "), &req, |got| {
                    assert_eq!(observed(&got.unwrap()), want);
                });
                cov.long_queries += want.hits.len();
            }
            Err(e) => at_every_point(&points, &query, &permuted.join(" "), &req, |got| {
                let got = got.unwrap_err();
                assert!(
                    matches!(got, KwdbError::InvalidQuery(_)) && got == e,
                    "{got:?}"
                );
            }),
        }
    }
}

/// Why a run stopped: the step it was at, where, and the message.
struct Failure {
    step: usize,
    place: String,
    message: String,
}

/// Run `seed` through the first `steps` steps of the script, checking the
/// state after each (`every`) or after the last only.
fn run(seed: u64, steps: usize, every: bool, cov: &mut Coverage) -> Result<(), Failure> {
    let mut g = Gen::new(seed);
    let pool: ScratchPool<EvalScratch> = ScratchPool::new();
    let mut m: Option<Mutated> = None;
    for (step, name) in STEPS.iter().enumerate().take(steps + 1) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            at(format!("seed {seed:#x}, step {step} ({name})"));
            match &mut m {
                None => {
                    let mut db = g.schema();
                    for (table, row) in g.initial() {
                        db.insert(table, row).unwrap();
                    }
                    db.build_text_index();
                    m = Some(Mutated::new(db));
                }
                Some(m) => apply(step, &mut g, m),
            }
            if every || step == steps {
                // Each state draws its queries from its own stream, so a
                // replay of a prefix asks what the full run asked there.
                let mut rng = Rng::seed_from_u64(seed ^ (step as u64 + 1) << 32);
                check_state(m.as_ref().unwrap(), &mut rng, &pool, cov);
                assert_eq!(pool.idle(), 1, "one scratch, reused");
            }
        }));
        if let Err(panic) = outcome {
            let message = (panic.downcast_ref::<String>().cloned())
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            let place = WHERE.with(|w| w.borrow().clone());
            return Err(Failure {
                step,
                place,
                message,
            });
        }
    }
    Ok(())
}

#[test]
fn every_lattice_point_answers_by_the_definition_through_the_script() {
    let mut cov = Coverage::default();
    for seed in SEEDS {
        let Err(f) = run(seed, STEPS.len() - 1, true, &mut cov) else {
            continue;
        };
        // Replay: the shortest prefix of the script whose last state fails.
        let prefix = (0..=f.step).find_map(|n| {
            run(seed, n, false, &mut Coverage::default())
                .err()
                .map(|r| (n, r))
        });
        let replay = match prefix {
            Some((n, r)) => format!(
                "replayed: the first {} step(s) {:?} fail at {}: {}",
                n + 1,
                &STEPS[..=n],
                r.place,
                r.message
            ),
            None => "replayed: no prefix fails without the earlier states' queries".into(),
        };
        panic!("{}: {}\n{replay}", f.place, f.message);
    }
    eprintln!(
        "{} results, {} summary tuples, {} refined with hits (refined table in a CN \
         0/1/2+ times: {:?}; {} results passing at a later node only), {} capped, \
         {} reordered, {} long-query hits",
        cov.results,
        cov.summaries,
        cov.refined_with_hits,
        cov.occurrences,
        cov.later_node_only,
        cov.capped,
        cov.reordered,
        cov.long_queries
    );
    assert!(cov.results > 600 && cov.summaries > 100 && cov.refined_with_hits > 10);
    assert!(cov.occurrences.iter().all(|&n| n > 0) && cov.later_node_only > 0);
    assert!(cov.capped > 10 && cov.reordered > 20);
    assert!(cov.long_queries > 0);
}
