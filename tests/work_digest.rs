//! The exact gate: for each engine, one frozen digest of what it answered
//! and one of the work it did to answer it.
//!
//! Seeded requests shaped like the benchmark's four workloads run on
//! scaled-down versions of its generators, serially and with the result
//! caches off:
//!
//! * relational — cold top-k under both scorings, faceted requests with
//!   drill-downs and summaries, and ingest / delete / commit interleaved
//!   with queries;
//! * graph — `Banks`, `SteinerExact` and `DistinctRoot` requests on the
//!   tuple graph under both edge weightings;
//! * XML — SLCA requests on a bibliography tree.
//!
//! Some requests carry a candidate cap, so the cut points are part of the
//! digest. The *answers* digest covers hits, score and cost bits, facet
//! counts and truncation verdicts. The *work* digest covers the operator
//! counters, candidate and CN counts, sorted / random accesses and the
//! per-query plan and list cache outcomes. A change that claims neither
//! moves leaves all six constants alone. A change that moves work on
//! purpose re-freezes the work constant alone, in a commit of its own.

use kwdb::common::{
    Budget, CacheConfig, FacetSpec, QueryStats, RangeBucket, Rng, TruncationReason, Value,
};
use kwdb::datasets::dblp::sample_queries;
use kwdb::datasets::{generate_bib_xml, generate_dblp, BibConfig, DblpConfig};
use kwdb::engine::{
    GraphEngine, GraphSemantics, RelationalConfig, RelationalEngine, Scoring, SearchRequest,
    SearchResponse, XmlEngine,
};
use kwdb::graph::graph::{from_database, EdgeWeighting};
use kwdb::relsearch::Refinement;

/// FNV-1a over 64-bit words.
#[derive(Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }
}

/// One engine's two digests.
#[derive(Debug)]
struct Digests {
    answers: Fnv,
    work: Fnv,
}

impl Digests {
    fn new() -> Self {
        Digests {
            answers: Fnv::new(),
            work: Fnv::new(),
        }
    }

    /// The verdict, the facets and their exactness into the answers, every
    /// counter that is not a time into the work; the hits are the caller's.
    fn response<H>(&mut self, resp: &SearchResponse<H>) {
        self.answers.word(resp.hits.len() as u64);
        self.answers.word(match resp.truncation {
            None => 0,
            Some(TruncationReason::DeadlineExceeded) => 1,
            Some(TruncationReason::CandidateCapReached) => 2,
        });
        self.answers.word(resp.facets.len() as u64);
        for facet in &resp.facets {
            self.answers.text(&facet.attr);
            self.answers.word(facet.values.len() as u64);
            for v in &facet.values {
                self.answers.text(&v.value);
                self.answers.word(v.count);
            }
        }
        self.answers.word(u64::from(resp.facets_exact));
        let QueryStats {
            operators: ops,
            candidates_generated,
            candidates_pruned,
            cns_evaluated,
            cns_pruned,
            cache_hits,
            cache_misses,
            ..
        } = &resp.stats;
        for w in [
            ops.tuples_scanned,
            ops.join_probes,
            ops.joins_executed,
            ops.rows_output,
            ops.sorted_accesses,
            ops.random_accesses,
            ops.join_probe_rows,
            *candidates_generated,
            *candidates_pruned,
            *cns_evaluated,
            *cns_pruned,
            *cache_hits,
            *cache_misses,
        ] {
            self.work.word(w);
        }
    }
}

/// Every tenth request of a script carries this candidate cap.
fn budget(i: usize, cap: u64) -> Budget {
    if i % 10 == 9 {
        Budget::unlimited().with_max_candidates(cap)
    } else {
        Budget::unlimited()
    }
}

fn relational_request(
    engine: &RelationalEngine,
    digests: &mut Digests,
    req: &SearchRequest,
) -> Option<String> {
    let resp = engine.execute(req).expect("relational request");
    digests.response(&resp);
    for hit in &resp.hits {
        digests.answers.word(hit.score.to_bits());
        digests.answers.text(&hit.rendered);
        for t in &hit.tuples {
            digests
                .answers
                .word((t.table.0 as u64) << 32 | t.row.0 as u64);
        }
        for line in &hit.summary {
            digests.answers.text(line);
        }
    }
    // the top terms-facet value, for a drill-down
    let top = resp.facets.first()?.values.first()?;
    Some(top.value.clone())
}

/// Cold top-k, explore sessions, then ingest / delete / commit with reads
/// in between, on one engine over a small DBLP database.
fn relational_script() -> Digests {
    let db = generate_dblp(&DblpConfig {
        n_conferences: 12,
        n_authors: 100,
        n_papers: 300,
        authors_per_paper: 2.2,
        citations_per_paper: 1.5,
        seed: 0xdb19,
    });
    let pairs = sample_queries(&db, 40, 2, 0x51);
    let triples = sample_queries(&db, 20, 3, 0x52);
    let (papers, authors) = (300i64, 100i64);
    // keys above any the generator hands out
    let (mut wid, mut cite) = (100_000i64, 100_000i64);
    let cfg = RelationalConfig {
        result_cache: CacheConfig::disabled(),
        ..Default::default()
    };
    let engine = RelationalEngine::with_config(db, cfg);
    let mut digests = Digests::new();

    // relational_topk_cold: all-distinct keyword sets, both scorings
    for (i, q) in pairs.iter().chain(&triples).enumerate() {
        let scoring = if i % 3 == 2 {
            Scoring::Spark
        } else {
            Scoring::Monotone
        };
        let req = SearchRequest::new(q.join(" "))
            .k(10)
            .scoring(scoring)
            .budget(budget(i, 4));
        relational_request(&engine, &mut digests, &req);
    }

    // explore_session: plain, faceted, drill-down, drill-down + summaries
    let decades = (1990..2030)
        .step_by(10)
        .map(|y| RangeBucket::new(format!("{y}s"), y as f64, (y + 10) as f64))
        .collect::<Vec<_>>();
    for q in pairs.iter().take(16) {
        let q = q.join(" ");
        let faceted = SearchRequest::new(q.as_str())
            .k(10)
            .facet(FacetSpec::terms("conference.name", 10))
            .facet(FacetSpec::range("conference.year", decades.clone()));
        relational_request(&engine, &mut digests, &SearchRequest::new(q.as_str()).k(10));
        let Some(value) = relational_request(&engine, &mut digests, &faceted) else {
            continue;
        };
        let drill = faceted.refine(Refinement::Term {
            attr: "conference.name".into(),
            value,
        });
        relational_request(&engine, &mut digests, &drill);
        relational_request(&engine, &mut digests, &drill.summaries(5));
    }

    // ingest_mixed: papers with authors and a citation, a delete every
    // fifth paper, a commit every tenth, and reads in between
    let mut rng = Rng::seed_from_u64(0x1465);
    let words: Vec<String> = pairs.iter().flatten().cloned().collect();
    for p in 0..40i64 {
        let pid = papers + p;
        let title: Vec<&str> = (0..4).map(|_| rng.choose(&words).as_str()).collect();
        let conf = rng.gen_range(0..12i64);
        engine
            .ingest_tuple(
                "paper",
                vec![pid.into(), title.join(" ").into(), conf.into()],
            )
            .expect("paper");
        let aid = rng.gen_range(0..authors);
        for a in [aid, (aid + 1) % authors] {
            engine
                .ingest_tuple("write", vec![wid.into(), a.into(), pid.into()])
                .expect("write");
            wid += 1;
        }
        let cited = rng.gen_range(0..papers);
        engine
            .ingest_tuple("cite", vec![cite.into(), pid.into(), cited.into()])
            .expect("cite");
        cite += 1;
        if p % 5 == 4 {
            let victim = if p % 10 == 4 { pid - 2 } else { p * 7 };
            engine
                .delete_tuple("paper", &Value::from(victim))
                .expect("delete");
        }
        if p % 10 == 9 {
            engine.commit().expect("commit");
        }
        let q = &pairs[p as usize % pairs.len()];
        let req = SearchRequest::new(q.join(" "))
            .k(10)
            .budget(budget(p as usize, 4));
        relational_request(&engine, &mut digests, &req);
    }
    digests
}

/// `Banks`, `SteinerExact` and `DistinctRoot` requests in the benchmark's
/// 4 : 1 : 1 proportion, two and three keywords, on the tuple graph of a
/// small DBLP database under both weightings.
fn graph_script() -> Digests {
    let db = generate_dblp(&DblpConfig {
        n_conferences: 8,
        n_authors: 80,
        n_papers: 200,
        authors_per_paper: 2.2,
        citations_per_paper: 1.5,
        seed: 0xdb19,
    });
    let mut digests = Digests::new();
    for weighting in [EdgeWeighting::Uniform, EdgeWeighting::LogDegree] {
        let (g, _) = from_database(&db, weighting);
        let mut vocab: Vec<String> = g.vocabulary().map(str::to_string).collect();
        vocab.sort();
        let engine = GraphEngine::new(g).with_result_cache(CacheConfig::disabled());
        let mut rng = Rng::seed_from_u64(0x9a);
        for i in 0..120 {
            let semantics = match i % 6 {
                4 => GraphSemantics::SteinerExact,
                5 => GraphSemantics::DistinctRoot,
                _ => GraphSemantics::Banks,
            };
            let kws: Vec<&str> = (0..2 + i % 2)
                .map(|_| rng.choose(&vocab).as_str())
                .collect();
            let req = SearchRequest::new(kws.join(" "))
                .k(if i % 4 == 3 { 1 } else { 10 })
                .semantics(semantics)
                .budget(budget(i, 25));
            let resp = engine.execute(&req).expect("graph request");
            digests.response(&resp);
            for t in &resp.hits {
                let mut edges = t.edges.clone();
                edges.sort();
                digests.answers.word(t.root.0 as u64);
                digests.answers.word(t.matches.len() as u64);
                for m in &t.matches {
                    digests.answers.word(m.0 as u64);
                }
                digests.answers.word(edges.len() as u64);
                for (u, v) in edges {
                    digests.answers.word((u.0 as u64) << 32 | v.0 as u64);
                }
                digests.answers.word(t.cost.to_bits());
                digests.answers.word(t.rank_cost.to_bits());
            }
        }
    }
    digests
}

/// SLCA requests of one to three keywords at `k` ∈ {1, 10, 1000} on a
/// small bibliography tree.
fn xml_script() -> Digests {
    let tree = generate_bib_xml(&BibConfig {
        n_conferences: 8,
        n_journals: 4,
        papers_per_venue: 12,
        authors_per_paper: 2,
        seed: 0x0b1b,
    });
    let engine = XmlEngine::from_tree(tree).with_result_cache(CacheConfig::disabled());
    let mut vocab: Vec<String> = engine.data().1.terms().map(str::to_string).collect();
    vocab.sort();
    let mut rng = Rng::seed_from_u64(0x4d);
    let mut digests = Digests::new();
    for i in 0..150 {
        let kws: Vec<&str> = (0..1 + i % 3)
            .map(|_| rng.choose(&vocab).as_str())
            .collect();
        let req = SearchRequest::new(kws.join(" "))
            .k([1, 10, 1000][i % 3])
            .budget(budget(i, 3));
        let resp = engine.execute(&req).expect("xml request");
        digests.response(&resp);
        for hit in &resp.hits {
            digests.answers.word(hit.root.0 as u64);
            digests.answers.word(hit.score.to_bits());
            digests.answers.text(&hit.label_path);
        }
    }
    digests
}

#[test]
fn relational_answers_and_work_equal_the_frozen_digests() {
    let d = relational_script();
    assert_eq!(
        d.answers.0, 8_192_805_396_699_336_567,
        "answers moved: {d:?}"
    );
    assert_eq!(d.work.0, 5_431_525_315_934_221_152, "work moved: {d:?}");
}

#[test]
fn graph_answers_and_work_equal_the_frozen_digests() {
    let d = graph_script();
    assert_eq!(
        d.answers.0, 15_769_920_129_334_496_358,
        "answers moved: {d:?}"
    );
    assert_eq!(d.work.0, 5_638_098_790_968_092_052, "work moved: {d:?}");
}

#[test]
fn xml_answers_and_work_equal_the_frozen_digests() {
    let d = xml_script();
    assert_eq!(
        d.answers.0, 15_225_982_539_023_202_883,
        "answers moved: {d:?}"
    );
    assert_eq!(d.work.0, 17_255_306_150_631_014_907, "work moved: {d:?}");
}
