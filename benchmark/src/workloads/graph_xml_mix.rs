//! `graph_xml_mix`: two clients, each sending one request at a time to a
//! catalog of a `GraphEngine` (the tuple graph of a DBLP database) and an
//! `XmlEngine` (a bibliography tree). Of every ten requests four are BANKS,
//! one exact Steiner (DPBF), one distinct-root (BLINKS) and four XML SLCA;
//! all keyword sets are distinct. `graphsearch`, `graph::node2kw`,
//! `xmlsearch` and `xml` do the work and the relational stack does none;
//! per-query work is single-threaded and deterministic, and two clients put
//! real contention on the shared registry and the dispatcher.

use super::{common_metrics, reissue, Load, DIGEST_OPS, K, REISSUE_EVERY};
use crate::datasets::{self, frozen, DBLP_GRAPH};
use crate::gen::{QueryGen, Vocab};
use crate::harness::{
    check_graph_hits, check_xml_hits, issue, peak_rss_mb, repeat_setup, response_digest,
    validate_ranked, Checker, Ctx, DatasetDigest, Fnv, Outcome, Phases, Samples, SetupProbe,
};
use crate::layers::{cache_micro, registry_facts};
use crate::metrics::{ratio, Values};
use crate::stats;
use crate::trace::Tracer;
use kwdb::common::index::kernels::intersect_cursors;
use kwdb::dispatch::{Catalog, Dispatcher};
use kwdb::engine::{Engine, GraphEngine, GraphSemantics, SearchRequest, XmlEngine};
use kwdb::obs::MetricsRegistry;
use std::sync::Arc;
use std::time::Instant;

const GRAPH: &str = "graph";
const BIB: &str = "bib";
const CLIENTS: usize = 2;
/// Untimed requests per client that end set-up.
const WARMUP_OPS: usize = 20;
/// Requests generated per client before the timed section; a run that used
/// them all up would stop early (it gets through about a third).
const MAX_OPS_PER_CLIENT: usize = 30_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Banks,
    Steiner,
    DistinctRoot,
    Xml,
}

/// The fixed pattern of ten: 40 % BANKS, 10 % DPBF, 10 % BLINKS, 40 % XML in
/// any prefix.
const PATTERN: [Kind; 10] = [
    Kind::Banks,
    Kind::Xml,
    Kind::Banks,
    Kind::Xml,
    Kind::Steiner,
    Kind::Banks,
    Kind::Xml,
    Kind::DistinctRoot,
    Kind::Banks,
    Kind::Xml,
];

struct Op {
    kind: Kind,
    engine: &'static str,
    req: SearchRequest,
}

struct Setup {
    registry: Arc<MetricsRegistry>,
    graph: Arc<GraphEngine>,
    xml: Arc<XmlEngine>,
    dispatcher: Dispatcher,
    digests: Vec<DatasetDigest>,
    generate_s: f64,
    from_database_s: f64,
    blinks_build_s: f64,
    xml_index_build_s: f64,
    /// Per-client op lists; the warm-up has consumed their heads.
    ops: Vec<Vec<Op>>,
}

fn setup(ctx: &Ctx, probe: &mut SetupProbe) -> Setup {
    let t = Instant::now();
    let (db, _) = datasets::relational("dblp_graph", &DBLP_GRAPH);
    let tree = datasets::bib();
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (g, graph_digest) = datasets::graph(&db);
    let from_database_s = t.elapsed().as_secs_f64();
    drop(db);
    let registry = Arc::new(MetricsRegistry::new());
    let graph_vocab = Vocab::ranked(datasets::graph_vocab(&g));
    let graph = Arc::new(GraphEngine::new(g).with_registry(Arc::clone(&registry)));
    let xml = Arc::new(XmlEngine::from_tree(tree).with_registry(Arc::clone(&registry)));
    let (tree, index) = &**xml.data();
    let xml_index_build_s = index.index_stats().build.map_or(0.0, |d| d.as_secs_f64());
    let bib_digest = datasets::bib_digest(tree, index);
    let xml_vocab = Vocab::ranked(datasets::xml_vocab(index));

    let mut catalog = Catalog::new();
    catalog.register(GRAPH, Arc::clone(&graph) as Arc<dyn Engine>);
    catalog.register(BIB, Arc::clone(&xml) as Arc<dyn Engine>);
    let dispatcher = Dispatcher::new(catalog).with_registry(Arc::clone(&registry));

    // Lazy set-up: the first distinct-root query builds the BLINKS
    // node→keyword index over the whole vocabulary.
    let mut off = Tracer::new(false, ctx.epoch, 0);
    let t = Instant::now();
    let first = SearchRequest::new(format!("{} {}", graph_vocab.term(0), graph_vocab.term(1)))
        .k(K)
        .semantics(GraphSemantics::DistinctRoot)
        .caching(false);
    let _ = issue(&dispatcher, &mut off, 0, GRAPH, first);
    let blinks_build_s = t.elapsed().as_secs_f64();
    probe.engines_built();

    // One generator per engine, dealt out to the clients in turn, so no
    // keyword set repeats within or across clients. Half `kw2`, half `kw3`:
    // two clients at ~1 k requests/s would use up the 7 140 pairs of a
    // 120-term vocabulary on `kw2` alone.
    let per_client = ctx.ops(MAX_OPS_PER_CLIENT);
    let mut graph_queries = QueryGen::new(graph_vocab, ctx.seed);
    let mut xml_queries = QueryGen::new(xml_vocab, ctx.seed ^ 0x0b1b);
    let (mut graph_n, mut xml_n) = (0u64, 0u64);
    let mut ops: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|_| Vec::with_capacity(per_client))
        .collect();
    for i in 0..per_client * CLIENTS {
        let kind = PATTERN[(i / CLIENTS) % PATTERN.len()];
        let op = if kind == Kind::Xml {
            xml_n += 1;
            Op {
                kind,
                engine: BIB,
                req: SearchRequest::new(xml_queries.mixed(xml_n, 2)).k(K),
            }
        } else {
            graph_n += 1;
            let semantics = match kind {
                Kind::Banks => GraphSemantics::Banks,
                Kind::Steiner => GraphSemantics::SteinerExact,
                _ => GraphSemantics::DistinctRoot,
            };
            Op {
                kind,
                engine: GRAPH,
                req: SearchRequest::new(graph_queries.mixed(graph_n, 2))
                    .k(K)
                    .semantics(semantics),
            }
        };
        ops[i % CLIENTS].push(op);
    }
    for list in &mut ops {
        for op in list.drain(..ctx.ops(WARMUP_OPS).min(per_client / 2)) {
            let _ = issue(&dispatcher, &mut off, 0, op.engine, op.req);
        }
    }
    Setup {
        registry,
        graph,
        xml,
        dispatcher,
        digests: vec![graph_digest, bib_digest],
        generate_s,
        from_database_s,
        blinks_build_s,
        xml_index_build_s,
        ops,
    }
}

/// What one client measured.
#[derive(Default)]
struct ClientReport {
    samples: Samples,
    checker: Checker,
    digest: Fnv,
    /// Computed-request latencies in µs per kind, in `PATTERN` kind order.
    by_kind_us: [Vec<f64>; 4],
    graph_candidates: u64,
    graph_hits: u64,
    xml_candidates: u64,
    xml_hits: u64,
    requests: u64,
    busy_ns: u64,
}

fn client(s: &Setup, ops: &[Op], tracer: &mut Tracer, lane: u64, seconds: f64) -> ClientReport {
    let mut r = ClientReport::default();
    let g = s.graph.graph();
    let (tree, index) = &**s.xml.data();
    let sizes = tree.subtree_sizes();
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        // request ids are unique across clients
        let id = i as u64 * CLIENTS as u64 + lane;
        let (resp, ns) = issue(&s.dispatcher, tracer, id, op.engine, op.req.clone());
        r.requests += 1;
        r.busy_ns += ns;
        let by_score = matches!(op.kind, Kind::Steiner | Kind::Xml);
        let Some(resp) = validate_ranked(&mut r.checker, "request", &resp, K, by_score) else {
            continue;
        };
        r.samples.record(resp, ns);
        let d = response_digest(resp);
        if (i as u64) < DIGEST_OPS {
            r.digest.u64(d);
        }
        if (i as u64).is_multiple_of(REISSUE_EVERY) {
            let hit = reissue(
                &s.dispatcher,
                tracer,
                id,
                op.engine,
                &op.req,
                d,
                &mut r.checker,
            );
            r.samples.hit_us.extend(hit);
        }
        let covered = if op.kind == Kind::Xml {
            check_xml_hits(tree, index, &sizes, op.req.query(), resp)
        } else {
            check_graph_hits(&g, op.req.query(), resp)
        };
        if let Err(e) = covered {
            r.checker.fail(|| e);
        }
        if resp.stats.result_cache_hits == 0 {
            r.by_kind_us[op.kind as usize].push(ns as f64 / 1e3);
            let (candidates, hits) = if op.kind == Kind::Xml {
                (&mut r.xml_candidates, &mut r.xml_hits)
            } else {
                (&mut r.graph_candidates, &mut r.graph_hits)
            };
            *candidates += resp.stats.candidates_generated;
            *hits += resp.hits.len() as u64;
        }
    }
    r
}

/// `kernels::intersect_cursors` over the keyword posting lists of the graph
/// index, for the term pairs of the first BANKS requests.
fn intersect_micro(values: &mut Values, s: &Setup, ops: &[Op]) {
    let g = s.graph.graph();
    let (mut ns, mut keys) = (0u64, 0u64);
    let mut out = Vec::new();
    for op in ops.iter().filter(|op| op.kind == Kind::Banks).take(200) {
        let terms: Vec<&str> = op.req.query().split(' ').collect();
        let (a, b) = (g.keyword_nodes(terms[0]), g.keyword_nodes(terms[1]));
        keys += (a.len() + b.len()) as u64;
        let (mut ca, mut cb) = (a.cursor(), b.cursor());
        out.clear();
        let t = Instant::now();
        intersect_cursors(&mut ca, &mut cb, &mut out);
        ns += t.elapsed().as_nanos() as u64;
        std::hint::black_box(out.len());
    }
    values.set("index.intersect_ns_per_key", ratio(ns as f64, keys as f64));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut values = Values::default();
    let mut phases = Phases::start();
    let mut checker = Checker::default();
    let (s, setup_cost) = repeat_setup(ctx.setup_reps(3), |probe| setup(ctx, probe));
    phases.lap("setup");
    s.digests[0].check(&mut checker, frozen::GRAPH);
    s.digests[1].check(&mut checker, frozen::BIB_LARGE);
    values.set("datasets.generate_s", s.generate_s);
    values.set("graph.from_database_s", s.from_database_s);
    values.set("graph.blinks_build_s", s.blinks_build_s);
    values.set("xml.index_build_s", s.xml_index_build_s);
    // graph and XML queries run on the calling thread
    values.set("bench.resolved_workers", 1.0);

    let mut tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|lane| Tracer::new(ctx.traced, ctx.epoch, lane as u32))
        .collect();
    let started = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let clients: Vec<_> = tracers
            .iter_mut()
            .zip(&s.ops)
            .enumerate()
            .map(|(lane, (tracer, ops))| {
                let s = &s;
                scope.spawn(move || client(s, ops, tracer, lane as u64, ctx.seconds))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    phases.lap("load");
    let timed_s = started.elapsed().as_secs_f64();
    let timed_spans = tracers.iter().map(Tracer::len).sum();

    let mut samples = Samples::default();
    let mut digest = Fnv::default();
    let mut by_kind_us: [Vec<f64>; 4] = Default::default();
    let (mut graph_candidates, mut graph_hits, mut xml_candidates, mut xml_hits) = (0, 0, 0, 0);
    let (mut requests, mut busy_ns) = (0u64, 0u64);
    for r in reports {
        samples.merge(r.samples);
        checker.merge(r.checker);
        digest.u64(r.digest.finish());
        for (all, mine) in by_kind_us.iter_mut().zip(r.by_kind_us) {
            all.extend(mine);
        }
        graph_candidates += r.graph_candidates;
        graph_hits += r.graph_hits;
        xml_candidates += r.xml_candidates;
        xml_hits += r.xml_hits;
        requests += r.requests;
        busy_ns += r.busy_ns;
    }
    let peak_rss = peak_rss_mb();

    let kinds = [
        (Kind::Banks, "graphsearch.banks_us"),
        (Kind::Steiner, "graphsearch.dpbf_us"),
        (Kind::DistinctRoot, "graphsearch.blinks_us"),
        (Kind::Xml, "xmlsearch.execute_us"),
    ];
    for (kind, name) in kinds {
        values.set(name, stats::median(&mut by_kind_us[kind as usize]));
    }
    values.set(
        "graphsearch.candidates_per_hit",
        ratio(graph_candidates as f64, graph_hits as f64),
    );
    values.set(
        "xmlsearch.candidates_per_hit",
        ratio(xml_candidates as f64, xml_hits as f64),
    );
    let counts = vec![
        ("requests_timed", requests),
        ("requests_computed", samples.computed_ms.len() as u64),
        ("requests_reissued_hits", samples.hit_us.len() as u64),
        ("ops_generated_per_client", s.ops[0].len() as u64),
    ];
    if ctx.traced {
        intersect_micro(&mut values, &s, &s.ops[0]);
        cache_micro(&mut values, ctx.ops(200_000));
        registry_facts(&mut values, &s.registry);
    }
    phases.lap("micro");
    let notes = vec![samples.report(&mut values)];
    let load = Load {
        requests,
        busy_client_s: busy_ns as f64 / 1e9 / CLIENTS as f64,
        timed_s,
        timed_spans,
        peak_rss_mb: peak_rss,
    };
    common_metrics(&mut values, ctx, setup_cost, &checker, &load);
    Outcome {
        values,
        checker,
        result_digest: digest.finish(),
        datasets: s.digests,
        counts,
        notes,
        phases: phases.finish(),
        tracers,
    }
}
