//! Registry and flight-recorder parity against a golden.
//!
//! One fixed serial script drives the three engines and a dispatcher, all
//! on one shared registry, through every seal path: miss, hit, empty query,
//! candidate-cap truncation, an unknown engine, a request the engine
//! rejects, faceted / drill-down / summarized requests, SPARK scoring, a
//! caller-traced request, policy-sampled traces, ingest + commit + delete,
//! and a flight ring small enough to wrap across engines. What it leaves
//! behind — every instrument's family name, label set and value (histograms
//! by observation count), and every retained flight record minus its
//! timings — must equal `tests/golden/obs_parity.txt`, which was captured
//! from the string-keyed recording path before instrument handles replaced
//! it. A change to *how* the engines record must not move a byte of it.
//!
//! On a mismatch the actual rendering is written next to the test binaries
//! (the path is in the panic message); a change that means to alter what is
//! recorded replaces the golden with that file.

use kwdb::common::{Budget, FacetSpec, RangeBucket};
use kwdb::datasets::{self, generate_dblp, DblpConfig};
use kwdb::dispatch::{Catalog, Dispatcher};
use kwdb::engine::{
    DeleteKey, GraphEngine, GraphSemantics, IngestRecord, RelationalEngine, Scoring, SearchRequest,
    XmlEngine,
};
use kwdb::obs::{FlightDump, MetricsRegistry, SamplePolicy, Snapshot, TraceLevel};
use kwdb::relsearch::Refinement;
use std::fmt::Write as _;
use std::sync::Arc;

/// Small enough that the 100-odd requests of the script wrap it, with
/// records of one engine displacing another's.
const FLIGHT_CAPACITY: usize = 48;

fn dispatcher(registry: &Arc<MetricsRegistry>) -> Dispatcher {
    let mut catalog = Catalog::new();
    catalog.register_mutable(
        "dblp",
        RelationalEngine::new(generate_dblp(&DblpConfig {
            n_papers: 80,
            n_authors: 40,
            ..Default::default()
        }))
        .with_registry(Arc::clone(registry)),
    );
    catalog.register(
        "social",
        GraphEngine::new(datasets::graphs::generate_graph(&Default::default()))
            .with_registry(Arc::clone(registry)),
    );
    catalog.register(
        "bib",
        XmlEngine::from_tree(datasets::generate_bib_xml(&Default::default()))
            .with_registry(Arc::clone(registry)),
    );
    Dispatcher::with_workers(catalog, 2).with_registry(Arc::clone(registry))
}

fn faceted(query: &str) -> SearchRequest {
    SearchRequest::new(query)
        .k(5)
        .facet(FacetSpec::terms("conference.name", 10))
        .facet(FacetSpec::range(
            "conference.year",
            (1970..2030)
                .step_by(10)
                .map(|y| RangeBucket::new(format!("{y}s"), y as f64, (y + 10) as f64))
                .collect(),
        ))
}

/// Run the script; returns how many requests came back `Ok` and `Err`.
fn run_script(d: &Dispatcher) -> (usize, usize) {
    let (mut ok, mut failed) = (0, 0);
    let mut send = |engine: &str, req: SearchRequest| {
        let out = d.execute_serial(&[(engine.to_string(), req)]);
        match &out.responses[0] {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
        out.responses.into_iter().next().expect("one response")
    };
    let capped = |n: u64| Budget::unlimited().with_max_candidates(n);

    // Relational: a miss, hits (enough of them that the AutoP99 slow
    // threshold has its 32 samples), the empty query, a capped request.
    for _ in 0..40 {
        send("dblp", SearchRequest::new("data query").k(5)).unwrap();
    }
    send("dblp", SearchRequest::new("query data").k(5)).unwrap();
    send("dblp", SearchRequest::new("").k(5)).unwrap();
    send("dblp", SearchRequest::new("zzzzqqq data").k(5)).unwrap();
    send(
        "dblp",
        SearchRequest::new("data query").k(5).budget(capped(2)),
    )
    .unwrap();
    send("dblp", SearchRequest::new("data query").k(5).caching(false)).unwrap();
    send(
        "dblp",
        SearchRequest::new("data query")
            .k(3)
            .scoring(Scoring::Spark),
    )
    .unwrap();
    send(
        "dblp",
        SearchRequest::new("data query")
            .k(3)
            .trace(TraceLevel::Phases),
    )
    .unwrap();

    // The exploration shapes: faceted miss and hits, drill-down, summaries.
    let first = send("dblp", faceted("data query")).unwrap();
    let clicked = first.facets[0].values[0].value.clone();
    let drill = || {
        faceted("data query").refine(Refinement::Term {
            attr: "conference.name".into(),
            value: clicked.clone(),
        })
    };
    for _ in 0..3 {
        send("dblp", faceted("data query")).unwrap();
        send("dblp", drill()).unwrap();
        send("dblp", drill().summaries(5)).unwrap();
    }
    send("dblp", faceted("data query").budget(capped(1))).unwrap();
    send("dblp", faceted("data query").k(2).scoring(Scoring::Spark)).unwrap();
    // Rejected by the engine, and a name the catalog does not know: neither
    // is sealed; the dispatcher counts both as errors.
    send(
        "dblp",
        SearchRequest::new("data query").facet(FacetSpec::terms("conference.nope", 3)),
    )
    .unwrap_err();
    send("nope", SearchRequest::new("data query")).unwrap_err();

    // Graph: each semantics computed then hit, a capped request, the empty
    // query.
    for semantics in [
        GraphSemantics::Banks,
        GraphSemantics::SteinerExact,
        GraphSemantics::DistinctRoot,
    ] {
        for _ in 0..3 {
            send(
                "social",
                SearchRequest::new("kw0 kw1").k(3).semantics(semantics),
            )
            .unwrap();
        }
        send(
            "social",
            SearchRequest::new("kw0 kw1")
                .k(3)
                .semantics(semantics)
                .budget(capped(1)),
        )
        .unwrap();
    }
    send("social", SearchRequest::new("   ").k(3)).unwrap();

    // XML.
    for _ in 0..4 {
        send("bib", SearchRequest::new("data query").k(4)).unwrap();
    }
    send(
        "bib",
        SearchRequest::new("data query").k(4).budget(capped(1)),
    )
    .unwrap();
    send("bib", SearchRequest::new("").k(4)).unwrap();

    // Mutation: every generation bump re-keys the caches.
    d.ingest(
        "dblp",
        IngestRecord::Tuple {
            table: "author".into(),
            values: vec![9001.into(), "Golden Parity".into()],
        },
    )
    .unwrap();
    send("dblp", SearchRequest::new("golden parity").k(5)).unwrap();
    send("dblp", SearchRequest::new("data query").k(5)).unwrap();
    d.commit("dblp").unwrap();
    send("dblp", SearchRequest::new("data query").k(5)).unwrap();
    send("dblp", SearchRequest::new("data query").k(5)).unwrap();
    d.delete(
        "dblp",
        DeleteKey::TuplePk {
            table: "author".into(),
            pk: 9001.into(),
        },
    )
    .unwrap();
    send("dblp", SearchRequest::new("golden parity").k(5)).unwrap();
    send("bib", SearchRequest::new("data query").k(4)).unwrap();
    send(
        "social",
        SearchRequest::new("kw0 kw1")
            .k(3)
            .semantics(GraphSemantics::Banks),
    )
    .unwrap();
    (ok, failed)
}

fn labels(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Everything in the snapshot and the dump that is not a measured time:
/// histogram sums, maxima and bucket placement, phase durations, trace
/// offsets and the AutoP99-derived `slow` flag are left out.
fn render(snapshot: &Snapshot, dump: &FlightDump) -> String {
    let mut out = String::new();
    for (id, v) in &snapshot.counters {
        writeln!(out, "counter {}{} {v}", id.name, labels(&id.labels)).unwrap();
    }
    for (id, v) in &snapshot.gauges {
        writeln!(out, "gauge {}{} {v}", id.name, labels(&id.labels)).unwrap();
    }
    for (id, h) in &snapshot.histograms {
        writeln!(
            out,
            "histogram {}{} count={}",
            id.name,
            labels(&id.labels),
            h.count
        )
        .unwrap();
    }
    writeln!(
        out,
        "flight capacity={} dropped={} retained={}",
        dump.capacity,
        dump.dropped,
        dump.records.len()
    )
    .unwrap();
    for r in &dump.records {
        writeln!(
            out,
            "record seq={} {}/{} digest={} k={} truncation={} cache={} result_cache={} \
             sampled={} generation={}",
            r.seq,
            r.engine,
            r.algorithm,
            r.digest,
            r.k,
            r.truncation.map_or("none", |t| t.as_str()),
            r.cache.as_str(),
            r.result_cache.as_str(),
            r.sampled,
            r.generation,
        )
        .unwrap();
        if let Some(trace) = &r.trace {
            writeln!(out, "  trace {}", trace.label).unwrap();
            for phase in &trace.phases {
                writeln!(out, "    phase {}", phase.name).unwrap();
                for event in &phase.events {
                    let fields: Vec<String> = event
                        .fields
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect();
                    writeln!(out, "      {} [{}]", event.message, fields.join(", ")).unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn the_script_leaves_the_golden_registry_and_flight_ring() {
    let registry = Arc::new(MetricsRegistry::with_flight_capacity(FLIGHT_CAPACITY));
    // 1-in-9 promotion to a full trace; the slow flag tracks the live p99.
    registry.set_sample_policy(SamplePolicy::every(9));
    let d = dispatcher(&registry);
    let (ok, failed) = run_script(&d);
    assert_eq!(failed, 2, "the unknown attribute and the unknown engine");
    let dump = registry.flight().dump();
    assert_eq!(
        registry.flight().appended(),
        ok as u64,
        "every Ok response sealed exactly one flight record"
    );
    let actual = render(&registry.snapshot(), &dump);

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs_parity.txt");
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    if actual != golden {
        let actual_path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_parity.actual.txt");
        std::fs::write(&actual_path, &actual).expect("write the actual rendering");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "registry/flight rendering differs from {golden_path} at line {}:\n  actual: {:?}\n  \
             golden: {:?}\nfull rendering written to {}",
            line + 1,
            actual.lines().nth(line),
            golden.lines().nth(line),
            actual_path.display()
        );
    }
}
