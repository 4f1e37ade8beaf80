//! Regenerate the tutorial's experiment tables.
//!
//! ```sh
//! cargo run -p kwdb-bench --bin reproduce            # all experiments
//! cargo run -p kwdb-bench --bin reproduce e04 e06    # a selection
//! cargo run -p kwdb-bench --bin reproduce --metrics-out BENCH_metrics.json e04
//! ```
//!
//! With `--metrics-out PATH` the run also records observability metrics —
//! per-experiment wall-clock latency plus a dispatcher smoke batch over
//! registry-wired engines covering all three data models — and writes the
//! registry snapshot to `PATH` as the `kwdb-metrics-v1` JSON baseline that
//! `metrics_check` (and CI) validates.
//!
//! With `--flight-out PATH` (requires `--metrics-out`) the smoke batch runs
//! under an aggressive 1-in-2 trace sampling policy and the registry's
//! flight-recorder ring is dumped to `PATH` as `kwdb-flightrec-v1` JSON —
//! the input to `metrics_check --flight` and `kwdb-doctor`.

use kwdb::dispatch::{Catalog, Dispatcher};
use kwdb::engine::{GraphEngine, GraphSemantics, RelationalEngine, SearchRequest, XmlEngine};
use kwdb_datasets::{generate_dblp, DblpConfig};
use kwdb_obs::{MetricsRegistry, SamplePolicy};
use std::sync::Arc;
use std::time::Instant;

/// Histogram family for experiment wall-clock time (label `experiment`).
const EXPERIMENT_LATENCY: &str = "kwdb_experiment_latency_ns";

fn main() {
    let mut metrics_out: Option<String> = None;
    let mut flight_out: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics-out" || arg == "--flight-out" {
            match args.next() {
                Some(path) if arg == "--metrics-out" => metrics_out = Some(path),
                Some(path) => flight_out = Some(path),
                None => {
                    eprintln!("{arg} requires a path");
                    std::process::exit(1);
                }
            }
        } else {
            ids.push(arg);
        }
    }
    if flight_out.is_some() && metrics_out.is_none() {
        eprintln!("--flight-out requires --metrics-out (the recorder lives on the registry)");
        std::process::exit(1);
    }

    let registry = metrics_out
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));

    let run_one = |id: &str, run: fn() -> kwdb_bench::Report| {
        let started = Instant::now();
        run().print();
        if let Some(reg) = &registry {
            reg.histogram(EXPERIMENT_LATENCY, &[("experiment", id)])
                .record_duration(started.elapsed());
        }
    };

    if ids.is_empty() {
        for (id, run) in kwdb_bench::all_experiments() {
            run_one(id, run);
        }
    } else {
        for id in &ids {
            match kwdb_bench::experiment_by_id(id) {
                Some(run) => run_one(id, run),
                None => {
                    eprintln!("unknown experiment '{id}' (expected e01…e40)");
                    std::process::exit(1);
                }
            }
        }
    }

    if let (Some(path), Some(reg)) = (metrics_out, registry) {
        if flight_out.is_some() {
            // Sample every 2nd smoke query up to a full trace, so the dump
            // kwdb-doctor analyzes carries span trees to export.
            reg.set_sample_policy(SamplePolicy::every(2));
        }
        dispatcher_smoke(&reg);
        let json = kwdb_obs::export::to_json(&reg.snapshot());
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics snapshot written to {path}");
        if let Some(fpath) = flight_out {
            let dump = reg.flight().dump();
            let n = dump.records.len();
            if let Err(e) = std::fs::write(&fpath, dump.to_json()) {
                eprintln!("failed to write {fpath}: {e}");
                std::process::exit(1);
            }
            eprintln!("flight recorder dump ({n} records) written to {fpath}");
        }
    }
}

/// A small mixed batch through registry-wired engines and a dispatcher, so
/// the exported snapshot contains every engine and dispatcher metric family
/// the validator checks.
fn dispatcher_smoke(registry: &Arc<MetricsRegistry>) {
    let mut catalog = Catalog::new();
    catalog.register(
        "dblp",
        RelationalEngine::new(generate_dblp(&DblpConfig {
            n_papers: 60,
            n_authors: 30,
            ..Default::default()
        }))
        .with_registry(Arc::clone(registry)),
    );
    catalog.register(
        "social",
        GraphEngine::new(kwdb_datasets::graphs::generate_graph(&Default::default()))
            .with_registry(Arc::clone(registry)),
    );
    catalog.register(
        "bib",
        XmlEngine::from_tree(kwdb_datasets::generate_bib_xml(&Default::default()))
            .with_registry(Arc::clone(registry)),
    );
    let batch: Vec<(String, SearchRequest)> = vec![
        ("dblp".into(), SearchRequest::new("data query").k(3)),
        (
            "social".into(),
            SearchRequest::new("kw0 kw1")
                .k(3)
                .semantics(GraphSemantics::SteinerExact),
        ),
        (
            "social".into(),
            SearchRequest::new("kw0 kw1")
                .k(3)
                .semantics(GraphSemantics::DistinctRoot),
        ),
        ("bib".into(), SearchRequest::new("data query").k(3)),
        (
            "dblp".into(),
            SearchRequest::new("data query")
                .k(3)
                .budget(kwdb::common::Budget::unlimited().with_max_candidates(1)),
        ),
        ("dblp".into(), SearchRequest::new("xml data").k(5)),
        // A faceted query, so the exported snapshot carries the
        // kwdb_facet_* families and a populated facets phase.
        (
            "dblp".into(),
            SearchRequest::new("data query")
                .k(3)
                .facet(kwdb::common::FacetSpec::terms("conference.name", 5))
                .summaries(3),
        ),
    ];
    let dispatcher = Dispatcher::with_workers(catalog, 4).with_registry(Arc::clone(registry));
    let out = dispatcher.execute_concurrent(&batch);
    assert!(
        out.responses.iter().all(|r| r.is_ok()),
        "dispatcher smoke batch must succeed"
    );
    // Replay the same batch serially three times so the snapshot carries
    // result-cache hits *and* misses for every engine. Under the 1-in-2
    // sampling policy a promoted query bypasses the cache, but promotion
    // parity flips between consecutive serial passes (7 queries per pass):
    // each engine's repeated query consults the cache in the second AND
    // fourth passes, so whichever of those runs first warms the entry and
    // the other hits it — regardless of how the concurrent pass
    // interleaved its ticks. The capped query keeps bypassing, so the
    // truncation family stays populated, and 28 total records fit the
    // default flight ring without drops.
    for _ in 0..3 {
        let replay = dispatcher.execute_serial(&batch);
        assert!(
            replay.responses.iter().all(|r| r.is_ok()),
            "dispatcher smoke replay must succeed"
        );
    }
}
