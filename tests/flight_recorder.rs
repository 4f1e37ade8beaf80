//! Contract of the always-on flight recorder under concurrency.
//!
//! The ring is bounded and lock-striped; these tests pin down the three
//! guarantees callers lean on: the ring never exceeds its capacity (and
//! accounts every overwrite), the most recent query is never the one lost
//! to a lagging writer, and — because appends happen at the same seal
//! point as registry recording — a serial and a concurrent run of the same
//! deterministic batch leave identical record multisets behind.

use kwdb::common::{Budget, CacheConfig};
use kwdb::datasets::{self, generate_dblp, DblpConfig};
use kwdb::dispatch::{Catalog, Dispatcher};
use kwdb::engine::{
    GraphEngine, GraphSemantics, RelationalConfig, RelationalEngine, SearchRequest, XmlEngine,
};
use kwdb::obs::{families, query_digest, MetricsRegistry, SamplePolicy, TraceLevel};
use std::sync::Arc;

fn dblp_engine(registry: &Arc<MetricsRegistry>) -> RelationalEngine {
    // The result cache is pinned off so record multisets don't depend on
    // arrival order (a capped request and an uncapped twin share a term
    // set; hit-vs-miss would flip truncation).
    RelationalEngine::with_config(
        generate_dblp(&DblpConfig {
            n_papers: 60,
            n_authors: 30,
            ..Default::default()
        }),
        RelationalConfig {
            result_cache: CacheConfig::disabled(),
            ..Default::default()
        },
    )
    .with_registry(Arc::clone(registry))
}

fn catalog(registry: &Arc<MetricsRegistry>) -> Catalog {
    let mut c = Catalog::new();
    c.register("dblp", dblp_engine(registry));
    c.register(
        "social",
        GraphEngine::new(datasets::graphs::generate_graph(&Default::default()))
            .with_result_cache(CacheConfig::disabled())
            .with_registry(Arc::clone(registry)),
    );
    c.register(
        "bib",
        XmlEngine::from_tree(datasets::generate_bib_xml(&Default::default()))
            .with_result_cache(CacheConfig::disabled())
            .with_registry(Arc::clone(registry)),
    );
    c
}

/// Deterministic mixed batch: candidate caps only, no wall-clock deadlines.
fn mixed_batch() -> Vec<(String, SearchRequest)> {
    let mut batch = Vec::new();
    for i in 0..60usize {
        let k = 1 + i % 4;
        let req = match i % 5 {
            0 => ("dblp", SearchRequest::new("data query").k(k)),
            1 => (
                "social",
                SearchRequest::new("kw0 kw1")
                    .k(k)
                    .semantics(GraphSemantics::SteinerExact),
            ),
            2 => (
                "social",
                SearchRequest::new("kw0 kw1")
                    .k(k)
                    .semantics(GraphSemantics::DistinctRoot),
            ),
            3 => ("bib", SearchRequest::new("data query").k(k)),
            _ => (
                "dblp",
                SearchRequest::new("query data")
                    .k(k)
                    .budget(Budget::unlimited().with_max_candidates(1 + (i % 3) as u64)),
            ),
        };
        batch.push((req.0.to_string(), req.1));
    }
    batch
}

#[test]
fn ring_is_bounded_and_never_loses_the_latest_query() {
    const CAPACITY: usize = 16;
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;
    let reg = Arc::new(MetricsRegistry::with_flight_capacity(CAPACITY));
    let engine = Arc::new(dblp_engine(&reg));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    engine
                        .execute(&SearchRequest::new("data query").k(1 + (t + i) % 3))
                        .unwrap();
                }
            });
        }
    });
    // After the storm quiesces, one more query: the "latest". The seq-guard
    // in the ring means a lagging overwrite can never evict it.
    engine
        .execute(&SearchRequest::new("xml data search").k(2))
        .unwrap();

    let flight = reg.flight();
    let total = (THREADS * PER_THREAD + 1) as u64;
    assert_eq!(flight.appended(), total);
    assert_eq!(flight.len(), CAPACITY, "full ring holds exactly capacity");
    assert_eq!(flight.dropped(), total - CAPACITY as u64);

    let dump = flight.dump();
    assert_eq!(dump.records.len(), CAPACITY);
    assert!(dump.records.len() <= dump.capacity);
    let latest = dump
        .records
        .iter()
        .max_by_key(|r| r.seq)
        .expect("ring is non-empty");
    assert_eq!(latest.seq, total - 1, "latest append survives");
    assert_eq!(latest.digest, query_digest("xml data search"));
    // self-instruments agree with the ring
    assert_eq!(
        reg.counter_family_total(families::FLIGHT_DROPPED),
        flight.dropped()
    );
    assert_eq!(
        reg.gauge(families::FLIGHT_ENTRIES, &[]).get(),
        CAPACITY as i64
    );
}

#[test]
fn seeded_policy_samples_deterministically_in_serial() {
    let reg = Arc::new(MetricsRegistry::new());
    reg.set_sample_policy(SamplePolicy::every(3));
    let engine = dblp_engine(&reg);

    for _ in 0..9 {
        let resp = engine
            .execute(&SearchRequest::new("data query").k(2))
            .unwrap();
        // tracing is policy-driven, never caller-requested here
        let _ = resp;
    }
    let dump = reg.flight().dump();
    assert_eq!(dump.records.len(), 9);
    let sampled: Vec<u64> = dump
        .records
        .iter()
        .filter(|r| r.sampled)
        .map(|r| r.seq)
        .collect();
    assert_eq!(sampled, vec![2, 5, 8], "every 3rd arrival is promoted");
    for r in &dump.records {
        assert_eq!(
            r.sampled,
            r.trace.is_some(),
            "seq {}: sampled records (and only they) carry traces",
            r.seq
        );
    }
    assert_eq!(reg.counter_family_total(families::TRACE_SAMPLED), 3);

    // A caller already asking for a full trace doesn't consume a tick.
    let reg2 = Arc::new(MetricsRegistry::new());
    reg2.set_sample_policy(SamplePolicy::every(2));
    let engine2 = dblp_engine(&reg2);
    engine2
        .execute(
            &SearchRequest::new("data query")
                .k(2)
                .trace(TraceLevel::Full),
        )
        .unwrap();
    engine2
        .execute(&SearchRequest::new("data query").k(2))
        .unwrap();
    engine2
        .execute(&SearchRequest::new("data query").k(2))
        .unwrap();
    let dump2 = reg2.flight().dump();
    assert!(!dump2.records[0].sampled, "explicit trace is not 'sampled'");
    assert!(dump2.records[0].trace.is_some());
    assert!(!dump2.records[1].sampled, "tick 1 of 2");
    assert!(dump2.records[2].sampled, "tick 2 of 2 promotes");
}

#[test]
fn serial_and_concurrent_runs_leave_identical_record_multisets() {
    let batch = mixed_batch();

    let reg_serial = Arc::new(MetricsRegistry::new());
    let serial = Dispatcher::new(catalog(&reg_serial))
        .with_registry(Arc::clone(&reg_serial))
        .execute_serial(&batch);
    let reg_conc = Arc::new(MetricsRegistry::new());
    let concurrent = Dispatcher::with_workers(catalog(&reg_conc), 8)
        .with_registry(Arc::clone(&reg_conc))
        .execute_concurrent(&batch);
    assert!(serial.responses.iter().all(|r| r.is_ok()));
    assert!(concurrent.responses.iter().all(|r| r.is_ok()));

    // Identity of a record minus its timings and ring position: with
    // candidate-cap-only budgets both runs did exactly the same work, so
    // the two rings must hold the same multiset of these. Cache outcome is
    // excluded: duplicate queries racing on a cold cache can all miss
    // before the first populates it, so hit/miss splits legitimately
    // depend on interleaving.
    let key = |r: &kwdb::obs::QueryRecord| {
        (
            r.engine.clone(),
            r.algorithm.clone(),
            r.digest.clone(),
            r.k,
            r.truncation.map(|t| t.to_string()),
        )
    };
    let mut serial_keys: Vec<_> = reg_serial.flight().dump().records.iter().map(key).collect();
    let mut conc_keys: Vec<_> = reg_conc.flight().dump().records.iter().map(key).collect();
    assert_eq!(
        serial_keys.len(),
        batch.len(),
        "default capacity retains all"
    );
    serial_keys.sort();
    conc_keys.sort();
    assert_eq!(serial_keys, conc_keys);

    // And the dump round-trips exactly through its JSON format.
    let dump = reg_conc.flight().dump();
    let rt = kwdb::obs::FlightDump::from_json(&dump.to_json()).expect("round-trip parse");
    assert_eq!(rt, dump);
}
