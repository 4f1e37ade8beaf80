//! Validate a `kwdb-metrics-v1` JSON snapshot written by
//! `reproduce --metrics-out`.
//!
//! ```sh
//! cargo run -p kwdb-bench --bin metrics_check -- BENCH_metrics.json
//! cargo run -p kwdb-bench --bin metrics_check -- BENCH_metrics.json --flight BENCH_flight.json
//! ```
//!
//! Exits non-zero (naming what's missing) unless the file parses as an
//! exact registry snapshot and contains every required metric family —
//! this is what the CI observability job runs against the uploaded
//! artifact, so a refactor that silently stops recording a family fails
//! the build instead of going dark in dashboards.
//!
//! With `--flight DUMP` the companion `kwdb-flightrec-v1` dump written by
//! `reproduce --flight-out` is cross-checked against the snapshot: the ring
//! never exceeds its capacity, sampled records carry traces, and — when the
//! ring never dropped a record — the per-executor sums of record totals and
//! per-phase durations agree *exactly* with the registry's latency
//! histogram sums (both sides track exact nanosecond sums, so any skew
//! means a query was sealed without reaching one of the two sinks).

use kwdb_obs::{families, FlightDump, Snapshot};

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut flight_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--flight" {
            match args.next() {
                Some(p) => flight_path = Some(p),
                None => {
                    eprintln!("--flight requires a path");
                    std::process::exit(2);
                }
            }
        } else {
            paths.push(arg);
        }
    }
    let Some(path) = paths.first().cloned() else {
        eprintln!("usage: metrics_check <snapshot.json> [--flight <dump.json>]");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let snapshot = match kwdb_obs::export::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path} is not a valid kwdb-metrics-v1 snapshot: {e}");
            std::process::exit(1);
        }
    };

    let present = snapshot.family_names();
    let required = [
        families::QUERIES,
        families::QUERY_LATENCY,
        families::PHASE_LATENCY,
        families::OPERATORS,
        families::CANDIDATES,
        families::PLAN_CACHE,
        families::TRUNCATED,
        families::PLAN_CACHE_SIZE,
        families::PLAN_CACHE_GENERATIONS,
        families::DISPATCH_QUEUE_WAIT,
        families::DISPATCH_INFLIGHT,
        families::DISPATCH_REQUESTS,
        families::DISPATCH_WORKER_REQUESTS,
        families::INDEX_BUILD,
        families::INDEX_TERMS,
        families::INDEX_POSTINGS,
        families::INDEX_POSTING_BYTES,
        families::CN_EVALUATED,
        families::CN_PRUNED,
        families::JOIN_PROBE_ROWS,
        families::FACET_QUERIES,
        families::FACET_VALUES,
        families::FACET_INEXACT,
        families::FLIGHT_DROPPED,
        families::FLIGHT_ENTRIES,
        families::TRACE_SAMPLED,
        families::ENGINE_GENERATION,
        families::INGESTED_TUPLES,
        families::RESULT_CACHE_HITS,
        families::RESULT_CACHE_MISSES,
        families::RESULT_CACHE_EVICTIONS,
        families::RESULT_CACHE_ENTRIES,
        families::RESULT_CACHE_BYTES,
        families::TUPLESET_CACHE_HITS,
        families::TUPLESET_CACHE_MISSES,
        "kwdb_experiment_latency_ns",
    ];
    let missing: Vec<&str> = required
        .iter()
        .copied()
        .filter(|f| !present.contains(f))
        .collect();
    if !missing.is_empty() {
        eprintln!("{path}: missing metric families: {missing:?}");
        eprintln!("present: {present:?}");
        std::process::exit(1);
    }
    if snapshot.counter_total(families::QUERIES) == 0 {
        eprintln!("{path}: {} recorded no queries", families::QUERIES);
        std::process::exit(1);
    }

    // CN accounting: every candidate network a relational query generates,
    // under whichever algorithm label it ran, is either evaluated or pruned —
    // nothing may fall through the counters. The CN counters themselves are
    // zero for the other engines and can be summed whole.
    let cn_accounted = snapshot.counter_total(families::CN_EVALUATED)
        + snapshot.counter_total(families::CN_PRUNED);
    let has = |id: &kwdb_obs::MetricId, k: &str, v: &str| {
        id.labels.iter().any(|(lk, lv)| lk == k && lv == v)
    };
    let cn_generated: u64 = snapshot
        .counters
        .iter()
        .filter(|(id, _)| {
            id.name == families::CANDIDATES
                && has(id, "kind", "generated")
                && has(id, "engine", "relational")
        })
        .map(|(_, v)| *v)
        .sum();
    if cn_generated == 0 {
        eprintln!(
            "{path}: no CNs generated by the relational engine — the CN accounting check is vacuous"
        );
        std::process::exit(1);
    }
    if cn_accounted != cn_generated {
        eprintln!(
            "{path}: CN accounting broken: {} + {} = {cn_accounted} but {} (kind=generated, engine=relational) = {cn_generated}",
            families::CN_EVALUATED,
            families::CN_PRUNED,
            families::CANDIDATES,
        );
        std::process::exit(1);
    }

    // Result-cache sanity: the smoke batch replays its queries, so a
    // snapshot with no hits (or no misses) means the cache was silently
    // disabled — or consulted queries stopped being counted.
    // Per engine: every engine that answered a query saw both.
    let mut engines: Vec<&str> = snapshot
        .counters
        .iter()
        .filter(|(id, _)| id.name == families::QUERIES)
        .flat_map(|(id, _)| id.labels.iter())
        .filter(|(k, _)| k == "engine")
        .map(|(_, v)| v.as_str())
        .collect();
    engines.sort_unstable();
    engines.dedup();
    for engine in engines {
        let count = |family: &str| -> u64 {
            (snapshot.counters.iter())
                .filter(|(id, _)| id.name == family && has(id, "engine", engine))
                .map(|(_, v)| *v)
                .sum()
        };
        let rc_hits = count(families::RESULT_CACHE_HITS);
        let rc_misses = count(families::RESULT_CACHE_MISSES);
        if rc_hits == 0 || rc_misses == 0 {
            eprintln!(
                "{path}: {engine}'s result cache recorded {rc_hits} hits / {rc_misses} misses — the replayed smoke batch must produce both"
            );
            std::process::exit(1);
        }
    }

    // The exporter and parser must agree exactly: re-serialize and re-parse.
    let rt = kwdb_obs::export::from_json(&kwdb_obs::export::to_json(&snapshot))
        .expect("round-trip parse");
    if rt != snapshot {
        eprintln!("{path}: JSON round-trip changed the snapshot");
        std::process::exit(1);
    }

    println!(
        "{path}: ok — {} families, {} queries recorded",
        present.len(),
        snapshot.counter_total(families::QUERIES)
    );

    if let Some(fpath) = flight_path {
        check_flight(&fpath, &snapshot);
    }
}

/// Cross-check a flight-recorder dump against the metrics snapshot from the
/// same run.
fn check_flight(fpath: &str, snapshot: &Snapshot) {
    let text = match std::fs::read_to_string(fpath) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {fpath}: {e}");
            std::process::exit(1);
        }
    };
    let dump = match FlightDump::from_json(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{fpath} is not a valid kwdb-flightrec-v1 dump: {e}");
            std::process::exit(1);
        }
    };
    if dump.records.is_empty() {
        eprintln!("{fpath}: flight recorder dump holds no records");
        std::process::exit(1);
    }
    if dump.records.len() > dump.capacity {
        eprintln!(
            "{fpath}: {} records exceed the declared capacity {}",
            dump.records.len(),
            dump.capacity
        );
        std::process::exit(1);
    }
    let traced = dump.records.iter().filter(|r| r.trace.is_some()).count();
    if traced == 0 {
        eprintln!("{fpath}: no record carries a trace — sampling never promoted a query");
        std::process::exit(1);
    }
    for r in &dump.records {
        if r.sampled && r.trace.is_none() {
            eprintln!(
                "{fpath}: record seq {} is marked sampled but has no trace",
                r.seq
            );
            std::process::exit(1);
        }
    }

    // The self-instruments must reflect the ring the dump came from.
    let entries_gauge: i64 = snapshot
        .gauges
        .iter()
        .filter(|(id, _)| id.name == families::FLIGHT_ENTRIES)
        .map(|(_, v)| *v)
        .sum();
    if entries_gauge != dump.records.len() as i64 {
        eprintln!(
            "{fpath}: {} = {entries_gauge} but the dump holds {} records",
            families::FLIGHT_ENTRIES,
            dump.records.len()
        );
        std::process::exit(1);
    }
    let dropped_counter = snapshot.counter_total(families::FLIGHT_DROPPED);
    if dropped_counter != dump.dropped {
        eprintln!(
            "{fpath}: {} = {dropped_counter} but the dump reports {} dropped",
            families::FLIGHT_DROPPED,
            dump.dropped
        );
        std::process::exit(1);
    }

    // With zero drops the ring retained every sealed query, so its per-
    // executor totals must equal the registry's exact histogram sums.
    if dump.dropped == 0 {
        let label = |id: &kwdb_obs::MetricId, key: &str| -> Option<String> {
            id.labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        let mut failures = 0u32;
        let mut executors: Vec<_> = dump
            .records
            .iter()
            .map(|r| (r.engine.clone(), r.algorithm.clone()))
            .collect();
        executors.sort();
        executors.dedup();
        for (engine, algorithm) in &executors {
            let recs: Vec<_> = dump
                .records
                .iter()
                .filter(|r| &r.engine == engine && &r.algorithm == algorithm)
                .collect();
            let rec_total: u128 = recs.iter().map(|r| r.total().as_nanos()).sum();
            let hist = snapshot.histograms.iter().find(|(id, _)| {
                id.name == families::QUERY_LATENCY
                    && label(id, "engine").as_deref() == Some(engine)
                    && label(id, "algorithm").as_deref() == Some(algorithm)
            });
            let Some((_, hist)) = hist else {
                eprintln!(
                    "{fpath}: no {} histogram for {engine}/{algorithm}",
                    families::QUERY_LATENCY
                );
                failures += 1;
                continue;
            };
            if hist.count != recs.len() as u64 || u128::from(hist.sum) != rec_total {
                eprintln!(
                    "{fpath}: {engine}/{algorithm}: dump has {} records summing {rec_total}ns, registry histogram has count {} sum {}ns",
                    recs.len(),
                    hist.count,
                    hist.sum
                );
                failures += 1;
            }
            for phase in ["parse", "build", "plan", "evaluate", "facets"] {
                let rec_phase: u128 = recs
                    .iter()
                    .map(|r| {
                        match phase {
                            "parse" => r.phases.parse,
                            "build" => r.phases.build,
                            "plan" => r.phases.plan,
                            "evaluate" => r.phases.evaluate,
                            _ => r.phases.facets,
                        }
                        .as_nanos()
                    })
                    .sum();
                let ph = snapshot.histograms.iter().find(|(id, _)| {
                    id.name == families::PHASE_LATENCY
                        && label(id, "engine").as_deref() == Some(engine)
                        && label(id, "algorithm").as_deref() == Some(algorithm)
                        && label(id, "phase").as_deref() == Some(phase)
                });
                let Some((_, ph)) = ph else {
                    eprintln!(
                        "{fpath}: no {} histogram for {engine}/{algorithm} phase {phase}",
                        families::PHASE_LATENCY
                    );
                    failures += 1;
                    continue;
                };
                if u128::from(ph.sum) != rec_phase {
                    eprintln!(
                        "{fpath}: {engine}/{algorithm} phase {phase}: dump sums {rec_phase}ns, registry histogram sums {}ns",
                        ph.sum
                    );
                    failures += 1;
                }
            }
        }
        if failures > 0 {
            eprintln!("{fpath}: dump/registry disagreement ({failures} failures)");
            std::process::exit(1);
        }

        // Result-cache accounting: every query that consulted the result
        // cache sealed a record with a hit-or-miss outcome, and every
        // bypass (disabled, traced, budget-capped) sealed `none`. With
        // zero drops the ring holds all of them, so the per-engine outcome
        // census must equal the counter families exactly.
        let mut engines: Vec<_> = dump.records.iter().map(|r| r.engine.clone()).collect();
        engines.sort();
        engines.dedup();
        let mut rc_failures = 0u32;
        for engine in &engines {
            let outcome_count = |o: kwdb_obs::CacheOutcome| -> u64 {
                dump.records
                    .iter()
                    .filter(|r| &r.engine == engine && r.result_cache == o)
                    .count() as u64
            };
            let counter = |family: &str| -> u64 {
                snapshot
                    .counters
                    .iter()
                    .filter(|(id, _)| {
                        id.name == family && label(id, "engine").as_deref() == Some(&**engine)
                    })
                    .map(|(_, v)| *v)
                    .sum()
            };
            for (family, outcome) in [
                (families::RESULT_CACHE_HITS, kwdb_obs::CacheOutcome::Hit),
                (families::RESULT_CACHE_MISSES, kwdb_obs::CacheOutcome::Miss),
            ] {
                let recs = outcome_count(outcome);
                let total = counter(family);
                if recs != total {
                    eprintln!(
                        "{fpath}: {engine}: {recs} records with result_cache={} but {family} = {total}",
                        outcome.as_str()
                    );
                    rc_failures += 1;
                }
            }
        }
        if rc_failures > 0 {
            eprintln!("{fpath}: result-cache outcome census disagrees ({rc_failures} failures)");
            std::process::exit(1);
        }
    }

    println!(
        "{fpath}: ok — {} records ({traced} traced, {} dropped) agree with the registry",
        dump.records.len(),
        dump.dropped
    );
}
