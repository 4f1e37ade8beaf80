//! kwdb-doctor — offline analysis of flight-recorder dumps and metrics
//! snapshots.
//!
//! ```sh
//! # Analyze a flight recorder dump written by `reproduce --flight-out`:
//! cargo run -p kwdb-bench --bin kwdb-doctor -- BENCH_flight.json
//! cargo run -p kwdb-bench --bin kwdb-doctor -- BENCH_flight.json --top 5
//!
//! # Export the slowest traced query as Chrome/Perfetto trace_event JSON
//! # (load it at chrome://tracing or ui.perfetto.dev):
//! cargo run -p kwdb-bench --bin kwdb-doctor -- BENCH_flight.json --chrome-out trace.json
//!
//! # Diff two kwdb-metrics-v1 snapshots (counters, gauges, histogram p99s):
//! cargo run -p kwdb-bench --bin kwdb-doctor -- --diff old.json new.json
//! ```
//!
//! The dump format (`kwdb-flightrec-v1`) is self-contained: every record
//! carries its per-phase durations, truncation/cache outcome, and — for
//! sampled or slow queries — a full span tree, so tail-latency forensics
//! needs no access to the process that served the queries.

use kwdb_common::Phase;
use kwdb_obs::{chrome, FlightDump, MetricId, QueryRecord, Snapshot};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        match &args[1..] {
            [a, b] => diff_snapshots(a, b),
            _ => usage(),
        }
        return;
    }

    let mut dump_path: Option<&str> = None;
    let mut top = 10usize;
    let mut chrome_out: Option<&str> = None;
    let mut metrics_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => top = n,
                None => usage(),
            },
            "--chrome-out" => match it.next() {
                Some(p) => chrome_out = Some(p),
                None => usage(),
            },
            "--metrics" => match it.next() {
                Some(p) => metrics_path = Some(p),
                None => usage(),
            },
            p if !p.starts_with("--") && dump_path.is_none() => dump_path = Some(p),
            _ => usage(),
        }
    }
    let Some(path) = dump_path else { usage() };
    analyze(path, top, chrome_out, metrics_path);
}

fn usage() -> ! {
    eprintln!(
        "usage: kwdb-doctor <flight.json> [--top N] [--chrome-out PATH] [--metrics SNAPSHOT]"
    );
    eprintln!("       kwdb-doctor --diff <old-metrics.json> <new-metrics.json>");
    std::process::exit(2);
}

fn load_dump(path: &str) -> FlightDump {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    FlightDump::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not a valid kwdb-flightrec-v1 dump: {e}");
        std::process::exit(1);
    })
}

fn ms(d: Duration) -> String {
    format!("{:.3}ms", d.as_nanos() as f64 / 1e6)
}

/// The phase that dominated one record's latency.
fn dominant_phase(r: &QueryRecord) -> (&'static str, Duration) {
    let top = (Phase::ALL.into_iter())
        .max_by_key(|&p| r.phases[p])
        .unwrap_or(Phase::Parse);
    (top.name(), r.phases[top])
}

/// One row of the phase breakdown: the executor, `n`, one cell per
/// [`Phase`] and the total.
fn breakdown_row(executor: &str, n: &str, phases: [String; 5], total: &str) -> String {
    let mut row = format!("{executor:<24}  {n:>5}");
    for cell in phases.iter().map(String::as_str).chain([total]) {
        row.push_str(&format!("  {cell:>12}"));
    }
    row
}

fn analyze(path: &str, top: usize, chrome_out: Option<&str>, metrics_path: Option<&str>) {
    let dump = load_dump(path);
    let snapshot = metrics_path.map(load_snapshot);
    println!(
        "{path}: {} records (capacity {}, {} dropped)",
        dump.records.len(),
        dump.capacity,
        dump.dropped
    );
    if dump.records.is_empty() {
        return;
    }

    // Top-N slowest.
    let mut by_latency: Vec<&QueryRecord> = dump.records.iter().collect();
    by_latency.sort_by_key(|r| std::cmp::Reverse(r.total()));
    println!("\n== top {} slowest ==", top.min(by_latency.len()));
    println!(
        "{:>6}  {:<24}  {:<26}  {:>12}  {:<10}  {:<13}  {:<5}  flags",
        "seq", "executor", "digest", "total", "dominant", "truncation", "cache"
    );
    for r in by_latency.iter().take(top) {
        let (phase, d) = dominant_phase(r);
        let mut flags = Vec::new();
        if r.slow {
            flags.push("slow");
        }
        if r.sampled {
            flags.push("sampled");
        }
        if r.trace.is_some() {
            flags.push("traced");
        }
        println!(
            "{:>6}  {:<24}  {:<26}  {:>12}  {:<10}  {:<13}  {:<5}  {}",
            r.seq,
            format!("{}/{}", r.engine, r.algorithm),
            r.digest,
            ms(r.total()),
            format!("{phase} {}", ms(d)),
            r.truncation
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            r.cache.as_str(),
            flags.join(",")
        );
    }

    // Per-executor phase breakdown.
    let mut executors: Vec<_> = dump
        .records
        .iter()
        .map(|r| (r.engine.clone(), r.algorithm.clone()))
        .collect();
    executors.sort();
    executors.dedup();
    println!("\n== per-executor phase breakdown ==");
    let names = Phase::ALL.map(|p| p.name().to_string());
    println!("{}", breakdown_row("executor", "n", names, "total"));
    for (engine, algorithm) in &executors {
        let recs: Vec<&QueryRecord> = dump
            .records
            .iter()
            .filter(|r| &r.engine == engine && &r.algorithm == algorithm)
            .collect();
        let phases = Phase::ALL.map(|p| ms(recs.iter().map(|r| r.phases[p]).sum()));
        let total = ms(recs.iter().map(|r| r.total()).sum());
        let executor = format!("{engine}/{algorithm}");
        println!(
            "{}",
            breakdown_row(&executor, &recs.len().to_string(), phases, &total)
        );
    }

    // Per-engine generations: the generation span from the oldest to the
    // newest record shows how much mutation the window covered.
    let mut engines: Vec<&str> = dump.records.iter().map(|r| &*r.engine).collect();
    engines.sort();
    engines.dedup();
    println!("\n== per-engine generations ==");
    println!(
        "{:<14}  {:>10}  {:>10}",
        "engine", "gen(first)", "gen(last)"
    );
    for engine in &engines {
        let mut recs: Vec<&QueryRecord> = dump
            .records
            .iter()
            .filter(|r| &r.engine == engine)
            .collect();
        recs.sort_by_key(|r| r.seq);
        let (first, last) = (recs[0], recs[recs.len() - 1]);
        println!(
            "{:<14}  {:>10}  {:>10}",
            engine, first.generation, last.generation
        );
    }

    // Truncation and cache outcome summaries.
    let truncated: Vec<&QueryRecord> = dump
        .records
        .iter()
        .filter(|r| r.truncation.is_some())
        .collect();
    println!("\n== outcomes ==");
    println!(
        "truncated: {}/{} ({} deadline, {} candidate_cap)",
        truncated.len(),
        dump.records.len(),
        truncated
            .iter()
            .filter(|r| r.truncation.map(|t| t.to_string()) == Some("deadline".into()))
            .count(),
        truncated
            .iter()
            .filter(|r| r.truncation.map(|t| t.to_string()) == Some("candidate_cap".into()))
            .count(),
    );
    let cache_count = |k: &str| {
        dump.records
            .iter()
            .filter(|r| r.cache.as_str() == k)
            .count()
    };
    println!(
        "plan cache: {} hit, {} miss, {} n/a",
        cache_count("hit"),
        cache_count("miss"),
        cache_count("none")
    );
    println!(
        "traces: {} of {} records ({} sampled by policy, {} flagged slow)",
        dump.records.iter().filter(|r| r.trace.is_some()).count(),
        dump.records.len(),
        dump.records.iter().filter(|r| r.sampled).count(),
        dump.records.iter().filter(|r| r.slow).count(),
    );

    // Per-engine result-cache census from the dump; with `--metrics` the
    // eviction count and live entry/byte gauges from the same run's
    // snapshot fill in the columns the records can't carry.
    println!("\n== result cache ==");
    println!(
        "{:<14}  {:>8}  {:>6}  {:>6}  {:>8}  {:>8}  {:>9}  {:>7}  {:>10}",
        "engine",
        "consults",
        "hits",
        "misses",
        "hit-rate",
        "bypassed",
        "evictions",
        "entries",
        "bytes"
    );
    for engine in &engines {
        let outcome = |k: &str| -> u64 {
            dump.records
                .iter()
                .filter(|r| &r.engine == engine && r.result_cache.as_str() == k)
                .count() as u64
        };
        let (hits, misses, bypassed) = (outcome("hit"), outcome("miss"), outcome("none"));
        let consults = hits + misses;
        let rate = if consults > 0 {
            format!("{:.1}%", 100.0 * hits as f64 / consults as f64)
        } else {
            "-".into()
        };
        let series = |family: &str, counters: bool| -> Option<i128> {
            let snap = snapshot.as_ref()?;
            let matches = |id: &MetricId| {
                id.name == family
                    && id
                        .labels
                        .iter()
                        .any(|(k, v)| k == "engine" && v.as_str() == *engine)
            };
            Some(if counters {
                snap.counters
                    .iter()
                    .filter(|(id, _)| matches(id))
                    .map(|(_, v)| *v as i128)
                    .sum()
            } else {
                snap.gauges
                    .iter()
                    .filter(|(id, _)| matches(id))
                    .map(|(_, v)| *v as i128)
                    .sum()
            })
        };
        let opt = |v: Option<i128>| v.map(|n| n.to_string()).unwrap_or_else(|| "-".into());
        println!(
            "{:<14}  {:>8}  {:>6}  {:>6}  {:>8}  {:>8}  {:>9}  {:>7}  {:>10}",
            engine,
            consults,
            hits,
            misses,
            rate,
            bypassed,
            opt(series(kwdb_obs::families::RESULT_CACHE_EVICTIONS, true)),
            opt(series(kwdb_obs::families::RESULT_CACHE_ENTRIES, false)),
            opt(series(kwdb_obs::families::RESULT_CACHE_BYTES, false)),
        );
    }

    // Chrome export: the slowest record that carries a span tree.
    if let Some(out) = chrome_out {
        let Some(rec) = by_latency.iter().find(|r| r.trace.is_some()) else {
            eprintln!("no record carries a trace; nothing to export");
            std::process::exit(1);
        };
        let trace = rec.trace.as_ref().expect("filtered on is_some");
        let json = chrome::to_chrome_trace(trace);
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
        println!(
            "\nchrome trace of seq {} ({}/{}, {}) written to {out}",
            rec.seq,
            rec.engine,
            rec.algorithm,
            ms(rec.total())
        );
    }
}

fn load_snapshot(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    kwdb_obs::export::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not a valid kwdb-metrics-v1 snapshot: {e}");
        std::process::exit(1);
    })
}

/// `name{k="v",...}` rendering of one series identity.
fn fmt_id(id: &MetricId) -> String {
    if id.labels.is_empty() {
        return id.name.clone();
    }
    let labels: Vec<String> = id
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    format!("{}{{{}}}", id.name, labels.join(","))
}

/// Print every counter/gauge/histogram that changed between two snapshots.
fn diff_snapshots(a_path: &str, b_path: &str) {
    let a = load_snapshot(a_path);
    let b = load_snapshot(b_path);
    println!("diff {a_path} -> {b_path}");
    let mut changes = 0usize;

    let a_counters: std::collections::BTreeMap<_, _> =
        a.counters.iter().map(|(id, v)| (id.clone(), *v)).collect();
    let b_counters: std::collections::BTreeMap<_, _> =
        b.counters.iter().map(|(id, v)| (id.clone(), *v)).collect();
    let mut counter_ids: Vec<_> = a_counters.keys().chain(b_counters.keys()).collect();
    counter_ids.sort();
    counter_ids.dedup();
    for id in counter_ids {
        let (va, vb) = (
            a_counters.get(id).copied().unwrap_or(0),
            b_counters.get(id).copied().unwrap_or(0),
        );
        if va != vb {
            println!(
                "  counter {}: {va} -> {vb} ({:+})",
                fmt_id(id),
                vb as i128 - va as i128
            );
            changes += 1;
        }
    }

    let a_gauges: std::collections::BTreeMap<_, _> =
        a.gauges.iter().map(|(id, v)| (id.clone(), *v)).collect();
    let b_gauges: std::collections::BTreeMap<_, _> =
        b.gauges.iter().map(|(id, v)| (id.clone(), *v)).collect();
    let mut gauge_ids: Vec<_> = a_gauges.keys().chain(b_gauges.keys()).collect();
    gauge_ids.sort();
    gauge_ids.dedup();
    for id in gauge_ids {
        let (va, vb) = (
            a_gauges.get(id).copied().unwrap_or(0),
            b_gauges.get(id).copied().unwrap_or(0),
        );
        if va != vb {
            println!("  gauge {}: {va} -> {vb} ({:+})", fmt_id(id), vb - va);
            changes += 1;
        }
    }

    let a_hists: std::collections::BTreeMap<_, _> =
        a.histograms.iter().map(|(id, h)| (id.clone(), h)).collect();
    let b_hists: std::collections::BTreeMap<_, _> =
        b.histograms.iter().map(|(id, h)| (id.clone(), h)).collect();
    let mut hist_ids: Vec<_> = a_hists.keys().chain(b_hists.keys()).collect();
    hist_ids.sort();
    hist_ids.dedup();
    for id in hist_ids {
        match (a_hists.get(id), b_hists.get(id)) {
            (Some(ha), Some(hb)) if ha != hb => {
                println!(
                    "  histogram {}: count {} -> {}, p99 {} -> {}ns",
                    fmt_id(id),
                    ha.count,
                    hb.count,
                    ha.quantile(0.99),
                    hb.quantile(0.99)
                );
                changes += 1;
            }
            (Some(ha), None) => {
                println!(
                    "  histogram {}: removed (was count {})",
                    fmt_id(id),
                    ha.count
                );
                changes += 1;
            }
            (None, Some(hb)) => {
                println!("  histogram {}: added (count {})", fmt_id(id), hb.count);
                changes += 1;
            }
            _ => {}
        }
    }

    if changes == 0 {
        println!("  snapshots are identical");
    } else {
        println!("  {changes} series changed");
    }
}
