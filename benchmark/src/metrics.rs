//! The benchmark's metric tables — the same names, units, directions and
//! bounds `/BENCHMARK.json` declares (a unit test holds the two together) —
//! and the value map a run fills in.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = [
    "relational_topk_cold",
    "explore_session",
    "ingest_mixed",
    "graph_xml_mix",
];

/// How long one run measures when `--seconds` is not given; equals
/// `run_seconds` in `/BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a client of the system sees. Every workload reports every one of
/// these (the driver's contract), which is why workload-specific figures —
/// throughput, ingest rate, commit latency, write stall — live in
/// [`PER_LAYER`] under `bench.*` / `ingest.*` instead. Two more sit there
/// because no bound on them could hold on the reference host:
/// `bench.query_p90_ms` — identical runs of `relational_topk_cold` minutes
/// apart read 20‥27 ms or 80‥96 ms, depending on whether the host lets the
/// parallel CN executor's two workers really run side by side (p50 stays
/// within ±5 %) — and `bench.peak_rss_mb`, which swings 2× between seeds
/// (90‥190 MiB) with what the allocator retains from per-query threads.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "hit_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

/// `(name, unit, better)`; layer = the prefix, a module name.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("datasets.generate_s", "s", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.postings", "count", "lower"),
    ("index.posting_bytes", "bytes", "lower"),
    ("index.bytes_per_tuple", "bytes", "lower"),
    ("index.blocks_bytes_ratio", "ratio", "lower"),
    ("index.intersect_ns_per_key", "ns", "lower"),
    ("index.segments_sealed", "count", "lower"),
    ("index.commit_ms", "ms", "lower"),
    ("index.merge_ms", "ms", "lower"),
    ("relational.ingest_us", "us", "lower"),
    ("relsearch.tupleset.build_us", "us", "lower"),
    ("relsearch.tupleset.cached_build_us", "us", "lower"),
    ("relsearch.tupleset.cache_hit_ratio", "ratio", "higher"),
    ("relsearch.cn.generate_us", "us", "lower"),
    ("relsearch.cn.cns_per_query", "count", "lower"),
    ("relsearch.pexec.evaluate_us", "us", "lower"),
    ("relsearch.pexec.evaluate_w1_us", "us", "lower"),
    ("relsearch.topk.global_us", "us", "lower"),
    ("relsearch.pooled_vs_global_ratio", "ratio", "lower"),
    ("relsearch.workersN_vs_1_ratio", "ratio", "lower"),
    ("relsearch.cns_evaluated_share", "ratio", "lower"),
    ("relsearch.tuples_scanned_per_hit", "count", "lower"),
    ("relsearch.join_probes_per_hit", "count", "lower"),
    ("relsearch.blocks_skipped", "count", "higher"),
    ("relsearch.pexec.p99_ms", "ms", "lower"),
    ("relsearch.pexec.max_ms", "ms", "lower"),
    ("relsearch.pexec.jitter_share", "ratio", "lower"),
    ("relsearch.pexec.qps", "1/s", "higher"),
    ("relsearch.facets.evaluate_us", "us", "lower"),
    ("relsearch.facets.values_per_query", "count", "lower"),
    (
        "relsearch.facets.rows_enumerated_per_query",
        "count",
        "lower",
    ),
    ("explore.summary.us_per_hit", "us", "lower"),
    ("explore.facet_miss_p50_ms", "ms", "lower"),
    ("engine.relational.execute_ms", "ms", "lower"),
    ("engine.phase.parse_us", "us", "lower"),
    ("engine.phase.build_us", "us", "lower"),
    ("engine.phase.plan_us", "us", "lower"),
    ("engine.phase.evaluate_us", "us", "lower"),
    ("engine.phase.facets_us", "us", "lower"),
    ("engine.phase_sum_share", "ratio", "higher"),
    ("engine.self_share", "ratio", "lower"),
    ("engine.plan_cache.hit_ratio", "ratio", "higher"),
    ("engine.result_cache.hit_ratio", "ratio", "higher"),
    ("engine.hit_us", "us", "lower"),
    ("engine.hit_bare_us", "us", "lower"),
    ("engine.ingest_overhead_ratio", "ratio", "lower"),
    ("cache.get_hit_ns", "ns", "lower"),
    ("cache.miss_insert_ns", "ns", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.hit_ratio_zipf", "ratio", "higher"),
    ("cache.result_entries", "count", "lower"),
    ("cache.result_bytes", "bytes", "lower"),
    ("dispatch.overhead_us", "us", "lower"),
    ("dispatch.batch_spawn_us", "us", "lower"),
    ("dispatch.queue_wait_p50_us", "us", "lower"),
    ("graph.from_database_s", "s", "lower"),
    ("graph.blinks_build_s", "s", "lower"),
    ("graphsearch.banks_us", "us", "lower"),
    ("graphsearch.dpbf_us", "us", "lower"),
    ("graphsearch.blinks_us", "us", "lower"),
    ("graphsearch.candidates_per_hit", "count", "lower"),
    ("xml.index_build_s", "s", "lower"),
    ("xmlsearch.execute_us", "us", "lower"),
    ("xmlsearch.candidates_per_hit", "count", "lower"),
    ("obs.record_overhead_ratio", "ratio", "lower"),
    ("obs.flight_records", "count", "higher"),
    ("obs.flight_dropped", "count", "lower"),
    ("obs.snapshot_ms", "ms", "lower"),
    ("ingest.tuples_per_s", "1/s", "higher"),
    ("ingest.commit_p50_ms", "ms", "lower"),
    ("ingest.write_stall_p50_ms", "ms", "lower"),
    ("bench.query_p90_ms", "ms", "lower"),
    ("bench.throughput_qps", "1/s", "higher"),
    ("bench.peak_rss_mb", "MiB", "lower"),
    ("bench.failed_share", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.writer_lateness_p99_ms", "ms", "lower"),
    ("bench.resolved_workers", "count", "higher"),
    ("bench.nproc", "count", "higher"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// Measured values by metric name. Only declared names can be set, so a
/// typo in a workload is a panic in `--quick`, not a silently missing row.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` for every end-to-end metric. A value the
    /// workload did not produce is a bug in the workload.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        END_TO_END
            .iter()
            .map(|m| {
                let v = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("workload did not report {}", m.name));
                (m.name, v, m.unit)
            })
            .collect()
    }

    /// `(name, value, unit)` for every per-layer metric; a layer the
    /// workload never enters reads 0.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}

/// `a / b`, or 0 when the denominator is 0 (a layer that did not run).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb::obs::json::Json;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    /// `/BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let field = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).unwrap().to_string();
        let list = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap().to_vec();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better);
            let bound = match j.get("bound").unwrap() {
                Json::Num(n) => *n,
                Json::Int(i) => *i as f64,
                other => panic!("bound {other:?}"),
            };
            assert_eq!(bound, m.bound, "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (m.0.to_string(), m.1.to_string(), m.2.to_string())
            );
        }
    }
}
