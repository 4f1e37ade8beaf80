//! Snapshot exporters: Prometheus text exposition and a JSON round-trip.
//!
//! * [`to_prometheus`] renders a [`Snapshot`] in the Prometheus text
//!   exposition format (`# TYPE` headers, escaped label values, cumulative
//!   `_bucket{le=...}` series plus `_sum`/`_count` for histograms) — point a
//!   scraper at whatever serves the string.
//! * [`to_json`] / [`from_json`] round-trip a snapshot through a stable JSON
//!   schema; the bench harness writes these as `BENCH_*.json` perf baselines
//!   and CI parses them back to validate the emitted metric families.

use crate::hist::HistogramSnapshot;
use crate::json::{Json, JsonError};
use crate::registry::{MetricId, Snapshot};
use std::fmt::Write as _;

/// Render `snapshot` in Prometheus text exposition format.
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let emit_header = |out: &mut String, prev: &mut String, name: &str, kind: &str| {
        if prev != name {
            if let Some(help) = crate::record::families::help(name) {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
            }
            let _ = writeln!(out, "# TYPE {name} {kind}");
            *prev = name.to_string();
        }
    };

    let mut prev = String::new();
    for (id, value) in &snapshot.counters {
        emit_header(&mut out, &mut prev, &id.name, "counter");
        let _ = writeln!(out, "{}{} {value}", id.name, label_block(&id.labels, &[]));
    }
    prev.clear();
    for (id, value) in &snapshot.gauges {
        emit_header(&mut out, &mut prev, &id.name, "gauge");
        let _ = writeln!(out, "{}{} {value}", id.name, label_block(&id.labels, &[]));
    }
    prev.clear();
    for (id, hist) in &snapshot.histograms {
        emit_header(&mut out, &mut prev, &id.name, "histogram");
        for (le, cum) in hist.cumulative() {
            let _ = writeln!(
                out,
                "{}_bucket{} {cum}",
                id.name,
                label_block(&id.labels, &[("le", &le.to_string())])
            );
        }
        let _ = writeln!(
            out,
            "{}_bucket{} {}",
            id.name,
            label_block(&id.labels, &[("le", "+Inf")]),
            hist.count
        );
        let _ = writeln!(
            out,
            "{}_sum{} {}",
            id.name,
            label_block(&id.labels, &[]),
            hist.sum
        );
        let _ = writeln!(
            out,
            "{}_count{} {}",
            id.name,
            label_block(&id.labels, &[]),
            hist.count
        );
    }
    out
}

/// `{a="1",b="2"}` with Prometheus escaping; empty string for no labels.
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|&(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// HELP text escaping per the exposition format: backslash and newline
/// only (no quote escaping — HELP text is not quoted).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Serialize a snapshot to the stable JSON schema (pretty enough to diff,
/// compact enough to commit as a `BENCH_*.json` baseline).
pub fn to_json(snapshot: &Snapshot) -> String {
    let id_obj = |id: &MetricId| -> Vec<(String, Json)> {
        vec![
            ("name".into(), Json::Str(id.name.clone())),
            (
                "labels".into(),
                Json::Obj(
                    id.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ]
    };
    let counters = snapshot
        .counters
        .iter()
        .map(|(id, v)| {
            let mut o = id_obj(id);
            o.push(("value".into(), Json::Int(*v as i128)));
            Json::Obj(o)
        })
        .collect();
    let gauges = snapshot
        .gauges
        .iter()
        .map(|(id, v)| {
            let mut o = id_obj(id);
            o.push(("value".into(), Json::Int(*v as i128)));
            Json::Obj(o)
        })
        .collect();
    let histograms = snapshot
        .histograms
        .iter()
        .map(|(id, h)| {
            let mut o = id_obj(id);
            o.push(("count".into(), Json::Int(h.count as i128)));
            o.push(("sum".into(), Json::Int(h.sum as i128)));
            o.push(("max".into(), Json::Int(h.max as i128)));
            o.push(("p50".into(), Json::Int(h.p50() as i128)));
            o.push(("p90".into(), Json::Int(h.p90() as i128)));
            o.push(("p99".into(), Json::Int(h.p99() as i128)));
            o.push((
                "buckets".into(),
                Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(i, n)| Json::Arr(vec![Json::Int(i as i128), Json::Int(n as i128)]))
                        .collect(),
                ),
            ));
            Json::Obj(o)
        })
        .collect();
    Json::Obj(vec![
        ("format".into(), Json::Str("kwdb-metrics-v1".into())),
        ("counters".into(), Json::Arr(counters)),
        ("gauges".into(), Json::Arr(gauges)),
        ("histograms".into(), Json::Arr(histograms)),
    ])
    .to_string_compact()
}

/// Parse a snapshot previously written by [`to_json`]. The derived
/// percentile fields (`p50`/`p90`/`p99`) are recomputed from the buckets,
/// not trusted, so `from_json(to_json(s)) == s` holds exactly.
pub fn from_json(input: &str) -> Result<Snapshot, JsonError> {
    let doc = Json::parse(input)?;
    let bad = |message: &str| JsonError {
        offset: 0,
        message: message.to_string(),
    };
    if doc.get("format").and_then(Json::as_str) != Some("kwdb-metrics-v1") {
        return Err(bad("missing or unknown \"format\" marker"));
    }
    let parse_id = |o: &Json| -> Result<MetricId, JsonError> {
        let name = o
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("metric missing \"name\""))?
            .to_string();
        let labels = match o.get("labels") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| bad("label value must be a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(bad("metric missing \"labels\" object")),
        };
        Ok(MetricId { name, labels })
    };
    let arr = |key: &str| -> Result<&[Json], JsonError> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| bad(&format!("missing \"{key}\" array")))
    };

    let mut counters = Vec::new();
    for o in arr("counters")? {
        let v = o
            .get("value")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("counter missing u64 \"value\""))?;
        counters.push((parse_id(o)?, v));
    }
    let mut gauges = Vec::new();
    for o in arr("gauges")? {
        let v = o
            .get("value")
            .and_then(Json::as_i64)
            .ok_or_else(|| bad("gauge missing i64 \"value\""))?;
        gauges.push((parse_id(o)?, v));
    }
    let mut histograms = Vec::new();
    for o in arr("histograms")? {
        let field = |k: &str| {
            o.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("histogram missing u64 \"{k}\"")))
        };
        let buckets = o
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("histogram missing \"buckets\""))?
            .iter()
            .map(|pair| {
                let p = pair.as_arr().filter(|p| p.len() == 2);
                let (i, n) = match p {
                    Some(p) => (p[0].as_u64(), p[1].as_u64()),
                    None => (None, None),
                };
                match (i, n) {
                    (Some(i), Some(n)) => Ok((i as usize, n)),
                    _ => Err(bad("histogram bucket must be [index, count]")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        histograms.push((
            parse_id(o)?,
            HistogramSnapshot {
                buckets,
                count: field("count")?,
                sum: field("sum")?,
                max: field("max")?,
            },
        ));
    }
    Ok(Snapshot {
        counters,
        gauges,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter(
            "kwdb_queries_total",
            &[("engine", "relational"), ("algorithm", "parallel_cn")],
        )
        .add(17);
        reg.counter(
            "kwdb_queries_total",
            &[("engine", "graph"), ("algorithm", "banks")],
        )
        .add(3);
        reg.gauge("kwdb_dispatch_inflight", &[]).set(2);
        let h = reg.histogram("kwdb_query_latency_ns", &[("engine", "relational")]);
        for v in [120_000u64, 340_000, 950_000, 40_000_000] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn json_snapshot_round_trips_exactly() {
        let snap = sample_registry().snapshot();
        let json = to_json(&snap);
        let back = from_json(&json).unwrap();
        assert_eq!(back, snap);
        // and a second generation is byte-identical (stable ordering)
        assert_eq!(to_json(&back), json);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = to_prometheus(&sample_registry().snapshot());
        // HELP precedes TYPE for every family with registered help text
        assert!(text.contains(
            "# HELP kwdb_queries_total Queries executed, by engine and algorithm.\n# TYPE kwdb_queries_total counter"
        ));
        assert!(text.contains("# HELP kwdb_query_latency_ns "));
        assert!(text.contains("# TYPE kwdb_queries_total counter"));
        assert!(
            text.contains("kwdb_queries_total{algorithm=\"parallel_cn\",engine=\"relational\"} 17")
        );
        assert!(text.contains("# TYPE kwdb_dispatch_inflight gauge"));
        assert!(text.contains("kwdb_dispatch_inflight 2"));
        assert!(text.contains("# TYPE kwdb_query_latency_ns histogram"));
        assert!(text.contains("kwdb_query_latency_ns_bucket{engine=\"relational\",le=\"+Inf\"} 4"));
        assert!(text.contains("kwdb_query_latency_ns_count{engine=\"relational\"} 4"));
        // exactly one TYPE/HELP header per family
        assert_eq!(text.matches("# TYPE kwdb_queries_total").count(), 1);
        assert_eq!(text.matches("# HELP kwdb_queries_total").count(), 1);
    }

    #[test]
    fn prometheus_help_only_for_known_families() {
        let reg = MetricsRegistry::new();
        reg.counter("bench_local_total", &[]).inc();
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE bench_local_total counter"));
        assert!(!text.contains("# HELP bench_local_total"));
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[("q", "say \"hi\"\nback\\slash")]).inc();
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains(r#"m{q="say \"hi\"\nback\\slash"} 1"#));
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(from_json("{}").is_err());
        assert!(from_json("not json").is_err());
        assert!(from_json(r#"{"format":"kwdb-metrics-v1"}"#).is_err());
        assert!(from_json(
            r#"{"format":"kwdb-metrics-v1","counters":[{"name":"x","labels":{},"value":-1}],"gauges":[],"histograms":[]}"#
        )
        .is_err());
    }
}
