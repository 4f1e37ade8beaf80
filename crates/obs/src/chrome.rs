//! Chrome/Perfetto `trace_event` export for [`QueryTrace`] span trees.
//!
//! [`to_chrome_trace`] renders one trace as the JSON Object Format the
//! Chromium trace viewer and Perfetto both load directly: save the string
//! to a file, open `chrome://tracing` (or <https://ui.perfetto.dev>), and
//! drop the file in to see the query's phases on a timeline.
//!
//! Span layout: the query root becomes one complete (`"ph": "X"`) event
//! spanning the whole query, each phase a complete event nested inside it
//! (the viewer nests by time containment on the same pid/tid), and each
//! operator event an instant (`"ph": "i"`) mark. Timestamps and durations
//! are microseconds-as-float per the format; the exact nanosecond values
//! ride along in `args`, immune to the µs rounding.

use crate::json::Json;
use crate::trace::QueryTrace;
use std::time::Duration;

/// Microseconds-as-f64, the `ts`/`dur` unit of the trace_event format.
fn us(d: Duration) -> Json {
    Json::Num(d.as_nanos() as f64 / 1e3)
}

fn ns(d: Duration) -> Json {
    Json::Int(d.as_nanos() as i128)
}

fn event(name: &str, ph: &str, cat: &str, extra: Vec<(String, Json)>) -> Json {
    let mut o = vec![
        ("name".into(), Json::Str(name.to_string())),
        ("ph".into(), Json::Str(ph.to_string())),
        ("cat".into(), Json::Str(cat.to_string())),
        ("pid".into(), Json::Int(1)),
        ("tid".into(), Json::Int(1)),
    ];
    o.extend(extra);
    Json::Obj(o)
}

/// Render `trace` as a Chrome `trace_event` JSON document.
pub fn to_chrome_trace(trace: &QueryTrace) -> String {
    let mut events = Vec::with_capacity(1 + 2 * trace.phases.len());
    events.push(event(
        &trace.label,
        "X",
        "query",
        vec![
            ("ts".into(), us(Duration::ZERO)),
            ("dur".into(), us(trace.total)),
            (
                "args".into(),
                Json::Obj(vec![("total_ns".into(), ns(trace.total))]),
            ),
        ],
    ));
    for p in &trace.phases {
        events.push(event(
            &p.name,
            "X",
            "phase",
            vec![
                ("ts".into(), us(p.start)),
                ("dur".into(), us(p.duration)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("start_ns".into(), ns(p.start)),
                        ("duration_ns".into(), ns(p.duration)),
                    ]),
                ),
            ],
        ));
        for e in &p.events {
            let mut args = vec![("at_ns".into(), ns(e.at))];
            args.extend(
                e.fields
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
            );
            events.push(event(
                &e.message,
                "i",
                "event",
                vec![
                    ("ts".into(), us(e.at)),
                    ("s".into(), Json::Str("t".into())),
                    ("args".into(), Json::Obj(args)),
                ],
            ));
        }
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ns".into())),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceBuilder, TraceLevel};
    use kwdb_common::Phase;

    #[test]
    fn export_parses_and_nests_phases_inside_the_root() {
        let mut tb = TraceBuilder::start();
        tb.record(TraceLevel::Full, || "relational/parallel_cn \"q\"".into());
        tb.phase(Phase::Parse);
        tb.phase(Phase::Evaluate);
        tb.event("budget verdict", || vec![("truncated".into(), "no".into())]);
        let trace = tb.finish().1.unwrap();

        let doc = Json::parse(&to_chrome_trace(&trace)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // root + 2 phases + 1 instant
        assert_eq!(events.len(), 4);
        let ph = |e: &Json| e.get("ph").unwrap().as_str().unwrap().to_string();
        assert_eq!(ph(&events[0]), "X");
        assert!(events.iter().all(|e| matches!(ph(e).as_str(), "X" | "i")));

        // every X phase nests inside the root X event by time containment
        let span = |e: &Json| {
            let f = |k: &str| match e.get(k) {
                Some(Json::Num(n)) => *n,
                Some(Json::Int(i)) => *i as f64,
                _ => panic!("missing {k}"),
            };
            (f("ts"), f("ts") + f("dur"))
        };
        let (root_ts, root_end) = span(&events[0]);
        for e in &events[1..] {
            if ph(e) == "X" {
                let (ts, end) = span(e);
                assert!(
                    ts >= root_ts && end <= root_end + 1e-3,
                    "phase escapes root"
                );
            }
        }
        // exact ns values ride in args
        assert_eq!(
            events[0].get("args").unwrap().get("total_ns").unwrap(),
            &Json::Int(trace.total.as_nanos() as i128)
        );
    }
}
