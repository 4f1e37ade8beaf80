//! Structured query traces: an `EXPLAIN ANALYZE`-style record of one query's
//! execution.
//!
//! A [`QueryTrace`] is a span tree — the query root, one span per pipeline
//! phase (parse → build → plan → evaluate), and inside each span the
//! operator events that matter for diagnosis: plan-cache outcomes, budget
//! verdicts, counter deltas. Engines build it through a [`TraceBuilder`]
//! attached to the request's [`TraceLevel`] knob:
//!
//! * [`TraceLevel::Off`] (the default) — the builder is a no-op holding no
//!   allocation; every call is a branch on a `None` and event closures are
//!   never invoked, so tracing costs nothing unless asked for.
//! * [`TraceLevel::Phases`] — phase spans with wall-clock timings.
//! * [`TraceLevel::Full`] — phases plus operator events and counter deltas.
//!
//! Render with [`QueryTrace::render_text`] for humans or
//! [`QueryTrace::to_json`] for tooling.

use crate::json::{Json, JsonError};
use std::time::{Duration, Instant};

/// How much tracing a request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No trace (zero overhead).
    #[default]
    Off,
    /// Phase spans with timings.
    Phases,
    /// Phase spans plus operator events.
    Full,
}

/// One event inside a phase span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Offset from query start.
    pub at: Duration,
    pub message: String,
    /// Structured key=value payload.
    pub fields: Vec<(String, String)>,
}

/// One pipeline phase of the traced query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    pub name: String,
    /// Offset from query start.
    pub start: Duration,
    pub duration: Duration,
    pub events: Vec<TraceEvent>,
}

/// The completed trace of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// `engine: "query"` — the root label.
    pub label: String,
    pub total: Duration,
    pub phases: Vec<PhaseSpan>,
}

impl QueryTrace {
    /// Render as an `EXPLAIN ANALYZE`-style tree:
    ///
    /// ```text
    /// Query relational "data query"  (total 1.532 ms)
    /// ├─ parse     12.1 µs
    /// ├─ plan     310.0 µs
    /// │    • plan cache [outcome=miss, cns=42]
    /// └─ evaluate   1.2 ms
    ///      • budget verdict [truncated=no]
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Query {}  (total {})\n",
            self.label,
            fmt_duration(self.total)
        );
        for (i, phase) in self.phases.iter().enumerate() {
            let last = i + 1 == self.phases.len();
            let branch = if last { "└─" } else { "├─" };
            let cont = if last { "  " } else { "│ " };
            out.push_str(&format!(
                "{branch} {:<10} {:>10}\n",
                phase.name,
                fmt_duration(phase.duration)
            ));
            for ev in &phase.events {
                let fields = if ev.fields.is_empty() {
                    String::new()
                } else {
                    format!(
                        " [{}]",
                        ev.fields
                            .iter()
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                out.push_str(&format!("{cont}   • {}{fields}\n", ev.message));
            }
        }
        out
    }

    /// The trace as a JSON document (stable schema: label, total_ns,
    /// phases[{name, start_ns, duration_ns, events[{at_ns, message,
    /// fields{}}]}]). All `*_ns` fields are exact integers — `f64` would
    /// silently round durations above 2^53 ns.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_compact()
    }

    /// [`to_json`](Self::to_json) as a [`Json`] value, for embedding the
    /// trace inside a larger document (the flight-recorder dump).
    pub fn to_json_value(&self) -> Json {
        let ns = |d: Duration| Json::Int(d.as_nanos() as i128);
        let phases = self
            .phases
            .iter()
            .map(|p| {
                let events = p
                    .events
                    .iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("at_ns".into(), ns(e.at)),
                            ("message".into(), Json::Str(e.message.clone())),
                            (
                                "fields".into(),
                                Json::Obj(
                                    e.fields
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::Str(p.name.clone())),
                    ("start_ns".into(), ns(p.start)),
                    ("duration_ns".into(), ns(p.duration)),
                    ("events".into(), Json::Arr(events)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("total_ns".into(), ns(self.total)),
            ("phases".into(), Json::Arr(phases)),
        ])
    }

    /// Parse a trace serialized by [`to_json`](Self::to_json).
    pub fn from_json(input: &str) -> Result<QueryTrace, JsonError> {
        Self::from_json_value(&Json::parse(input)?)
    }

    /// Parse a trace from an already-parsed [`Json`] value.
    pub fn from_json_value(doc: &Json) -> Result<QueryTrace, JsonError> {
        let bad = |message: &str| JsonError {
            offset: 0,
            message: message.to_string(),
        };
        let ns = |v: Option<&Json>, what: &str| {
            v.and_then(Json::as_u64)
                .map(Duration::from_nanos)
                .ok_or_else(|| bad(&format!("trace missing u64 \"{what}\"")))
        };
        let label = doc
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("trace missing \"label\""))?
            .to_string();
        let total = ns(doc.get("total_ns"), "total_ns")?;
        let mut phases = Vec::new();
        for p in doc
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("trace missing \"phases\" array"))?
        {
            let mut events = Vec::new();
            for e in p
                .get("events")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("phase missing \"events\" array"))?
            {
                let fields = match e.get("fields") {
                    Some(Json::Obj(pairs)) => pairs
                        .iter()
                        .map(|(k, v)| {
                            v.as_str()
                                .map(|s| (k.clone(), s.to_string()))
                                .ok_or_else(|| bad("event field value must be a string"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(bad("event missing \"fields\" object")),
                };
                events.push(TraceEvent {
                    at: ns(e.get("at_ns"), "at_ns")?,
                    message: e
                        .get("message")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("event missing \"message\""))?
                        .to_string(),
                    fields,
                });
            }
            phases.push(PhaseSpan {
                name: p
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("phase missing \"name\""))?
                    .to_string(),
                start: ns(p.get("start_ns"), "start_ns")?,
                duration: ns(p.get("duration_ns"), "duration_ns")?,
                events,
            });
        }
        Ok(QueryTrace {
            label,
            total,
            phases,
        })
    }

    /// Prepend a synthetic span of `duration` named `name` at offset zero,
    /// shifting every existing phase (and its events) later by `duration`
    /// and growing the total to match. The dispatcher uses this to splice
    /// queue wait in front of the engine-side trace, so the rendered
    /// timeline shows where a request sat before a worker picked it up.
    pub fn prepend_span(&mut self, name: &str, duration: Duration) {
        for p in &mut self.phases {
            p.start += duration;
            for e in &mut p.events {
                e.at += duration;
            }
        }
        self.phases.insert(
            0,
            PhaseSpan {
                name: name.to_string(),
                start: Duration::ZERO,
                duration,
                events: Vec::new(),
            },
        );
        self.total += duration;
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

struct BuilderInner {
    level: TraceLevel,
    label: String,
    start: Instant,
    phases: Vec<PhaseSpan>,
    /// Name and start offset of the currently open phase.
    open: Option<(String, Duration)>,
    open_events: Vec<TraceEvent>,
}

/// Incrementally builds a [`QueryTrace`] along an engine's linear pipeline.
///
/// Constructed with [`TraceLevel::Off`] it holds nothing and does nothing —
/// the `Option` is `None`, every method is one branch.
pub struct TraceBuilder(Option<BuilderInner>);

impl TraceBuilder {
    pub fn new(level: TraceLevel, label: impl Into<String>) -> Self {
        match level {
            TraceLevel::Off => TraceBuilder(None),
            _ => TraceBuilder(Some(BuilderInner {
                level,
                label: label.into(),
                start: Instant::now(),
                phases: Vec::new(),
                open: None,
                open_events: Vec::new(),
            })),
        }
    }

    /// A disabled builder (same as `new(TraceLevel::Off, ..)`).
    pub fn off() -> Self {
        TraceBuilder(None)
    }

    /// Whether anything is being recorded at all.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Close the open phase (if any) and open a new one named `name`.
    pub fn phase(&mut self, name: &str) {
        let Some(inner) = &mut self.0 else { return };
        let now = inner.start.elapsed();
        Self::close_open(inner, now);
        inner.open = Some((name.to_string(), now));
    }

    /// Record an event in the open phase. `fields` is only invoked at
    /// [`TraceLevel::Full`], so building the payload costs nothing below it.
    pub fn event<F>(&mut self, message: &str, fields: F)
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        let Some(inner) = &mut self.0 else { return };
        if inner.level < TraceLevel::Full {
            return;
        }
        inner.open_events.push(TraceEvent {
            at: inner.start.elapsed(),
            message: message.to_string(),
            fields: fields(),
        });
    }

    /// Close the open phase and produce the trace (`None` when disabled).
    pub fn finish(mut self) -> Option<QueryTrace> {
        let mut inner = self.0.take()?;
        let now = inner.start.elapsed();
        Self::close_open(&mut inner, now);
        Some(QueryTrace {
            label: inner.label,
            total: now,
            phases: inner.phases,
        })
    }

    fn close_open(inner: &mut BuilderInner, now: Duration) {
        if let Some((name, started)) = inner.open.take() {
            inner.phases.push(PhaseSpan {
                name,
                start: started,
                duration: now.saturating_sub(started),
                events: std::mem::take(&mut inner.open_events),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_builder_produces_nothing() {
        let mut tb = TraceBuilder::new(TraceLevel::Off, "x");
        assert!(!tb.enabled());
        tb.phase("parse");
        let mut called = false;
        tb.event("should not run", || {
            called = true;
            vec![]
        });
        assert!(!called, "event closure must not run when disabled");
        assert!(tb.finish().is_none());
    }

    #[test]
    fn phases_level_skips_events() {
        let mut tb = TraceBuilder::new(TraceLevel::Phases, "g: q");
        tb.phase("parse");
        let mut called = false;
        tb.event("skipped", || {
            called = true;
            vec![]
        });
        tb.phase("evaluate");
        let trace = tb.finish().unwrap();
        assert!(!called);
        assert_eq!(trace.phases.len(), 2);
        assert!(trace.phases.iter().all(|p| p.events.is_empty()));
        assert_eq!(trace.phases[0].name, "parse");
        assert_eq!(trace.phases[1].name, "evaluate");
    }

    #[test]
    fn full_trace_renders_text_and_json() {
        let mut tb = TraceBuilder::new(TraceLevel::Full, "relational: \"data query\"");
        tb.phase("parse");
        tb.phase("plan");
        tb.event("plan cache", || {
            vec![
                ("outcome".into(), "miss".into()),
                ("cns".into(), "42".into()),
            ]
        });
        tb.phase("evaluate");
        tb.event("budget verdict", || vec![("truncated".into(), "no".into())]);
        let trace = tb.finish().unwrap();

        let text = trace.render_text();
        assert!(text.starts_with("Query relational"));
        assert!(text.contains("├─ parse"));
        assert!(text.contains("└─ evaluate"));
        assert!(text.contains("plan cache [outcome=miss, cns=42]"));

        let json = crate::json::Json::parse(&trace.to_json()).unwrap();
        assert_eq!(
            json.get("label").unwrap().as_str(),
            Some("relational: \"data query\"")
        );
        let phases = json.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[1].get("name").unwrap().as_str(), Some("plan"));
        let events = phases[1].get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0]
                .get("fields")
                .unwrap()
                .get("cns")
                .unwrap()
                .as_str(),
            Some("42")
        );
    }

    #[test]
    fn json_round_trips_exactly_above_2_pow_53_ns() {
        // ~292 years in nanoseconds: far above 2^53, where the old f64
        // encoding rounded. The schema must survive a round-trip exactly.
        let big = Duration::from_nanos(u64::MAX / 2);
        let trace = QueryTrace {
            label: "relational/parallel_cn \"data\"".into(),
            total: big + Duration::from_nanos(7),
            phases: vec![PhaseSpan {
                name: "evaluate".into(),
                start: Duration::from_nanos((1 << 53) + 1),
                duration: big,
                events: vec![TraceEvent {
                    at: Duration::from_nanos((1 << 60) + 3),
                    message: "budget verdict".into(),
                    fields: vec![("truncated".into(), "no".into())],
                }],
            }],
        };
        let back = QueryTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
        // and the wire format carries the exact digits, not a rounded f64
        assert!(trace.to_json().contains(&big.as_nanos().to_string()));
    }

    #[test]
    fn small_trace_round_trips_through_json() {
        let mut tb = TraceBuilder::new(TraceLevel::Full, "xml/slca \"q\"");
        tb.phase("parse");
        tb.phase("evaluate");
        tb.event("slca", || vec![("roots".into(), "4".into())]);
        let trace = tb.finish().unwrap();
        assert_eq!(QueryTrace::from_json(&trace.to_json()).unwrap(), trace);
        assert!(QueryTrace::from_json("{\"label\":\"x\"}").is_err());
    }

    #[test]
    fn prepend_span_shifts_phases_and_grows_total() {
        let mut tb = TraceBuilder::new(TraceLevel::Full, "x");
        tb.phase("parse");
        tb.event("keywords", Vec::new);
        tb.phase("evaluate");
        let mut trace = tb.finish().unwrap();
        let orig = trace.clone();
        let wait = Duration::from_micros(250);
        trace.prepend_span("queue_wait", wait);
        assert_eq!(trace.phases.len(), orig.phases.len() + 1);
        assert_eq!(trace.phases[0].name, "queue_wait");
        assert_eq!(trace.phases[0].start, Duration::ZERO);
        assert_eq!(trace.phases[0].duration, wait);
        assert_eq!(trace.total, orig.total + wait);
        for (shifted, o) in trace.phases[1..].iter().zip(&orig.phases) {
            assert_eq!(shifted.start, o.start + wait);
            assert_eq!(shifted.duration, o.duration);
            for (se, oe) in shifted.events.iter().zip(&o.events) {
                assert_eq!(se.at, oe.at + wait);
            }
        }
    }

    #[test]
    fn spans_nest_inside_total() {
        let mut tb = TraceBuilder::new(TraceLevel::Phases, "x");
        tb.phase("a");
        std::thread::sleep(Duration::from_millis(2));
        tb.phase("b");
        let t = tb.finish().unwrap();
        assert!(t.phases[0].duration >= Duration::from_millis(1));
        let end0 = t.phases[0].start + t.phases[0].duration;
        assert!(end0 <= t.total + Duration::from_micros(1));
        assert!(t.phases[1].start >= t.phases[0].start);
    }
}
