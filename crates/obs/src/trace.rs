//! Structured query traces: an `EXPLAIN ANALYZE`-style record of one query's
//! execution.
//!
//! A [`QueryTrace`] is a span tree — the query root, one span per pipeline
//! [`Phase`] the query ran (parse → build → plan → evaluate → facets), and
//! inside each span the operator events that matter for diagnosis:
//! plan-cache outcomes, budget verdicts, counter deltas. Engines build it
//! through a [`TraceBuilder`], the query's one clock, which records at the
//! request's [`TraceLevel`]:
//!
//! * [`TraceLevel::Off`] (the default) — the builder only keeps the
//!   phase timings: it allocates nothing and event closures are never
//!   invoked, so tracing costs nothing unless asked for.
//! * [`TraceLevel::Phases`] — phase spans with wall-clock timings.
//! * [`TraceLevel::Full`] — phases plus operator events and counter deltas.
//!
//! Render with [`QueryTrace::render_text`] for humans or
//! [`QueryTrace::to_json`] for tooling.

use crate::json::{Json, JsonError};
use kwdb_common::{Phase, PhaseTimings};
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

/// What a recording builder keeps besides the clock.
struct Recording {
    level: TraceLevel,
    label: String,
    phases: Vec<PhaseSpan>,
    /// Events of the open phase.
    events: Vec<TraceEvent>,
}

/// The query's clock, and the builder of its [`QueryTrace`].
///
/// One clock times every phase: [`phase`](Self::phase) opens a [`Phase`],
/// and the next `phase` or [`stop`](Self::stop) takes one lap and writes
/// that one `Duration` into the phase's [`PhaseTimings`] slot and, when
/// recording, into its span — so a span and its slot agree bit for bit. A
/// phase opened while nothing is open starts at the last lap, not at the
/// call: the time since the clock stopped belongs to the phase that
/// follows, and the spans are contiguous from zero to the trace's total.
/// A caller opens each phase at most once, in [`Phase::ALL`] order; the
/// builder does not check it.
///
/// Not recording ([`TraceLevel::Off`], the default) the builder allocates
/// nothing and an event is one branch; its closure never runs.
pub struct TraceBuilder {
    start: Instant,
    /// Offset of the last lap from `start`.
    mark: Duration,
    open: Option<Phase>,
    timings: PhaseTimings,
    recording: Option<Recording>,
}

impl TraceBuilder {
    /// Start the clock, with no phase open and nothing recorded.
    pub fn start() -> Self {
        TraceBuilder {
            start: Instant::now(),
            mark: Duration::ZERO,
            open: None,
            timings: PhaseTimings::default(),
            recording: None,
        }
    }

    /// Record the trace at `level` from here on, labelled by what `label`
    /// returns; at [`TraceLevel::Off`] nothing is recorded and `label` is
    /// not called. Spans closed from now on are recorded whole, events only
    /// from now on.
    pub fn record(&mut self, level: TraceLevel, label: impl FnOnce() -> String) {
        if level != TraceLevel::Off {
            self.recording = Some(Recording {
                level,
                label: label(),
                phases: Vec::new(),
                events: Vec::new(),
            });
        }
    }

    /// Close the open phase, if any, and open `phase`.
    pub fn phase(&mut self, phase: Phase) {
        self.stop();
        self.open = Some(phase);
    }

    /// Close the open phase, if any: one lap. With nothing open it reads
    /// no clock.
    pub fn stop(&mut self) {
        let Some(phase) = self.open.take() else {
            return;
        };
        let now = self.start.elapsed();
        let duration = now.saturating_sub(self.mark);
        self.timings[phase] = duration;
        if let Some(r) = &mut self.recording {
            r.phases.push(PhaseSpan {
                name: phase.name().to_string(),
                start: self.mark,
                duration,
                events: std::mem::take(&mut r.events),
            });
        }
        self.mark = now;
    }

    /// The phases closed so far.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }

    /// Record an event in the open phase (between phases: in the next one,
    /// or after the last one closed, in that). `fields` is only invoked at
    /// [`TraceLevel::Full`], so building the payload costs nothing below it.
    pub fn event<F>(&mut self, message: &str, fields: F)
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        let Some(r) = &mut self.recording else { return };
        if r.level < TraceLevel::Full {
            return;
        }
        r.events.push(TraceEvent {
            at: self.start.elapsed(),
            message: message.to_string(),
            fields: fields(),
        });
    }

    /// Stop the clock and hand back the phase timings and the trace (`None`
    /// when not recording), whose total is the last lap: the phase sum.
    /// Events recorded after the last phase closed join its span.
    pub fn finish(mut self) -> (PhaseTimings, Option<QueryTrace>) {
        self.stop();
        let trace = self.recording.map(|mut r| {
            if let Some(last) = r.phases.last_mut() {
                last.events.append(&mut r.events);
            }
            QueryTrace {
                label: r.label,
                total: self.mark,
                phases: r.phases,
            }
        });
        (self.timings, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording(level: TraceLevel, label: &str) -> TraceBuilder {
        let mut tb = TraceBuilder::start();
        tb.record(level, || label.to_string());
        tb
    }

    #[test]
    fn off_builder_times_phases_and_records_nothing() {
        let mut tb = TraceBuilder::start();
        tb.phase(Phase::Parse);
        let mut called = false;
        tb.event("should not run", || {
            called = true;
            vec![]
        });
        tb.phase(Phase::Evaluate);
        std::thread::sleep(Duration::from_millis(1));
        let (timings, trace) = tb.finish();
        assert!(!called, "event closure must not run when not recording");
        assert!(trace.is_none());
        assert!(timings.evaluate >= Duration::from_millis(1));
        assert_eq!(timings.build, Duration::ZERO, "a phase never opened");
    }

    #[test]
    fn phases_level_skips_events() {
        let mut tb = recording(TraceLevel::Phases, "g: q");
        tb.phase(Phase::Parse);
        let mut called = false;
        tb.event("skipped", || {
            called = true;
            vec![]
        });
        tb.phase(Phase::Evaluate);
        let trace = tb.finish().1.unwrap();
        assert!(!called);
        assert_eq!(trace.phases.len(), 2);
        assert!(trace.phases.iter().all(|p| p.events.is_empty()));
        assert_eq!(trace.phases[0].name, "parse");
        assert_eq!(trace.phases[1].name, "evaluate");
    }

    #[test]
    fn full_trace_renders_text_and_json() {
        let mut tb = recording(TraceLevel::Full, "relational: \"data query\"");
        tb.phase(Phase::Parse);
        tb.phase(Phase::Plan);
        tb.event("plan cache", || {
            vec![
                ("outcome".into(), "miss".into()),
                ("cns".into(), "42".into()),
            ]
        });
        tb.phase(Phase::Evaluate);
        tb.event("budget verdict", || vec![("truncated".into(), "no".into())]);
        let trace = tb.finish().1.unwrap();

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
        let mut tb = recording(TraceLevel::Full, "xml/slca \"q\"");
        tb.phase(Phase::Parse);
        tb.phase(Phase::Evaluate);
        tb.event("slca", || vec![("roots".into(), "4".into())]);
        let trace = tb.finish().1.unwrap();
        assert_eq!(QueryTrace::from_json(&trace.to_json()).unwrap(), trace);
        assert!(QueryTrace::from_json("{\"label\":\"x\"}").is_err());
    }

    #[test]
    fn prepend_span_shifts_phases_and_grows_total() {
        let mut tb = recording(TraceLevel::Full, "x");
        tb.phase(Phase::Parse);
        tb.event("keywords", Vec::new);
        tb.phase(Phase::Evaluate);
        let mut trace = tb.finish().1.unwrap();
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

    /// One clock: each span's duration is its phase's slot, bit for bit; a
    /// phase opened after a stop starts at that stop, so the spans tile
    /// the trace from zero to its total, and the total is the phase sum.
    #[test]
    fn spans_are_the_phase_timings_and_tile_the_total() {
        let mut tb = recording(TraceLevel::Phases, "x");
        tb.phase(Phase::Parse);
        std::thread::sleep(Duration::from_millis(2));
        tb.stop();
        // the gap between a stop and the next phase is that phase's
        std::thread::sleep(Duration::from_millis(2));
        tb.phase(Phase::Build);
        tb.phase(Phase::Evaluate);
        let (timings, trace) = tb.finish();
        let t = trace.unwrap();
        assert!(t.phases[0].duration >= Duration::from_millis(2));
        assert!(t.phases[1].duration >= Duration::from_millis(2));
        let mut end = Duration::ZERO;
        for (span, phase) in t
            .phases
            .iter()
            .zip([Phase::Parse, Phase::Build, Phase::Evaluate])
        {
            assert_eq!(span.name, phase.name());
            assert_eq!(span.duration, timings[phase]);
            assert_eq!(
                span.start, end,
                "{} starts where the last lap ended",
                span.name
            );
            end = span.start + span.duration;
        }
        assert_eq!((t.total, t.total), (end, timings.total()));
    }
}
