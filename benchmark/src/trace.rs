//! Benchmark-side spans: one around every call the benchmark makes into a
//! layer's public functions. Spans stay in memory and are written out (Chrome
//! trace format) when the run ends. Spans *inside* the program are a later
//! issue; these measure each layer from outside.

use kwdb::obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (its timed call and its later layer replay)
    /// share this identifier.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Disabled (the end-to-end run) it records
/// nothing: `begin`/`end` are a branch each.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Chrome-trace thread lane.
    pub lane: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, lane: u32) -> Self {
        Tracer {
            enabled,
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; the returned handle closes it.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request_id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, handle: usize) {
        if self.enabled {
            self.spans[handle].end_ns = self.now_ns();
        }
    }

    /// Time `f` under a span named `name`; returns `f`'s value and the
    /// span's duration in nanoseconds (measured even when disabled).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let h = self.begin(name, parent, request_id);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.end(h);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Total *self* time per span name: each span's duration minus the part of
/// its interval covered by its child spans (overlapping children — parallel
/// parts — are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(start, end) in kids.iter() {
            let start = start.max(reach);
            let end = end.min(s.end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        *out.entry(s.name).or_default() += s.duration_ns() - covered;
    }
    out
}

/// Count and total duration per span name.
pub fn total_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
    }
    out
}

/// The per-layer span table of a run: `(name, count, total ns, self ns)`
/// summed over all tracers.
pub fn span_table(tracers: &[Tracer]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for t in tracers {
        let own = self_times(t.spans());
        for (name, (count, total)) in total_times(t.spans()) {
            let e = table.entry(name).or_default();
            e.0 += count;
            e.1 += total;
            e.2 += own[name];
        }
    }
    table
        .into_iter()
        .map(|(name, (count, total, own))| (name, count, total, own))
        .collect()
}

/// Nanoseconds one `begin`+`end` pair costs on this host, measured on a
/// scratch recorder; the basis of `bench.trace_overhead_ratio`.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let mut t = Tracer::new(true, Instant::now(), 0);
    let started = Instant::now();
    for i in 0..N {
        let h = t.begin("calibrate", None, i as u64);
        t.end(h);
    }
    let ns = started.elapsed().as_nanos() as f64;
    std::hint::black_box(t.len());
    ns / N as f64
}

/// Render tracers as one Chrome trace document (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps, one lane per tracer.
pub fn chrome_trace(tracers: &[Tracer]) -> String {
    let mut events = Vec::new();
    for t in tracers {
        for s in &t.spans {
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::Int(t.lane as i128)),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(s.duration_ns() as f64 / 1e3)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("request_id".into(), Json::Int(s.request_id as i128)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
                        ),
                    ]),
                ),
            ]));
        }
    }
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span("request", 0, 100, None),
            span("execute", 10, 90, Some(0)),
            span("build", 20, 40, Some(1)),
            // two overlapping children (parallel parts): covered once
            span("evaluate", 50, 70, Some(1)),
            span("evaluate", 60, 80, Some(1)),
            // a child leaking past its parent is clipped
            span("render", 85, 95, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own["request"], 20);
        // 80 − (20 + 30 + 5)
        assert_eq!(own["execute"], 25);
        assert_eq!(own["build"], 20);
        assert_eq!(own["evaluate"], 40);
        assert_eq!(total_times(&spans)["evaluate"], (2, 40));
        assert_eq!(total_times(&spans)["execute"], (1, 80));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let (v, _ns) = t.span("x", None, 1, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.len(), 0);
        let mut t = Tracer::new(true, Instant::now(), 0);
        let outer = t.begin("outer", None, 9);
        let (_, ns) = t.span("inner", Some(outer), 9, || std::hint::black_box(3));
        t.end(outer);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].duration_ns() >= t.spans()[1].duration_ns());
        assert!(ns <= t.spans()[0].duration_ns());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        let h = t.begin("request", None, 42);
        t.end(h);
        let doc = Json::parse(&chrome_trace(&[t])).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("request")
        );
        assert_eq!(events[0].get("tid").and_then(Json::as_u64), Some(3));
    }
}
