//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer; nothing inside the crates is instrumented. They stay
//! in memory until the run ends and are then written out as one JSON
//! document. A disabled tracer records nothing and reads no clock, which
//! is how the same replay code gives the untraced baseline the tracing
//! overhead is measured against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one request share its id.
    pub request_id: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each interval its child spans cover.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`, nested under whichever span
    /// is open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request_id: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request_id,
        });
        self.open.push(index);
        // the clock is read last on entry and first on exit, so the
        // recorder's own bookkeeping lands in the parent's self time
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans)
    }

    /// The spans as one strict-JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request_id\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request_id),
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Per span name, the sum of `durations_ns`, which runs parallel to
/// `spans`: the totals of a trace whose span durations were replaced (by
/// each span's fastest timing over several passes).
pub fn total_ns_by_name(spans: &[Span], durations_ns: &[u64]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, &ns) in spans.iter().zip(durations_ns) {
        *out.entry(span.name).or_default() += ns as f64;
    }
    out
}

/// Count, total and self time per span name: a span's self time is its
/// duration minus the durations of its direct children (children nest
/// inside their parent and do not overlap each other).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("dispatch", 0, 100, None),
            span("run", 10, 50, Some(0)),
            span("check", 60, 90, Some(0)),
            // a grandchild shortens its parent, not its grandparent
            span("tile", 20, 30, Some(1)),
            span("dispatch", 100, 140, None),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["dispatch"],
            SpanTotals {
                count: 2,
                total_ns: 140,
                self_ns: 30 + 40
            }
        );
        assert_eq!(t["run"].self_ns, 30);
        assert_eq!(t["check"].self_ns, 30);
        assert_eq!(t["tile"].self_ns, 10);
        // self times partition the root spans' wall time
        let self_sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, 140);
    }

    #[test]
    fn replaced_durations_are_summed_by_name() {
        let spans = vec![
            span("run", 0, 100, None),
            span("check", 100, 200, None),
            span("run", 200, 300, None),
        ];
        let t = total_ns_by_name(&spans, &[10, 20, 30]);
        assert_eq!(t["run"], 40.0);
        assert_eq!(t["check"], 20.0);
    }

    #[test]
    fn nesting_and_request_ids_are_recorded() {
        let mut tracer = Tracer::new(true);
        let out = tracer.span("outer", Some(7), |t| t.span("inner", Some(7), |_| 41) + 1);
        assert_eq!(out, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!(spans[1].request_id, Some(7));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(
            tracer.span("outer", None, |t| t.span("inner", None, |_| 5)),
            5
        );
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn trace_output_is_strict_json() {
        let mut tracer = Tracer::new(true);
        tracer.span("a", Some(1), |t| t.span("b", None, |_| ()));
        accfg_bench::json::validate(&tracer.to_json()).unwrap();
        accfg_bench::json::validate(&Tracer::new(true).to_json()).unwrap();
    }
}
