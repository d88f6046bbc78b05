//! Spans recorded by the traced run, from the benchmark's own files around
//! its calls into each layer.
//!
//! Spans live in one preallocated `Vec` and are written out as JSONL when
//! the process ends. A span's self time is its duration minus the part of
//! it that its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

use crate::drive::Timed;
use crate::json::is_metric_name;

/// Room for the sweep's traced repetition (45 jobs × three spans per
/// control interval) plus the probes, so recording never reallocates.
const SPAN_CAPACITY: usize = 128 * 1024;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// The span that was open when this one was recorded.
    pub parent: Option<u32>,
    /// `setup.*`, `session.*`, `probe.<per-layer metric name>`, or one of
    /// the groups `rep`, `job` and `probes`.
    pub name: &'static str,
    /// Which repetition the span belongs to (0 outside repetitions).
    pub rep: u32,
    /// Nanoseconds from the tracer's epoch to the start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch to the end.
    pub end_ns: u64,
    /// Units of work done inside (queries, calls, events); 0 if uncounted.
    pub count: u64,
}

impl Span {
    /// Nanoseconds between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Sets the repetition number stamped on spans recorded from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u64) -> u32 {
        debug_assert!(is_metric_name(name), "span name {name:?}");
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            rep: self.rep,
            start_ns,
            end_ns,
            count,
        });
        id
    }

    /// Runs `f` inside a new span; spans recorded by `f` become its
    /// children. `f` returns its result and the span's work count.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> (T, u32) {
        let start = self.ns(Instant::now());
        let id = self.push(name, start, start, 0);
        self.open.push(id);
        let (out, count) = f(self);
        self.open.pop();
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.count = count;
        (out, id)
    }

    /// Records an already-timed call as a child of the open span.
    pub fn record(&mut self, name: &'static str, call: Timed, count: u64) -> u32 {
        let (start, end) = (self.ns(call.start), self.ns(call.end));
        self.push(name, start, end, count)
    }

    /// Records an already-timed interval and, as its children, whatever `f`
    /// records.
    pub fn group(
        &mut self,
        name: &'static str,
        interval: Timed,
        count: u64,
        f: impl FnOnce(&mut Tracer),
    ) {
        let id = self.record(name, interval, count);
        self.open.push(id);
        f(self);
        self.open.pop();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: u32) -> f64 {
        self.spans[id as usize].duration_ns() as f64 * 1e-9
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// that interval its direct children cover. Overlapping children (spans
/// recorded from parallel threads) are merged before subtracting, and
/// children are clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The spans as JSONL, one object per line, with each span's self time.
pub fn to_jsonl(spans: &[Span], workload: &str) -> String {
    assert!(is_metric_name(workload), "workload name {workload:?}");
    let self_ns = self_times_ns(spans);
    let mut out = String::with_capacity(spans.len() * 160);
    for (span, self_ns) in spans.iter().zip(self_ns) {
        assert!(is_metric_name(span.name), "span name {:?}", span.name);
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{workload}\", \
             \"rep\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"count\": {}}}",
            span.id, span.name, span.rep, span.start_ns, span.end_ns, span.count
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "session.run_until.tick",
            rep: 1,
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two threads' spans overlap on [20, 40]; a third child sticks out
        // past the parent's end and is clipped to it.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 20, 60),
            span(3, Some(0), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_stamps_repetitions() {
        let mut tracer = Tracer::new();
        tracer.set_rep(2);
        let ((), outer) = tracer.span("setup.prepare", |t| {
            let (call, ()) = Timed::call(|| std::hint::black_box(()));
            t.record("setup.trace", call, 7);
            ((), 3)
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[outer as usize].count, 3);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].count, 7);
        assert!(spans.iter().all(|s| s.rep == 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn group_adopts_spans_recorded_after_the_fact() {
        let mut tracer = Tracer::new();
        let (outer, (inner, ())) = Timed::call(|| Timed::call(|| std::hint::black_box(())));
        tracer.group("rep", outer, 2, |t| {
            t.record("session.finish", inner, 1);
        });
        tracer.record("setup.trace", inner, 0);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_self_time() {
        let spans = [span(0, None, 0, 100), span(1, Some(0), 10, 30)];
        let text = to_jsonl(&spans, "fleet_diurnal");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\": 0, \"parent\": null, \"name\": \"session.run_until.tick\", \
             \"workload\": \"fleet_diurnal\", \"rep\": 1, \"start_ns\": 0, \"end_ns\": 100, \
             \"self_ns\": 80, \"count\": 0}"
        );
        assert!(lines[1].contains("\"parent\": 0"));
    }

    #[test]
    #[should_panic(expected = "workload name")]
    fn jsonl_refuses_names_that_need_escaping() {
        to_jsonl(&[], "fleet\"diurnal");
    }
}
