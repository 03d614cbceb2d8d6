//! The benchmark's own span recorder. Nothing inside `crates/` is
//! instrumented: spans wrap the calls the benchmark makes into each
//! layer's public functions, are kept in memory, and are written out
//! when the run ends.
//!
//! Two kinds of span exist. A plain span covers a real call and nests by
//! call order. A *probe* re-runs an inner public function on the inputs
//! an outer call just used (the outer call reaches it only through
//! another layer), so its time is real time of the run but stands for
//! work that happened inside the outer span: it is subtracted from that
//! span's self time and credited to the probe's own layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::sys::cpu_seconds;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval, in nanoseconds from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// The monitored hour this span worked on — the identifier the spans
    /// of one hour share across layers.
    pub hour: Option<u64>,
    /// Whether this is a probe, and of which outer span. A probe of no
    /// span is harness work (building a probe's inputs): real time of the
    /// run that stands for nothing the program did.
    pub probe: Option<Option<SpanId>>,
    /// Process CPU seconds spent between start and end, when asked for.
    pub cpu_s: Option<f64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What to record about one call; built with [`call`] or [`probe`].
#[derive(Debug, Clone, Copy)]
pub struct SpanSpec {
    name: &'static str,
    hour: Option<u64>,
    probe: Option<Option<SpanId>>,
    cpu: bool,
}

/// A span around a real call into a layer.
pub fn call(name: &'static str) -> SpanSpec {
    SpanSpec {
        name,
        hour: None,
        probe: None,
        cpu: false,
    }
}

/// A probe standing for work inside the outer span `of` (`None`: harness
/// work that stands for nothing).
pub fn probe(name: &'static str, of: Option<SpanId>) -> SpanSpec {
    SpanSpec {
        probe: Some(of),
        ..call(name)
    }
}

impl SpanSpec {
    /// Tags the span with the monitored hour it works on.
    pub fn hour(mut self, hour: u64) -> Self {
        self.hour = Some(hour);
        self
    }

    /// Also records the process CPU time spent inside the span.
    pub fn cpu(mut self) -> Self {
        self.cpu = true;
        self
    }
}

/// Records spans on the composing thread. A disabled tracer runs the
/// closure and records nothing, so one composition serves both the
/// untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<SpanId>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside the span `spec` describes; the id lets later
    /// probes refer to it (meaningless on a disabled tracer).
    pub fn run<R>(&self, spec: SpanSpec, f: impl FnOnce() -> R) -> (R, SpanId) {
        if !self.enabled {
            return (f(), 0);
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: spec.name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                hour: spec.hour,
                probe: spec.probe,
                cpu_s: None,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let cpu_before = spec.cpu.then(cpu_seconds);
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let cpu_s = cpu_before.map(|before| cpu_seconds() - before);
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start.as_nanos() as u64;
        spans[id].end_ns = end.as_nanos() as u64;
        spans[id].cpu_s = cpu_s;
        (out, id)
    }

    /// Takes the spans recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "a span is still open");
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Total length of the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: its duration, minus the part of it its child
/// spans cover (their union, clipped to the span, so overlapping children
/// are not subtracted twice), minus the probes taken of it. Never below
/// zero: a probe that ran slower than the call it stands for cannot make
/// a layer's time negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut probed = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            children[parent].push((span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns)));
        }
        if let Some(Some(outer)) = span.probe {
            probed[outer] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .zip(probed)
        .map(|((span, children), probed)| {
            span.duration_ns()
                .saturating_sub(union_ns(children))
                .saturating_sub(probed)
        })
        .collect()
}

/// Per-name totals over a span set: self seconds and, for spans that
/// recorded it, CPU seconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTotal {
    pub self_s: f64,
    pub cpu_s: f64,
}

pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let total = totals.entry(span.name).or_default();
        total.self_s += self_ns as f64 / 1e9;
        total.cpu_s += span.cpu_s.unwrap_or(0.0);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            hour: None,
            probe: None,
            cpu_s: None,
        }
    }

    fn probe_span(start: u64, end: u64, of: SpanId) -> Span {
        Span {
            probe: Some(Some(of)),
            ..span("inner.probe", start, end, Some(0))
        }
    }

    #[test]
    fn nested_children_are_subtracted_from_their_parent_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 80, Some(0)),
            // Sticks out of the parent: clipped to it.
            span("c", 90, 120, Some(0)),
        ];
        // Union of [10,50] ∪ [40,80] ∪ [90,100] = 80.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn a_probe_is_charged_to_the_span_it_stands_inside() {
        let spans = vec![
            span("root", 0, 100, None),
            span("outer", 10, 50, Some(0)),
            probe_span(60, 75, 1),
        ];
        let selfs = self_times_ns(&spans);
        // outer: 40 long, 15 of it was the inner function.
        assert_eq!(selfs[1], 25);
        assert_eq!(selfs[2], 15);
        // root loses both intervals that ran inside it.
        assert_eq!(selfs[0], 100 - 40 - 15);
    }

    #[test]
    fn a_probe_slower_than_its_outer_call_clamps_at_zero() {
        let spans = vec![
            span("root", 0, 100, None),
            span("outer", 10, 20, Some(0)),
            probe_span(30, 90, 1),
        ];
        assert_eq!(self_times_ns(&spans)[1], 0);
    }

    #[test]
    fn tracer_nests_by_call_order_and_sums_by_name() {
        let tracer = Tracer::new(true);
        let (_, outer) = tracer.run(call("outer").hour(3), || {
            tracer.run(call("inner").hour(3), || std::hint::black_box(1 + 1));
            tracer.run(call("inner").hour(3).cpu(), || std::hint::black_box(2 + 2));
        });
        tracer.run(probe("probe", Some(outer)).hour(3), || ());
        let spans = tracer.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(outer));
        assert_eq!((spans[3].parent, spans[3].probe), (None, Some(Some(outer))));
        assert!(spans.iter().all(|s| s.hour == Some(3)));
        assert!(spans[1].cpu_s.is_none() && spans[2].cpu_s.is_some());
        let totals = layer_totals(&spans);
        assert_eq!(
            totals.keys().copied().collect::<Vec<_>>(),
            ["inner", "outer", "probe"]
        );
        // The probe only moves time between layers: the three self times
        // still make up outer's duration.
        let whole: f64 = totals.values().map(|t| t.self_s).sum();
        assert!((whole - spans[outer].duration_ns() as f64 / 1e9).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.run(call("x"), || 7).0, 7);
        assert!(tracer.take().is_empty());
    }
}
