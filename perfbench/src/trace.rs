//! Spans recorded by the benchmark around its own calls into the system.
//!
//! Nothing inside the product crates is instrumented: a span is a pair of
//! timestamps the benchmark took on its side of a call (or, for search
//! depths and rungs, on the arrival of the events that delimit them).
//! Spans stay in memory until the run ends.

use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The operation (search or served job) the span belongs to; spans of
    /// one operation share it.
    pub op: u64,
    pub name: &'static str,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One thread's span buffer. A disabled tracer records nothing, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// `lane` keeps ids of tracers that are merged later (one per client
    /// thread) apart.
    pub fn new(origin: Instant, enabled: bool, lane: u32) -> Tracer {
        Tracer {
            origin,
            enabled,
            next_id: lane << 24,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished span; returns its id for later spans to name as
    /// parent.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.close(id, op, parent, name, start, end);
        id
    }

    /// An id for a span whose children finish before it does: reserve,
    /// record the children with it as parent, then [`Tracer::close`] it.
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    pub fn close(
        &mut self,
        id: u32,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one parent run one after another here, so
/// their durations add; the result is clamped at zero against clock
/// jitter).
pub fn self_times_us(spans: &[Span]) -> HashMap<u32, f64> {
    let mut covered: HashMap<u32, f64> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *covered.entry(parent).or_default() += span.duration_us();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = covered.get(&s.id).copied().unwrap_or(0.0);
            (s.id, (s.duration_us() - children).max(0.0))
        })
        .collect()
}

/// Durations, in microseconds, of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .collect()
}

/// Mean share of the spans called `parent_name` that their direct
/// children account for (1 − self time / duration).
pub fn coverage(spans: &[Span], parent_name: &str) -> Option<f64> {
    let own = self_times_us(spans);
    let shares: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == parent_name && s.duration_us() > 0.0)
        .map(|s| 1.0 - own[&s.id] / s.duration_us())
        .collect();
    crate::stats::mean(&shares)
}

/// One span per line, as JSON.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}\n",
            s.id, parent, s.op, s.name, s.start_us, s.end_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(1, None, "op", 0.0, 100.0),
            span(2, Some(1), "submit", 0.0, 30.0),
            span(3, Some(1), "wait", 30.0, 90.0),
            // A grandchild counts against its parent only.
            span(4, Some(3), "poll", 40.0, 50.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[&1], 10.0);
        assert_eq!(own[&2], 30.0);
        assert_eq!(own[&3], 50.0);
        assert_eq!(own[&4], 10.0);
        assert!((coverage(&spans, "op").unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(coverage(&spans, "missing"), None);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![
            span(1, None, "op", 0.0, 10.0),
            span(2, Some(1), "child", 0.0, 10.5),
        ];
        assert_eq!(self_times_us(&spans)[&1], 0.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut off = Tracer::new(origin, false, 0);
        let later = origin + Duration::from_millis(1);
        off.record(7, None, "op", origin, later);
        let id = off.reserve();
        off.close(id, 7, None, "op", origin, later);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::new(origin, true, 2);
        let parent = on.reserve();
        let child = on.record(7, Some(parent), "submit", origin, later);
        on.close(parent, 7, None, "op", origin, later);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, child);
        assert_eq!(spans[0].parent, Some(parent));
        assert!(parent > 2 << 24, "lane offsets the ids");
        assert!((spans[1].duration_us() - 1000.0).abs() < 1e-6);
        assert_eq!(durations_us(&spans, "submit").len(), 1);
        assert_eq!(to_json_lines(&spans).lines().count(), 2);
    }
}
