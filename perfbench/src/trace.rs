//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Each generator thread owns a [`SpanLog`]; nothing is shared or locked
//! while a run is measured. A disabled log records nothing and only runs
//! the wrapped call, so the untraced run pays one branch per call. Logs are
//! merged and written out once, after the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: which layer it entered, when, what caused it, and the
/// request it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within a run: the owning log's id in the high bits.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one request (or one seal).
    pub request: u64,
    /// The layer (module) the call entered: `serve`, `query`, `stream`,
    /// `log`, `io`, `core` or `gen`.
    pub layer: &'static str,
    /// What was called, e.g. `roundtrip` or `encode`.
    pub name: &'static str,
    /// An outcome tag, e.g. the cache outcome of a repair.
    pub tag: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    owner: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread `owner`; `enabled: false` records nothing.
    pub fn new(enabled: bool, epoch: Instant, owner: u64) -> SpanLog {
        SpanLog {
            enabled,
            epoch,
            owner,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id (to parent child
    /// spans on) and returns its result and an outcome tag.
    pub fn tagged<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(&mut SpanLog, u64) -> (R, &'static str),
    ) -> R {
        if !self.enabled {
            return f(self, 0).0;
        }
        let id = (self.owner << 40) | self.next;
        self.next += 1;
        let start_ns = self.now_ns();
        let (result, tag) = f(self, id);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            layer,
            name,
            tag,
            start_ns,
            end_ns,
        });
        result
    }

    /// [`SpanLog::tagged`] without a tag.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(&mut SpanLog, u64) -> R,
    ) -> R {
        self.tagged(layer, name, parent, request, |log, id| (f(log, id), ""))
    }

    /// The recorded spans, consuming the log.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.clamp(cursor, span.end_ns);
                    let end = end.clamp(start, span.end_ns);
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Total self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for span in spans {
        *out.entry(span.layer).or_insert(0) += own[&span.id];
    }
    out
}

/// Durations in milliseconds of the spans named `layer.name`, optionally
/// only those with `tag`.
pub fn durations_ms(spans: &[Span], layer: &str, name: &str, tag: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name && tag.is_none_or(|t| s.tag == t))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Writes every span as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"tag\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.request, s.layer, s.name, s.tag, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            layer,
            name: "x",
            tag: "",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, None, "gen", 0, 100),
            // Two overlapping children covering 10..50 together (40 ns),
            // plus one disjoint child 60..70 (10 ns).
            span(2, Some(1), "serve", 10, 40),
            span(3, Some(1), "query", 30, 50),
            span(4, Some(1), "query", 60, 70),
            // A grandchild is charged to its own parent, not to span 1.
            span(5, Some(2), "stream", 15, 25),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 30 - 10);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&5], 10);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["gen"], 50);
        assert_eq!(by_layer["query"], 30);
        assert_eq!(by_layer["serve"], 20);
        assert_eq!(by_layer["stream"], 10);
    }

    #[test]
    fn child_outside_its_parent_is_clamped() {
        let spans = vec![
            span(1, None, "gen", 10, 20),
            span(2, Some(1), "serve", 0, 15),
        ];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        let v = log.span("gen", "x", None, 0, |_, _| 7);
        assert_eq!(v, 7);
        assert!(log.into_spans().is_empty());
    }
}
