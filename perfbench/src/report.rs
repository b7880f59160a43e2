//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one (see the README for what each means per workload).
/// These are the ones `BENCHMARK.json` gates.
pub const END_TO_END: [(&str, &str); 7] = [
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("capacity_qps", "req/s"),
    ("ingest_p50_ms", "ms"),
    ("searches_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics the report prints but `BENCHMARK.json` does not
/// gate: the p90 of `read_hot`'s seals rides on fsync stalls of the host's
/// storage, and its run-to-run spread reached 0.5.
pub const UNGATED: [(&str, &str); 1] = [("ingest_p90_ms", "ms")];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("serve.roundtrip_us_p50", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.response_kb_mean", "KB"),
    ("serve.shed", "count"),
    ("serve.coalesced", "count"),
    ("serve.frames_pushed", "count"),
    ("serve.self_ms", "ms"),
    ("query.decode_us_p50", "us"),
    ("query.encode_us_p50", "us"),
    ("query.encode_mb_per_s", "MB/s"),
    ("query.self_ms", "ms"),
    ("stream.peek_ns_p50", "ns"),
    ("stream.hit_ratio", "fraction"),
    ("stream.requests", "count"),
    ("stream.miss_ms_p50", "ms"),
    ("stream.extend_ms_p50", "ms"),
    ("stream.resettle_ms_p50", "ms"),
    ("stream.redimension_us_p50", "us"),
    ("stream.recomputes", "count"),
    ("stream.apply_us_per_kevent", "us"),
    ("stream.self_ms", "ms"),
    ("log.seal_ms_p50", "ms"),
    ("log.seal_ms_max", "ms"),
    ("log.checkpoint_ms_p50", "ms"),
    ("log.bytes_per_event", "B"),
    ("log.checkpoint_bytes", "B"),
    ("log.recover_ms", "ms"),
    ("log.replayed_events", "count"),
    ("log.self_ms", "ms"),
    ("io.checkpoint_decode_ms", "ms"),
    ("core.serial_ms_p50", "ms"),
    ("core.parallel_ms_p50", "ms"),
    ("core.foremost_ms_p50", "ms"),
    ("core.backward_ms_p50", "ms"),
    ("core.window_ms_p50", "ms"),
    ("core.shared_ms_p50", "ms"),
    ("core.parallel_vs_serial", "ratio"),
    ("core.neighbors_per_search", "count"),
    ("core.enum_calls_per_search", "count"),
    ("core.self_ms", "ms"),
    ("pool.threads", "count"),
    ("gen.late_ms_p99", "ms"),
    ("gen.attempted", "count"),
    ("gen.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("error_rate", "fraction"),
];

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced pass only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed: error status, I/O error, timeout or wrong
    /// answer.
    pub failed: u64,
    /// Wrong answers (a subset of `failed`).
    pub wrong: u64,
    /// Human-readable report lines (breakdowns, context).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&UNGATED).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.e2e.insert(name, value);
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layer.insert(name, value);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        // JSON has no infinities; a non-finite value can only come from a
        // failed phase, which the run reports as incorrect anyway.
        "null".to_string()
    }
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// metrics of `names` with their units.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count);
        for name in all {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.5);
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
