//! Metric names, units, samples and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with units. The error rate is the
/// result line's `failed / attempted`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("script_s", "s"),
    ("create_family_s", "s"),
    ("explain_for_s", "s"),
    ("ingest_points_per_s", "points/s"),
    ("open_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("tsdb.store.ingest_ms", "ms"),
    ("tsdb.store.flush_ms", "ms"),
    ("tsdb.store.flush_max_ms", "ms"),
    ("tsdb.store.flushes", "count"),
    ("tsdb.storage.segment_bytes_per_point", "bytes/point"),
    ("tsdb.storage.open_ms", "ms"),
    ("tsdb.pager.page_faults", "count"),
    ("tsdb.pager.evictions", "count"),
    ("tsdb.pager.peak_resident_chunk_bytes", "bytes"),
    ("tsdb.decode_count", "count"),
    ("tsdb.chunks_decoded_ratio", "ratio"),
    ("query.catalog.bind_ms", "ms"),
    ("query.parser.parse_ms", "ms"),
    ("query.types.check_ms", "ms"),
    ("query.plan.build_ms", "ms"),
    ("query.optimize.optimize_ms", "ms"),
    ("query.exec.stage_one_ms", "ms"),
    ("query.exec.rows_out", "rows"),
    ("query.pivot.pivot_ms", "ms"),
    ("query.pivot.rows_in", "rows"),
    ("query.pivot.cells_out", "cells"),
    ("query.pivot.rows_per_s", "rows/s"),
    ("core.family.build_ms", "ms"),
    ("core.engine.rank_ms", "ms"),
    ("core.engine.hypotheses", "count"),
    ("core.engine.hypotheses_failed", "count"),
    ("core.engine.hypothesis_ms_p50", "ms"),
    ("core.engine.hypothesis_ms_max", "ms"),
    ("core.engine.hypothesis_ms_sum", "ms"),
    ("core.engine.parallel_efficiency", "ratio"),
    ("session.unaccounted_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Samples per metric name, one per iteration (or per set-up).
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The samples of `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// The median of `name`, when it has samples.
    pub fn median(&self, name: &str) -> Option<f64> {
        median(self.get(name))
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// One reported metric: the median of its samples.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median value.
    pub value: f64,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A human-readable table of the metrics, one per line, each with its
/// samples in the order they were taken.
pub fn summary(metrics: &[Metric], samples: &Samples) -> String {
    let mut out = String::new();
    for m in metrics {
        let taken: Vec<String> = samples.get(m.name).iter().map(|v| format!("{v:.6}")).collect();
        let _ = writeln!(
            out,
            "#   {:<38} {:>16.6} {:<11} median of {}: [{}]",
            m.name,
            m.value,
            m.unit,
            taken.len(),
            taken.join(", ")
        );
    }
    out
}
