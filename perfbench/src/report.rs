//! Metric names, units, and the printed result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, tail};

/// End-to-end metrics, printed with telemetry off (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("segments_per_s", "segments/s"),
    ("segment_p50_ms", "ms"),
    ("segment_tail_ms", "ms"),
    ("peak_heap_bytes", "bytes"),
    ("buffer_bytes", "bytes"),
    ("final_accuracy", "fraction"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). Times and
/// counts are per segment (per event on the fleet) unless the name says
/// otherwise; see `perfbench/README.md`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("learner.prepare_ms", "ms"),
    ("learner.condense_ms", "ms"),
    ("learner.retrain_ms", "ms"),
    ("learner.commit_ms", "ms"),
    ("learner.kept_ratio", "fraction"),
    ("deco.build_ms", "ms"),
    ("deco.match_ms", "ms"),
    ("deco.apply_ms", "ms"),
    ("deco.jobs", "count"),
    ("matcher.job_ms", "ms"),
    ("matcher.real_items", "count"),
    ("matcher.syn_items", "count"),
    ("tensor.matmul_flops", "flop"),
    ("tensor.conv2d_calls", "count"),
    ("tensor.alloc_count", "count"),
    ("tensor.pool_hit_ratio", "fraction"),
    ("tensor.plan_cache_hit_ratio", "fraction"),
    ("tensor.plan_cache_held_bytes", "bytes"),
    ("tensor.tape_peak_bytes", "bytes"),
    ("heap.allocs", "count"),
    ("runtime.tasks", "count"),
    ("runtime.steals", "count"),
    ("runtime.cpu_per_wall", "ratio"),
    ("serve.evictions", "count"),
    ("serve.rehydrations", "count"),
    ("serve.spill_write_ms", "ms"),
    ("serve.spill_read_ms", "ms"),
    ("serve.session_bytes", "bytes"),
    ("serve.match_ms", "ms"),
    ("serve.retrain_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead", "ratio"),
];

/// The metrics a run prints.
pub fn metric_set(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Segments (learners) or events (fleet) attempted.
    pub attempted: u64,
    /// Attempts that panicked, left a non-finite buffer, or produced no
    /// event.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records `segment_p50_ms` and `segment_tail_ms` from latency
    /// samples, noting which percentile the tail is read at.
    pub fn latencies(&mut self, ms: &[f64], what: &str) {
        self.set("segment_p50_ms", median(ms));
        match tail(ms) {
            Ok(t) => {
                self.note(format!(
                    "segment_tail_ms is p{} of {} {what} ({} beyond)",
                    t.percentile, t.samples, t.beyond
                ));
                self.set("segment_tail_ms", t.value);
            }
            Err(e) => self.problem(format!("segment_tail_ms: {e}")),
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed output check.
    pub fn problem(&mut self, line: impl Into<String>) {
        self.problems.push(line.into());
    }

    /// Share of attempts that failed.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output check held and no attempt failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The printed result: notes, one `name value unit` line per metric
    /// of the run's set, and the JSON summary as the last line. A metric
    /// missing from the run or not finite is reported as a problem.
    pub fn render(mut self, trace: bool) -> String {
        let set = metric_set(trace);
        for &(name, _) in set {
            match self.values.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.problems.push(format!("{name} is {v}")),
                None => self.problems.push(format!("{name} was not measured")),
            }
        }
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for problem in &self.problems {
            let _ = writeln!(out, "# PROBLEM: {problem}");
        }
        let _ = writeln!(
            out,
            "# error_rate {} fraction ({} of {} failed)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        let mut json = String::new();
        for (i, &(name, unit)) in set.iter().enumerate() {
            let v = self.values.get(name).copied().filter(|v| v.is_finite());
            let v = v.unwrap_or(0.0);
            let _ = writeln!(out, "{name} {v} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}
