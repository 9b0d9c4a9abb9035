//! Scoped timers with hierarchical span aggregation.
//!
//! `let _g = span!("condense.step");` times the enclosing scope. Spans
//! nest: entering `"matcher.distance"` inside `"condense.step"`
//! aggregates under the dotted path `"condense.step/matcher.distance"`,
//! so a snapshot shows where wall-time went layer by layer. Per-path
//! statistics (call count, total and max nanoseconds) accumulate in a
//! global map; the per-thread span stack is thread-local and lock-free.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total wall time across those spans, in nanoseconds.
    pub total_ns: u64,
    /// Longest single span, in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    /// Total wall time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

fn span_stats() -> &'static Mutex<BTreeMap<String, SpanStat>> {
    static STATS: OnceLock<Mutex<BTreeMap<String, SpanStat>>> = OnceLock::new();
    STATS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A live timed scope. Created by [`enter`] (usually via the
/// [`span!`](crate::span!) macro); records its wall time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Enters a span named `name`. The returned guard must be held for the
/// scope being timed; when telemetry is disabled this is a no-op guard.
///
/// `name` is `&'static str` so the thread-local stack stores plain
/// pointers with no allocation on the hot path.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::is_enabled() {
        return SpanGuard { start: None };
    }
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut stats = span_stats().lock().expect("span stats poisoned");
        let stat = stats.entry(path).or_default();
        stat.count += 1;
        stat.total_ns += elapsed_ns;
        stat.max_ns = stat.max_ns.max(elapsed_ns);
    }
}

/// A copy of all aggregated span statistics, keyed by slash-joined path.
pub fn span_snapshot() -> BTreeMap<String, SpanStat> {
    span_stats().lock().expect("span stats poisoned").clone()
}

/// Aggregated statistics for a single span path, if it has been recorded.
pub fn span_stat(path: &str) -> Option<SpanStat> {
    span_stats()
        .lock()
        .expect("span stats poisoned")
        .get(path)
        .copied()
}

/// Clears all aggregated span statistics.
pub fn reset_spans() {
    span_stats().lock().expect("span stats poisoned").clear();
}

/// Serializes span statistics as a JSON object keyed by span path.
pub fn spans_json() -> Json {
    let stats = span_stats().lock().expect("span stats poisoned");
    Json::Obj(
        stats
            .iter()
            .map(|(path, s)| {
                (
                    path.clone(),
                    Json::obj([
                        ("count", Json::Num(s.count as f64)),
                        ("total_ms", Json::Num(s.total_ms())),
                        ("max_ns", Json::Num(s.max_ns as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Times the enclosing scope under a static span name.
///
/// ```
/// deco_telemetry::set_enabled(true);
/// {
///     let _g = deco_telemetry::span!("doc.example");
///     // ... timed work ...
/// }
/// assert!(deco_telemetry::span::span_stat("doc.example").unwrap().count >= 1);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}
