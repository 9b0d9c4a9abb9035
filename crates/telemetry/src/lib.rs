//! Telemetry substrate for the DECO reproduction: a metrics registry
//! (counters / gauges / histograms), scoped wall-time spans, byte-level
//! memory accounting, and a dependency-free JSON codec + exporter.
//!
//! Collection is off by default. Every hot-path entry point — the
//! [`counter!`], [`gauge_set!`], [`histogram_record!`], and [`span!`]
//! macros and the `track_*` memory functions — first checks one global
//! `AtomicBool` with a relaxed load, so the disabled path costs a
//! single predictable branch and instrumentation can live inside tensor
//! ops and condensation inner loops without slowing benchmarks down.
//!
//! ```
//! deco_telemetry::set_enabled(true);
//! {
//!     let _g = deco_telemetry::span!("example.work");
//!     deco_telemetry::counter!("example.items", 3);
//! }
//! let snap = deco_telemetry::TelemetrySnapshot::capture();
//! assert!(snap.enabled);
//! deco_telemetry::reset();
//! deco_telemetry::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod json;
pub mod memory;
pub mod metrics;
pub mod snapshot;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

pub use json::{Json, JsonError, ToJson};
pub use memory::{
    global_tracker, track_alloc, track_free, track_set, MemoryComponent, MemoryTracker,
};
pub use metrics::{counter, gauge, histogram, Counter, Gauge, Histogram};
pub use snapshot::{write_snapshot, TelemetrySnapshot};
pub use span::{SpanGuard, SpanStat};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry collection on or off process-wide.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether telemetry collection is currently enabled. This is the no-op
/// fast-path check: a relaxed atomic load.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes all global telemetry state (metrics, spans, memory tracker)
/// in place without invalidating cached handles. The enabled flag is
/// left unchanged.
pub fn reset() {
    metrics::reset_metrics();
    span::reset_spans();
    memory::global_tracker().reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use memory::MemoryComponent as Mc;

    /// Tests in this crate share global state; serialize them.
    fn with_lock(f: impl FnOnce()) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        f();
        reset();
        set_enabled(false);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        with_lock(|| {
            set_enabled(false);
            counter!("test.disabled.hits");
            track_alloc(Mc::ReplayBuffer, 1024);
            {
                let _g = span!("test.disabled.span");
            }
            set_enabled(true);
            assert_eq!(metrics::counter("test.disabled.hits").get(), 0);
            assert_eq!(global_tracker().total_current(), 0);
            assert!(span::span_stat("test.disabled.span").is_none());
        });
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        with_lock(|| {
            counter!("test.hits");
            counter!("test.hits", 4);
            gauge_set!("test.level", 7);
            assert_eq!(metrics::counter("test.hits").get(), 5);
            assert_eq!(metrics::gauge("test.level").get(), 7);
        });
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        with_lock(|| {
            let h = metrics::histogram("test.latency");
            for v in [1u64, 10, 100, 1000] {
                h.record(v);
            }
            assert_eq!(h.count(), 4);
            assert_eq!(h.sum(), 1111);
            assert_eq!(h.max(), 1000);
            assert!(!h.nonzero_buckets().is_empty());
        });
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        with_lock(|| {
            {
                let _outer = span!("test.outer");
                let _inner = span!("test.inner");
            }
            assert_eq!(span::span_stat("test.outer").unwrap().count, 1);
            let inner = span::span_stat("test.outer/test.inner").unwrap();
            assert_eq!(inner.count, 1);
        });
    }

    #[test]
    fn memory_tracker_peak_and_balance() {
        with_lock(|| {
            let t = MemoryTracker::new();
            t.alloc(Mc::ModelParams, 100);
            t.alloc(Mc::AutogradTape, 50);
            assert_eq!(t.total_current(), 150);
            assert_eq!(t.total_peak(), 150);
            t.free(Mc::AutogradTape, 50);
            assert_eq!(t.total_current(), 100);
            assert_eq!(t.total_peak(), 150);
            assert_eq!(t.peak(Mc::AutogradTape), 50);
            assert_eq!(t.current(Mc::AutogradTape), 0);
        });
    }

    #[test]
    fn memory_tracker_set_is_absolute() {
        with_lock(|| {
            let t = MemoryTracker::new();
            t.set(Mc::ReplayBuffer, 400);
            t.set(Mc::ReplayBuffer, 250);
            assert_eq!(t.current(Mc::ReplayBuffer), 250);
            assert_eq!(t.peak(Mc::ReplayBuffer), 400);
            assert_eq!(t.total_current(), 250);
            assert_eq!(t.total_peak(), 400);
        });
    }

    #[test]
    fn snapshot_serializes_all_sections() {
        with_lock(|| {
            counter!("test.snap.ops", 2);
            track_alloc(Mc::SyntheticDataset, 4096);
            {
                let _g = span!("test.snap.span");
            }
            let snap = TelemetrySnapshot::capture();
            let j = snap.to_json();
            let text = j.to_string_pretty();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.get("enabled").and_then(Json::as_bool), Some(true));
            assert!(back.get("metrics").unwrap().get("counters").is_some());
            assert!(back.get("spans").unwrap().get("test.snap.span").is_some());
            assert_eq!(
                back.get("memory")
                    .unwrap()
                    .get("total_peak_bytes")
                    .and_then(Json::as_u64),
                Some(4096)
            );
            assert_eq!(snap.total_peak_bytes(), 4096);
        });
    }

    #[test]
    fn reset_zeroes_without_breaking_handles() {
        with_lock(|| {
            let c = metrics::counter("test.reset.ops");
            c.add(9);
            reset();
            assert_eq!(c.get(), 0);
            c.add(2);
            assert_eq!(c.get(), 2);
        });
    }
}
