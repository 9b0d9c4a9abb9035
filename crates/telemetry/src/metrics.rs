//! Process-wide metrics registry: counters, gauges, and histograms.
//!
//! The hot path is lock-free — a metric handle is an `Arc` around a few
//! atomics, and incrementing one is a single relaxed `fetch_add` guarded
//! by the global [`enabled`](crate::is_enabled) flag. The registry map
//! itself is only locked when a handle is first created (typically once
//! per call site via `OnceLock`, see the [`counter!`](crate::counter!)
//! macro) and when a snapshot is taken.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter if telemetry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one if telemetry is enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous value (e.g. buffer occupancy).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge if telemetry is enabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::is_enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative) if telemetry is enabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::is_enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log2 buckets in a [`Histogram`]: bucket `i` counts samples
/// `v` with `i == bit_length(v)`, so bucket 0 holds `v == 0`, bucket 1
/// holds `v == 1`, bucket 11 holds `1024..=2047`, etc.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples (latencies in ns, sizes in
/// bytes). Recording is a relaxed `fetch_add` on one bucket plus sum /
/// count / max updates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample if telemetry is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::is_enabled() {
            return;
        }
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket.min(HISTOGRAM_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Non-empty `(bucket_index, count)` pairs; samples in bucket `i`
    /// fall in `[2^(i-1), 2^i)` (bucket 0 is exactly zero).
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Returns (creating on first use) the counter registered under `name`.
/// Names are dotted paths, e.g. `"tensor.ops.matmul"`.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    Arc::clone(reg.counters.entry(name.to_string()).or_default())
}

/// Returns (creating on first use) the gauge registered under `name`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    Arc::clone(reg.gauges.entry(name.to_string()).or_default())
}

/// Returns (creating on first use) the histogram registered under `name`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    Arc::clone(reg.histograms.entry(name.to_string()).or_default())
}

/// Zeroes every registered metric in place. Existing handles (including
/// `OnceLock`-cached ones) remain valid.
pub fn reset_metrics() {
    let reg = registry().lock().expect("metrics registry poisoned");
    for c in reg.counters.values() {
        c.reset();
    }
    for g in reg.gauges.values() {
        g.reset();
    }
    for h in reg.histograms.values() {
        h.reset();
    }
}

/// Serializes all registered metrics as a JSON object with `counters`,
/// `gauges`, and `histograms` sections. Zero-valued counters/gauges and
/// empty histograms are skipped to keep reports small.
pub fn metrics_json() -> Json {
    let reg = registry().lock().expect("metrics registry poisoned");
    let counters: Vec<(String, Json)> = reg
        .counters
        .iter()
        .filter(|(_, c)| c.get() > 0)
        .map(|(name, c)| (name.clone(), Json::Num(c.get() as f64)))
        .collect();
    let gauges: Vec<(String, Json)> = reg
        .gauges
        .iter()
        .filter(|(_, g)| g.get() != 0)
        .map(|(name, g)| (name.clone(), Json::Num(g.get() as f64)))
        .collect();
    let histograms: Vec<(String, Json)> = reg
        .histograms
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(name, h)| {
            (
                name.clone(),
                Json::obj([
                    ("count", Json::Num(h.count() as f64)),
                    ("sum", Json::Num(h.sum() as f64)),
                    ("max", Json::Num(h.max() as f64)),
                    ("mean", Json::Num(h.mean())),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
    ])
}

/// Increments (or adds to) a named counter through a per-call-site
/// cached handle, so repeated hits never touch the registry lock.
///
/// ```
/// deco_telemetry::set_enabled(true);
/// deco_telemetry::counter!("doc.example.hits");
/// deco_telemetry::counter!("doc.example.bytes", 128);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1)
    };
    ($name:expr, $n:expr) => {{
        if $crate::is_enabled() {
            static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Counter>> =
                std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::metrics::counter($name))
                .add($n);
        }
    }};
}

/// Sets a named gauge through a per-call-site cached handle.
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {{
        if $crate::is_enabled() {
            static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Gauge>> =
                std::sync::OnceLock::new();
            HANDLE.get_or_init(|| $crate::metrics::gauge($name)).set($v);
        }
    }};
}

/// Records a sample into a named histogram through a per-call-site
/// cached handle.
#[macro_export]
macro_rules! histogram_record {
    ($name:expr, $v:expr) => {{
        if $crate::is_enabled() {
            static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Histogram>> =
                std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::metrics::histogram($name))
                .record($v);
        }
    }};
}
