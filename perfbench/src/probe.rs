//! Readings the traced run takes from the program: telemetry counters and
//! spans it already records, plan-cache and tape high-water marks, and
//! process CPU time.

use crate::report::Outcome;

/// Process CPU time (all threads), in seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the 64-bit Linux
    // layout; the call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process CPU time is not read on this platform.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    f64::NAN
}

fn counter(name: &str) -> u64 {
    deco_telemetry::metrics::counter(name).get()
}

/// Count and total milliseconds of every span whose innermost name is
/// `leaf`, at any nesting path.
pub fn span_total(leaf: &str) -> (u64, f64) {
    deco_telemetry::span::span_snapshot()
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
        .fold((0, 0.0), |(n, ms), (_, s)| (n + s.count, ms + s.total_ms()))
}

/// Telemetry collection over one traced pass.
#[derive(Debug)]
pub struct Trace {
    plan_cache_peak: u64,
}

impl Trace {
    /// Clears and enables telemetry and restarts the tape high-water mark.
    pub fn start() -> Trace {
        deco_telemetry::reset();
        deco_tensor::reset_tape_peak();
        deco_telemetry::set_enabled(true);
        Trace { plan_cache_peak: 0 }
    }

    /// Samples this thread's plan-cache held bytes. The cache clears at
    /// the end of each match job, so callers sample at layer boundaries.
    pub fn sample(&mut self) {
        let held = deco_tensor::plancache::stats().held_bytes;
        self.plan_cache_peak = self.plan_cache_peak.max(held);
    }

    /// Disables telemetry and records the tensor and runtime metrics,
    /// counts divided by `units` (segments or events).
    pub fn finish(self, out: &mut Outcome, units: f64) {
        deco_telemetry::set_enabled(false);
        let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
        let per = |n: u64| n as f64 / units.max(1.0);
        out.set(
            "tensor.matmul_flops",
            per(counter("tensor.ops.matmul_flops")),
        );
        out.set("tensor.conv2d_calls", per(counter("tensor.ops.conv2d")));
        out.set("tensor.alloc_count", per(counter("tensor.alloc.count")));
        out.set(
            "tensor.pool_hit_ratio",
            ratio(counter("tensor.pool.hit"), counter("tensor.pool.miss")),
        );
        out.set(
            "tensor.plan_cache_hit_ratio",
            ratio(
                counter("tensor.plan_cache.hits"),
                counter("tensor.plan_cache.misses"),
            ),
        );
        out.set("tensor.plan_cache_held_bytes", self.plan_cache_peak as f64);
        out.set(
            "tensor.tape_peak_bytes",
            deco_tensor::tape_peak_bytes() as f64,
        );
        out.set("runtime.tasks", per(counter("runtime.tasks")));
        out.set("runtime.steals", per(counter("runtime.steals")));
    }
}
