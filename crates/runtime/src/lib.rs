//! # deco-runtime
//!
//! Parallel execution for the DECO reproduction, with a hard
//! **determinism guarantee**: every entry point returns results in
//! item-index order, and chunk boundaries never depend on the thread
//! count, so a computation run under `DECO_THREADS=1` and
//! `DECO_THREADS=64` produces bitwise-identical output.
//!
//! The build environment has no crates.io access (no rayon/crossbeam),
//! so this crate provides the pool itself: worker threads fed from one
//! shared task stack over `std::sync` primitives, in a lazily
//! initialized process-wide pool sized from
//! [`std::thread::available_parallelism`] and overridable with the
//! `DECO_THREADS` environment variable ([`pool`]), and a deterministic
//! claim-index batch engine ([`batch`](self)). `DECO_THREADS=1` spawns
//! no worker threads at all and forces the exact serial code path.
//!
//! ```
//! let squares = deco_runtime::parallel_map((0..8u64).collect(), |_, x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // A reduction: per-chunk partials in chunk order, folded on the caller.
//! let partials = deco_runtime::parallel_for_chunks(100, 16, |r| r.sum::<usize>());
//! assert_eq!(partials.into_iter().reduce(|a, b| a + b), Some(4950));
//! ```
//!
//! Closures must be `Send + Sync + 'static`: capture shared inputs by
//! cloning them in (tensors in this workspace are `Arc`-backed, so a
//! clone is O(1)). Nested parallelism is supported — a task running on
//! a pool worker may itself call `parallel_*`; the submitting thread
//! always participates in its own batch, which makes the scheme
//! deadlock-free by construction.
//!
//! With `--telemetry`, the pool reports an aggregate `runtime.tasks`
//! counter, per-worker `runtime.worker<i>.tasks` counters, a
//! `runtime.pool.occupancy` gauge, and a `runtime.batch` span on every
//! parallel fan-out.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod pool;

mod batch;

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

pub use pool::Pool;

use pool::{PoolRef, Shared};

thread_local! {
    /// Stack of pools installed on this thread ([`Pool::install`]);
    /// worker threads push their own pool once at startup.
    static CURRENT: RefCell<Vec<Arc<Shared>>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn push_current_shared(shared: Arc<Shared>) {
    CURRENT.with(|c| c.borrow_mut().push(shared));
}

pub(crate) fn pop_current_shared() {
    CURRENT.with(|c| {
        c.borrow_mut().pop();
    });
}

pub(crate) fn set_current_shared(shared: Arc<Shared>) {
    push_current_shared(shared);
}

/// The process-wide pool, created on first use. Sized from
/// `DECO_THREADS` when set (clamped to `1..=512`), otherwise from
/// [`std::thread::available_parallelism`].
pub fn global_pool() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("DECO_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) => return n.clamp(1, 512),
            Err(_) => eprintln!("deco-runtime: ignoring unparsable DECO_THREADS={v:?}"),
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn current_pool() -> PoolRef {
    let shared = CURRENT.with(|c| c.borrow().last().cloned());
    PoolRef {
        shared: Some(shared.unwrap_or_else(|| Arc::clone(global_pool().shared()))),
    }
}

/// Total execution threads of the calling thread's current pool
/// (installed pool if any, else the process-wide pool), counting the
/// caller itself.
pub fn threads() -> usize {
    current_pool().threads()
}

/// Runs `f` on a temporary pool with `threads` participants (1 = strict
/// serial) installed for the duration of the closure on this thread.
/// Used by the determinism tests and the scaling benches to compare
/// thread counts within one process.
pub fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = Pool::new(threads);
    pool.install(f)
}

/// Fixed chunk boundaries for `n` items at `chunk_len` per chunk. The
/// boundaries depend only on `(n, chunk_len)` — never on the thread
/// count — which is what keeps chunked reductions deterministic.
fn chunk_bounds(n: usize, chunk_len: usize) -> Vec<Range<usize>> {
    let chunk_len = chunk_len.max(1);
    (0..n.div_ceil(chunk_len))
        .map(|c| c * chunk_len..((c + 1) * chunk_len).min(n))
        .collect()
}

/// Applies `f` to fixed chunks of `0..n` across the pool and returns
/// the per-chunk results in chunk order.
///
/// Chunk boundaries depend only on `(n, chunk_len)`, so both the number
/// of results and each result's value are independent of the thread
/// count (provided `f` is a pure function of its range). A reduction
/// folds the partials left to right on the caller
/// (`partials.into_iter().reduce(fold)`), so even a non-associative fold
/// such as an f32 sum is bitwise identical at any `DECO_THREADS`; the
/// convolution weight gradient folds its per-chunk partials this way.
pub fn parallel_for_chunks<R, F>(n: usize, chunk_len: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Range<usize>) -> R + Send + Sync + 'static,
{
    let bounds = chunk_bounds(n, chunk_len);
    let pool = current_pool();
    batch::run_batch(&pool, bounds.len(), move |c| f(bounds[c].clone()))
}

/// Maps `f` over `items` across the pool, returning results in item
/// order. `f` receives the item's index alongside the item.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    let slots: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    let pool = current_pool();
    batch::run_batch(&pool, n, move |i| {
        let item = slots[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("parallel_map item claimed twice");
        f(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let out = with_thread_count(4, || {
            parallel_map((0..100usize).collect(), |i, x| {
                assert_eq!(i, x);
                x * 2
            })
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        for n in [0usize, 1, 5, 16, 17, 100] {
            for chunk in [1usize, 3, 16, 1000] {
                let ranges = chunk_bounds(n, chunk);
                let covered: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} chunk={chunk}");
            }
        }
    }

    #[test]
    fn reduce_matches_serial_fold() {
        let serial: i64 = (0..1000i64).map(|x| x * x).sum();
        let partials = with_thread_count(4, || {
            parallel_for_chunks(1000, 13, |r| {
                r.map(|i| (i as i64) * (i as i64)).sum::<i64>()
            })
        });
        assert_eq!(partials.into_iter().reduce(|a, b| a + b), Some(serial));
    }

    #[test]
    fn empty_range_has_no_chunks() {
        let partials = with_thread_count(4, || parallel_for_chunks(0, 4, |range| range.len()));
        assert!(partials.is_empty());
    }

    #[test]
    fn serial_pool_spawns_no_workers() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.workers(), 0);
        let out = pool.install(|| parallel_map(vec![1, 2, 3], |_, x| x + 1));
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn thread_counts_agree_bitwise_on_f32_sums() {
        let data: Vec<f32> = (0..997).map(|i| (i as f32).sin() * 1e-3).collect();
        let run = |threads| {
            let data = data.clone();
            let partials = with_thread_count(threads, move || {
                parallel_for_chunks(data.len(), 32, move |r| {
                    r.map(|i| data[i]).fold(0.0f32, |a, b| a + b)
                })
            });
            partials.into_iter().fold(0.0f32, |a, b| a + b)
        };
        assert_eq!(run(1).to_bits(), run(4).to_bits());
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            with_thread_count(4, || {
                parallel_map((0..64usize).collect(), |_, x| {
                    if x == 33 {
                        panic!("boom at {x}");
                    }
                    x
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn nested_batches_complete() {
        let out = with_thread_count(3, || {
            parallel_map((0..8usize).collect(), |_, x| {
                parallel_for_chunks(10, 2, move |r| r.map(|i| i + x).sum::<usize>())
                    .into_iter()
                    .sum::<usize>()
            })
        });
        let expect: Vec<usize> = (0..8).map(|x| (0..10).map(|i| i + x).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn install_is_scoped() {
        let before = threads();
        with_thread_count(7, || assert_eq!(threads(), 7));
        assert_eq!(threads(), before);
    }
}
