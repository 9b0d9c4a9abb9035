//! The batch engine: deterministic fan-out of an indexed task set.
//!
//! A batch is `n` independent items. The submitting thread publishes up
//! to `min(workers, n)` *stubs* into the pool; every stub (and the
//! submitter itself) then races to claim item indices from one shared
//! atomic cursor and writes its result into the slot for that index.
//! Results are therefore **index-ordered regardless of which thread
//! computed them or in what order they finished** — the foundation of
//! the crate's determinism guarantee.
//!
//! The submitter participates in the claim loop, so every item is
//! claimed by a live thread even if all workers are busy elsewhere
//! (including the nested case where the submitter *is* a pool worker) —
//! the scheme is deadlock-free by construction. After the cursor is
//! exhausted the submitter parks until stragglers finish, then
//! re-raises the first captured panic, if any.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::pool::PoolRef;

struct BatchState<R> {
    cursor: AtomicUsize,
    total: usize,
    results: Mutex<Vec<Option<R>>>,
    done: Mutex<usize>,
    cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl<R> BatchState<R> {
    fn new(total: usize) -> Self {
        BatchState {
            cursor: AtomicUsize::new(0),
            total,
            results: Mutex::new((0..total).map(|_| None).collect()),
            done: Mutex::new(0),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn store(&self, index: usize, value: Option<R>) {
        if let Some(v) = value {
            self.results.lock().unwrap_or_else(|e| e.into_inner())[index] = Some(v);
        }
        let mut d = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *d += 1;
        if *d == self.total {
            self.cv.notify_all();
        }
    }

    /// Claim loop a stub runs on a pool worker: panics in `f` are
    /// captured into the batch (first wins) so the submitting thread can
    /// re-raise them.
    fn work_stub<F: Fn(usize) -> R>(&self, f: &F) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => self.store(i, Some(v)),
                Err(payload) => {
                    let mut p = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    if p.is_none() {
                        *p = Some(payload);
                    }
                    drop(p);
                    self.store(i, None);
                }
            }
        }
    }

    /// Claim loop for the submitting thread: panics unwind natively.
    fn work_submitter<F: Fn(usize) -> R>(&self, f: &F) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            let v = f(i);
            self.store(i, Some(v));
        }
    }

    fn wait(&self) {
        let mut d = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while *d < self.total {
            d = self.cv.wait(d).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Runs `f(0..n)` across the current pool and returns the results in
/// index order. Serial (`threads == 1`) pools and single-item batches
/// execute inline on the calling thread — the exact serial code path.
pub(crate) fn run_batch<R, F>(pool: &PoolRef, n: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    if n == 0 {
        return Vec::new();
    }
    if pool.threads() == 1 || n == 1 {
        return (0..n).map(f).collect();
    }
    let _span = deco_telemetry::span!("runtime.batch");
    let f = Arc::new(f);
    let state = Arc::new(BatchState::new(n));
    // One stub per worker (capped by the item count minus the
    // submitter's share): each stub drains the shared cursor.
    let stubs = pool.workers().min(n - 1);
    for _ in 0..stubs {
        let state = Arc::clone(&state);
        let f = Arc::clone(&f);
        pool.submit(Box::new(move || state.work_stub(&*f)));
    }
    state.work_submitter(&*f);
    state.wait();
    if let Some(payload) = state.panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
        resume_unwind(payload);
    }
    let mut slots = state.results.lock().unwrap_or_else(|e| e.into_inner());
    slots
        .iter_mut()
        .map(|s| s.take().expect("batch item missing its result"))
        .collect()
}
