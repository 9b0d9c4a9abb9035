//! The thread pool.
//!
//! A [`Pool`] with `threads` participants spawns `threads − 1` worker OS
//! threads; the thread that submits a batch is always the final
//! participant, so `threads == 1` means **no worker threads at all** and
//! every parallel entry point degenerates to the exact serial code path.
//!
//! Submitted tasks go onto one shared stack, and an idle worker pops the
//! newest. Every task is a batch stub that claims items from its batch's
//! cursor (`batch.rs`), so load balance comes from the cursor, not from
//! which worker runs which stub. Idle workers park on a condition
//! variable paired with the stack's lock, so a push is never missed.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of queued work.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
pub(crate) struct Shared {
    /// Queued tasks; workers pop the newest.
    tasks: Mutex<Vec<Task>>,
    /// Total participants (workers + the submitting thread).
    threads: usize,
    /// Parking spot for idle workers, paired with `tasks`.
    cv: Condvar,
    /// Set once on drop; workers exit once the stack is empty.
    shutdown: AtomicBool,
    /// Workers currently executing a task (drives the occupancy gauge).
    active: AtomicI64,
}

impl Shared {
    /// Pops the newest queued task, parking while the stack is empty;
    /// `None` once the pool shuts down with nothing left to run.
    fn next_task(&self) -> Option<Task> {
        let mut tasks = self.tasks.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(task) = tasks.pop() {
                return Some(task);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            tasks = self.cv.wait(tasks).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn worker_main(shared: Arc<Shared>, idx: usize) {
    // Nested parallel calls issued from inside a task must run on this
    // worker's own pool, not the global one.
    crate::set_current_shared(Arc::clone(&shared));
    let tasks_counter = deco_telemetry::metrics::counter(&format!("runtime.worker{idx}.tasks"));
    while let Some(task) = shared.next_task() {
        let active = shared.active.fetch_add(1, Ordering::Relaxed) + 1;
        deco_telemetry::gauge_set!("runtime.pool.occupancy", active);
        deco_telemetry::counter!("runtime.tasks");
        tasks_counter.inc();
        // Batch stubs catch panics from user closures themselves;
        // this backstop keeps a buggy stub from killing the worker.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        let active = shared.active.fetch_sub(1, Ordering::Relaxed) - 1;
        deco_telemetry::gauge_set!("runtime.pool.occupancy", active);
    }
}

/// A thread pool. See the [module docs](self) for the
/// architecture; most code uses the process-wide pool implicitly via
/// [`parallel_for_chunks`](crate::parallel_for_chunks) and friends
/// rather than holding a `Pool` directly.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.shared.threads)
            .finish()
    }
}

impl Pool {
    /// Builds a pool with `threads` total participants (clamped to at
    /// least 1), spawning `threads − 1` workers.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let n_workers = threads - 1;
        let shared = Arc::new(Shared {
            tasks: Mutex::new(Vec::new()),
            threads,
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicI64::new(0),
        });
        let workers = (0..n_workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("deco-runtime-{idx}"))
                    .spawn(move || worker_main(shared, idx))
                    .expect("failed to spawn runtime worker")
            })
            .collect();
        Pool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Total participants, counting the submitting thread.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Number of spawned worker threads (`threads() − 1`).
    pub fn workers(&self) -> usize {
        self.shared.threads - 1
    }

    /// Runs `f` with this pool installed as the calling thread's current
    /// pool, so every `parallel_*` call inside `f` executes here instead
    /// of on the process-wide pool. Scoped and re-entrant.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        crate::push_current_shared(Arc::clone(&self.shared));
        let guard = PopOnDrop;
        let out = f();
        drop(guard);
        out
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

struct PopOnDrop;

impl Drop for PopOnDrop {
    fn drop(&mut self) {
        crate::pop_current_shared();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            // Set under the stack's lock, so no worker can check the flag
            // and then park after the wakeup below.
            let _tasks = self.shared.tasks.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.cv.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in workers {
            let _ = h.join();
        }
    }
}

/// Pool-facing view used by the batch engine: either a real pool or the
/// serial fallback.
pub(crate) struct PoolRef {
    pub(crate) shared: Option<Arc<Shared>>,
}

impl PoolRef {
    /// Total participants (1 for the serial fallback).
    pub(crate) fn threads(&self) -> usize {
        self.shared.as_ref().map_or(1, |s| s.threads)
    }

    /// Worker count.
    pub(crate) fn workers(&self) -> usize {
        self.threads() - 1
    }

    /// Queues a task (panics on the serial fallback; callers check
    /// `threads() > 1` first).
    pub(crate) fn submit(&self, task: Task) {
        let shared = self
            .shared
            .as_ref()
            .expect("cannot submit to the serial fallback pool");
        shared
            .tasks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(task);
        shared.cv.notify_one();
    }
}
