//! Thread-local tensor buffer pool: size-bucketed free lists of `f32`
//! vectors, so steady-state condensation steps allocate nothing in the
//! matmul / convolution path.
//!
//! ## Design
//!
//! Every buffer the pool hands out has a **power-of-two capacity** (the
//! pool's allocation granularity). [`take`] rounds the requested length
//! up to the next power of two, pops a buffer from that bucket's free
//! list (a *hit*) or allocates a fresh one (a *miss*), and returns it
//! zero-filled to the requested length. [`give`] returns a buffer to
//! the bucket matching its capacity; buffers whose capacity is not a
//! power of two — e.g. exact-size vectors built by elementwise ops —
//! are rejected and freed normally, which keeps the buckets clean.
//!
//! [`Tensor`](crate::Tensor) closes the loop automatically: its `Drop`
//! impl offers the backing buffer to the pool whenever it is uniquely
//! owned, so GEMM outputs, convolution outputs and the autograd tape's
//! gradient buffers all cycle through the free lists without any manual
//! recycle calls; kernel scratch (packing panels, the convolutions'
//! padded image planes, the input gradient's tap-sum strip and column
//! masks) is taken and given back explicitly, on the thread that took it.
//!
//! The pool is strictly thread-local (no locks, no cross-thread
//! contention); each runtime worker warms its own free lists.
//!
//! ## What a thread keeps
//!
//! A buffer is often dropped on another thread than the one that took
//! it: intra-op chunks are taken on a worker and dropped on the
//! submitter, match results the other way round. A thread parks only
//! what it will take back itself. Each bucket counts
//!
//! * `out`: this thread's takes minus its gives, saturating at 0;
//! * `high`: the largest `out` seen so far, the bucket's peak demand.
//!
//! [`give`] first decrements `out`, then parks the buffer only while
//! `parked + out < high`; otherwise it frees the buffer and counts an
//! eviction. A take moves one buffer from `parked` to `out` (a hit) or
//! raises `out` alone (a miss), so `parked + out ≤ high` holds at every
//! step, and a bucket never parks more buffers than this thread once had
//! outstanding. On a thread whose buffers all come back to it,
//! `parked + out == high` throughout, so it parks every buffer it gives
//! back; a thread that never takes from a bucket parks nothing there,
//! however many foreign buffers it drops.
//!
//! *Known limit.* `out` cannot tell this thread's own buffers from
//! foreign ones. A thread that first takes a long one-sided stream whose
//! buffers leave it (raising `high`) and later receives a long one-sided
//! stream in the same bucket parks up to that old `high`. The 256 MiB
//! per-thread byte cap stays the bound for that case: a `give` that
//! would exceed it frees the buffer and counts an eviction too.
//!
//! ## Telemetry
//!
//! Thread-local [`stats`] counters (hits / misses / evictions /
//! held and reused bytes) are always maintained — they are how the
//! zero-allocation steady-state test observes the kernels. Each thread
//! also publishes its held bytes in an atomic only it writes, summed
//! over live threads by [`process_held_bytes`]. When telemetry
//! collection is enabled, the same events also feed the global
//! `tensor.pool.hit` / `tensor.pool.miss` / `tensor.pool.evict` /
//! `tensor.pool.give` / `tensor.pool.reused_bytes` counters; callers
//! set the `tensor.pool.held_bytes` gauge from [`process_held_bytes`]
//! once per unit of work.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Buckets cover capacities `2^0 ..= 2^MAX_BUCKET_LOG2`; anything larger
/// bypasses the pool entirely (a single such buffer would dominate the
/// byte cap).
const MAX_BUCKET_LOG2: usize = 28; // 2^28 f32 = 1 GiB

/// Cap on bytes held across all free lists of one thread.
const CAP_BYTES: u64 = 256 * 1024 * 1024;

/// Cumulative counters of one thread's pool, since thread start or the
/// last [`reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from a free list.
    pub hits: u64,
    /// `take` calls that had to heap-allocate.
    pub misses: u64,
    /// `give` calls that freed their buffer instead of parking it: the
    /// bucket already held this thread's peak demand, or the byte cap
    /// was reached.
    pub evictions: u64,
    /// Bytes currently parked in this thread's free lists.
    pub held_bytes: u64,
    /// Total bytes served from free lists (hits × buffer capacity).
    pub reused_bytes: u64,
}

/// The free list of one capacity, with this thread's demand on it.
#[derive(Default)]
struct Bucket {
    free: Vec<Vec<f32>>,
    /// This thread's takes minus its gives, saturating at 0.
    out: usize,
    /// The largest `out` seen so far.
    high: usize,
}

struct PoolState {
    /// `buckets[i]` holds buffers of capacity exactly `2^i`.
    buckets: Vec<Bucket>,
    stats: PoolStats,
    /// `stats.held_bytes` as other threads see it; only this thread
    /// writes it.
    published: Arc<AtomicU64>,
}

/// The published held bytes of every thread whose pool is live.
static PUBLISHED: Mutex<Vec<Arc<AtomicU64>>> = Mutex::new(Vec::new());

fn published_list() -> MutexGuard<'static, Vec<Arc<AtomicU64>>> {
    // Each update is one push or one retain, so the list is whole even
    // if a holder panicked.
    PUBLISHED.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PoolState {
    fn new() -> Self {
        let published = Arc::new(AtomicU64::new(0));
        published_list().push(Arc::clone(&published));
        PoolState {
            buckets: (0..=MAX_BUCKET_LOG2).map(|_| Bucket::default()).collect(),
            stats: PoolStats::default(),
            published,
        }
    }

    fn set_held(&mut self, bytes: u64) {
        self.stats.held_bytes = bytes;
        self.published.store(bytes, Ordering::Relaxed);
    }
}

impl Drop for PoolState {
    fn drop(&mut self) {
        let me = &self.published;
        published_list().retain(|p| !Arc::ptr_eq(p, me));
    }
}

thread_local! {
    static POOL: RefCell<PoolState> = RefCell::new(PoolState::new());
}

fn bytes_of(cap: usize) -> u64 {
    (cap * std::mem::size_of::<f32>()) as u64
}

/// [`take`] without the zero-fill for callers that overwrite every
/// element before reading any (the GEMM pack buffers): a reused buffer
/// keeps its stale contents up to `min(old_len, len)` and only growth
/// beyond the previous length is zeroed. Still safe — stale values are
/// ordinary `f32`s from a previous op — but results would be
/// nondeterministic if a caller ever read an unwritten slot, so keep
/// this out of any path that partially fills its scratch.
pub fn take_scratch(len: usize) -> Vec<f32> {
    take_with(len, false)
}

/// Takes a buffer of length `len`, zero-filled, with capacity
/// `len.next_power_of_two()`. Reuses a pooled buffer when one is
/// available; allocates otherwise.
pub fn take(len: usize) -> Vec<f32> {
    take_with(len, true)
}

fn take_with(len: usize, zero: bool) -> Vec<f32> {
    let cap = len.max(1).next_power_of_two();
    let bucket = cap.trailing_zeros() as usize;
    let reused = if bucket <= MAX_BUCKET_LOG2 {
        POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            let b = &mut p.buckets[bucket];
            b.out += 1;
            b.high = b.high.max(b.out);
            match b.free.pop() {
                Some(buf) => {
                    p.stats.hits += 1;
                    p.stats.reused_bytes += bytes_of(cap);
                    let held = p.stats.held_bytes - bytes_of(cap);
                    p.set_held(held);
                    Some(buf)
                }
                None => {
                    p.stats.misses += 1;
                    None
                }
            }
        })
        .ok()
        .flatten()
    } else {
        POOL.try_with(|p| p.borrow_mut().stats.misses += 1).ok();
        None
    };
    match reused {
        Some(mut buf) => {
            deco_telemetry::counter!("tensor.pool.hit");
            deco_telemetry::counter!("tensor.pool.reused_bytes", bytes_of(cap));
            debug_assert_eq!(buf.capacity(), cap);
            if zero {
                buf.clear();
            }
            buf.resize(len, 0.0);
            buf
        }
        None => {
            deco_telemetry::counter!("tensor.pool.miss");
            let mut buf = Vec::with_capacity(cap);
            buf.resize(len, 0.0);
            buf
        }
    }
}

/// Offers a buffer back to the pool. Accepted only if its capacity is a
/// power of two within the bucket range, its bucket is below this
/// thread's own peak demand (see the module docs), and the byte cap
/// allows it; otherwise the buffer is freed normally (counted as an
/// eviction unless its capacity was the reason).
pub fn give(buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap == 0 || !cap.is_power_of_two() {
        return;
    }
    let bucket = cap.trailing_zeros() as usize;
    if bucket > MAX_BUCKET_LOG2 {
        return;
    }
    let evicted = POOL
        .try_with(|p| {
            let mut p = p.borrow_mut();
            let held = p.stats.held_bytes + bytes_of(cap);
            let b = &mut p.buckets[bucket];
            b.out = b.out.saturating_sub(1);
            if b.free.len() + b.out >= b.high || held > CAP_BYTES {
                p.stats.evictions += 1;
                true
            } else {
                b.free.push(buf);
                p.set_held(held);
                false
            }
        })
        .unwrap_or(true);
    if evicted {
        deco_telemetry::counter!("tensor.pool.evict");
    } else {
        deco_telemetry::counter!("tensor.pool.give");
    }
}

/// This thread's cumulative pool counters.
pub fn stats() -> PoolStats {
    POOL.try_with(|p| p.borrow().stats).unwrap_or_default()
}

/// Bytes parked in the free lists of every live thread: the sum of what
/// each thread last published, read without stopping any of them.
pub fn process_held_bytes() -> u64 {
    published_list()
        .iter()
        .map(|p| p.load(Ordering::Relaxed))
        .sum()
}

/// Zeroes this thread's cumulative counters; held bytes describe the
/// live free lists, so they are kept. Intended for tests.
pub fn reset_stats() {
    POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        let held = p.stats.held_bytes;
        p.stats = PoolStats {
            held_bytes: held,
            ..PoolStats::default()
        };
    })
    .ok();
}

/// Frees every buffer parked in this thread's free lists. Intended for
/// tests and memory-pressure hooks.
pub fn clear() {
    POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        for b in &mut p.buckets {
            b.free.clear();
        }
        p.set_held(0);
    })
    .ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn take_rounds_capacity_to_power_of_two() {
        clear();
        let b = take(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.capacity(), 128);
        assert!(b.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn give_then_take_hits_the_same_bucket() {
        clear();
        reset_stats();
        let mut b = take(100);
        b[0] = 42.0;
        give(b);
        let before = stats();
        let b2 = take(90); // same bucket (128)
        let after = stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
        assert_eq!(b2.len(), 90);
        assert_eq!(b2[0], 0.0, "reused buffer must be zeroed");
    }

    #[test]
    fn non_power_of_two_capacity_is_rejected() {
        clear();
        reset_stats();
        let buf = Vec::with_capacity(100);
        give(buf);
        assert_eq!(stats().held_bytes, 0);
    }

    #[test]
    fn byte_cap_evicts() {
        clear();
        reset_stats();
        let evictions_before = stats().evictions;
        // 1 MiB buffers: 256 fit under the 256 MiB cap. Take 300 first so
        // this thread's own demand would park all of them; the cap alone
        // turns the last 44 away.
        let bufs: Vec<Vec<f32>> = (0..300).map(|_| take(1 << 18)).collect();
        for b in bufs {
            give(b);
        }
        let s = stats();
        assert_eq!(s.held_bytes, CAP_BYTES);
        assert_eq!(s.evictions, evictions_before + 44);
        clear();
    }

    #[test]
    fn stats_track_reuse_bytes() {
        clear();
        reset_stats();
        give(take(64));
        let _ = take(64);
        assert_eq!(stats().reused_bytes, 64 * 4);
    }

    /// Sends `n` buffers of `len` taken on one thread to a fresh thread,
    /// which first runs `own` (its own pool traffic) and then drops
    /// every received buffer; returns the receiver's final stats.
    fn receive_foreign(n: usize, len: usize, own: impl FnOnce() + Send) -> PoolStats {
        let (tx, rx) = mpsc::channel();
        thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..n {
                    tx.send(take(len)).expect("receiver alive");
                }
            });
            s.spawn(move || {
                own();
                for buf in rx {
                    give(buf);
                }
                stats()
            })
            .join()
            .expect("receiver thread")
        })
    }

    #[test]
    fn a_thread_that_never_takes_parks_nothing() {
        let s = receive_foreign(1000, 256, || {});
        assert_eq!(s.held_bytes, 0, "{s:?}");
        assert_eq!(s.evictions, 1000, "{s:?}");
    }

    #[test]
    fn foreign_buffers_fill_a_bucket_only_to_its_own_peak() {
        const K: usize = 4;
        let s = receive_foreign(500, 256, || {
            let mine: Vec<Vec<f32>> = (0..K).map(|_| take(256)).collect();
            for b in mine {
                give(b);
            }
        });
        assert_eq!(s.held_bytes, K as u64 * bytes_of(256), "{s:?}");
        assert_eq!(s.evictions, 500, "{s:?}");
    }

    #[test]
    fn one_way_ping_pong_keeps_both_pools_within_one_round() {
        // Each thread takes from its own bucket and drops the other's
        // buffers, the way intra-op chunks and match results cross
        // between a worker and its submitter.
        const ROUNDS: usize = 10_000;
        const LEN_A: usize = 1 << 13;
        const LEN_B: usize = 1 << 14;
        let round_bytes = bytes_of(LEN_A) + bytes_of(LEN_B);
        let (to_b, from_a) = mpsc::channel::<Vec<f32>>();
        let (to_a, from_b) = mpsc::channel::<Vec<f32>>();
        let (a, b) = thread::scope(|s| {
            let a = s.spawn(move || {
                let mut peak = 0;
                for _ in 0..ROUNDS {
                    to_b.send(take(LEN_A)).expect("b alive");
                    give(from_b.recv().expect("b sends every round"));
                    peak = peak.max(stats().held_bytes);
                }
                peak
            });
            let b = s.spawn(move || {
                let mut peak = 0;
                for _ in 0..ROUNDS {
                    give(from_a.recv().expect("a sends every round"));
                    to_a.send(take(LEN_B)).expect("a alive");
                    peak = peak.max(stats().held_bytes);
                }
                peak
            });
            (a.join().expect("thread a"), b.join().expect("thread b"))
        });
        assert!(a <= round_bytes, "thread a held {a} bytes");
        assert!(b <= round_bytes, "thread b held {b} bytes");
    }
}
