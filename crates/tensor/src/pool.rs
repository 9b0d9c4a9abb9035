//! Thread-local tensor buffer pool: size-bucketed free lists of `f32`
//! vectors, so steady-state condensation steps allocate nothing in the
//! matmul / im2col / convolution path.
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
//! owned, so GEMM outputs, convolution outputs, im2col scratch, packing
//! panels, and the autograd tape's gradient buffers all cycle through
//! the free lists without any manual recycle calls.
//!
//! The pool is strictly thread-local (no locks, no cross-thread
//! contention); each runtime worker warms its own free lists. Held
//! bytes are capped at 256 MiB per thread; a `give` that would exceed
//! the cap frees the buffer instead and counts an eviction.
//!
//! ## Telemetry
//!
//! Thread-local [`stats`] counters (hits / misses / evictions /
//! held and reused bytes) are always maintained — they are how the
//! zero-allocation steady-state test observes the kernels. When
//! telemetry collection is enabled, the same events also feed the
//! global `tensor.pool.hit` / `tensor.pool.miss` /
//! `tensor.pool.evict` / `tensor.pool.reused_bytes` counters and the
//! `tensor.pool.held_bytes` gauge.

use std::cell::RefCell;

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
    /// `give` calls dropped because the byte cap was reached.
    pub evictions: u64,
    /// Bytes currently parked in this thread's free lists.
    pub held_bytes: u64,
    /// Total bytes served from free lists (hits × buffer capacity).
    pub reused_bytes: u64,
}

struct PoolState {
    /// `buckets[i]` holds buffers of capacity exactly `2^i`.
    buckets: Vec<Vec<Vec<f32>>>,
    stats: PoolStats,
}

impl PoolState {
    fn new() -> Self {
        PoolState {
            buckets: (0..=MAX_BUCKET_LOG2).map(|_| Vec::new()).collect(),
            stats: PoolStats::default(),
        }
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
            match p.buckets[bucket].pop() {
                Some(buf) => {
                    p.stats.hits += 1;
                    p.stats.held_bytes -= bytes_of(cap);
                    p.stats.reused_bytes += bytes_of(cap);
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
/// power of two within the bucket range and the byte cap allows it;
/// otherwise the buffer is freed normally (counted as an eviction only
/// when the cap was the reason).
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
            if p.stats.held_bytes + bytes_of(cap) > CAP_BYTES {
                p.stats.evictions += 1;
                true
            } else {
                p.stats.held_bytes += bytes_of(cap);
                p.buckets[bucket].push(buf);
                false
            }
        })
        .unwrap_or(true);
    if evicted {
        deco_telemetry::counter!("tensor.pool.evict");
    } else if deco_telemetry::is_enabled() {
        deco_telemetry::counter!("tensor.pool.give");
        let held = POOL.try_with(|p| p.borrow().stats.held_bytes).unwrap_or(0);
        deco_telemetry::gauge_set!("tensor.pool.held_bytes", held.min(i64::MAX as u64) as i64);
    }
}

/// This thread's cumulative pool counters.
pub fn stats() -> PoolStats {
    POOL.try_with(|p| p.borrow().stats).unwrap_or_default()
}

/// Zeroes this thread's cumulative counters (held bytes are recomputed
/// from the live free lists, not cleared). Intended for tests.
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
            b.clear();
        }
        p.stats.held_bytes = 0;
    })
    .ok();
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Fill one bucket beyond the cap with many gives.
        let evictions_before = stats().evictions;
        // 1 MiB buffers: 256 fit under the 256 MiB cap; give 300.
        for _ in 0..300 {
            give(Vec::with_capacity(1 << 18));
        }
        let s = stats();
        assert!(s.held_bytes <= CAP_BYTES);
        assert!(s.evictions > evictions_before);
        clear();
    }

    #[test]
    fn stats_track_reuse_bytes() {
        clear();
        reset_stats();
        give(Vec::with_capacity(64));
        let _ = take(64);
        assert_eq!(stats().reused_bytes, 64 * 4);
    }
}
