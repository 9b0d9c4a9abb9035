//! A counting global allocator: live heap bytes, their high-water mark,
//! and the number of allocations. `peak_heap_bytes` and `heap.allocs`
//! come from here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`] and counts every byte it hands out.
pub struct CountingAlloc;

// Statistics only: no other data is published through these, so
// `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters
// never touch the memory itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Live heap bytes right now.
#[cfg(test)]
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Live-heap high-water mark since start or the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Allocations (including reallocations) since start.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Restarts the high-water mark from the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_resets_to_live_bytes() {
        let _g = crate::test_lock();
        const BIG: usize = 256 << 20;
        let layout = Layout::from_size_align(BIG, 64).expect("valid layout");
        // Calls the allocator directly (an allocation through the global
        // entry points may be optimized away when unused). Untouched
        // pages: the allocation reserves address space only.
        // SAFETY: non-zero size; freed below with the same layout.
        let p = std::hint::black_box(unsafe { CountingAlloc.alloc(layout) });
        assert!(!p.is_null());
        assert!(peak_bytes() >= BIG);
        // SAFETY: `p` came from `CountingAlloc::alloc` with `layout`.
        unsafe { CountingAlloc.dealloc(p, layout) };
        assert!(peak_bytes() >= BIG, "freeing must not lower the peak");
        reset_peak();
        assert!(peak_bytes() < BIG, "reset keeps only live bytes");
        let before = alloc_count();
        let v = std::hint::black_box(vec![0u8; 4096]);
        assert!(alloc_count() > before);
        assert!(peak_bytes() >= live_bytes().min(4096));
        drop(v);
    }
}
