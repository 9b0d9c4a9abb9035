//! Steady-state allocation contract of the full condense step.
//!
//! `one_step_match` is five forward/backward passes through the fused
//! ConvNet block. After warm-up, its heap traffic must stay bounded:
//! every f32 buffer comes from the thread-local pool, its `Arc` shell
//! from the storage-shell free list, and the convolutions' padded
//! image planes are pooled scratch. What remains per step is a small
//! fixed overhead per tape node (the node, its parent vector, its
//! boxed backward closure and that closure's gradient vector) plus
//! `backward`'s traversal scratch and a handful of collection buffers,
//! ≈6× below the pre-fusion baseline of ~2,084.
//!
//! Runs serially (one runtime thread) so all pool traffic lands on this
//! test thread's free lists, in its own binary so no concurrent test
//! can allocate into the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use deco_condense::{one_step_match, MatchBatch};
use deco_nn::{ConvNet, ConvNetConfig};
use deco_tensor::{Rng, Tensor};

/// Ceiling on steady-state allocations per `one_step_match`. The
/// measured value is 348; the pre-fusion baseline was ~2,084. The
/// headroom absorbs allocator-neutral refactors without letting a
/// regression anywhere near the old per-op-materialization regime.
const MAX_ALLOCS_PER_STEP: u64 = 400;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed
// atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn one_step_match_stays_within_alloc_budget() {
    deco_runtime::with_thread_count(1, || {
        let mut rng = Rng::new(11);
        let net = ConvNet::new(
            ConvNetConfig {
                in_channels: 3,
                image_side: 16,
                width: 8,
                depth: 3,
                num_classes: 10,
                norm: true,
            },
            &mut rng,
        );
        let syn = Tensor::randn([5, 3, 16, 16], &mut rng);
        let syn_labels = vec![0usize; 5];
        let real = Tensor::randn([32, 3, 16, 16], &mut rng);
        let real_labels = vec![0usize; 32];
        let batch = MatchBatch {
            syn_images: &syn,
            syn_labels: &syn_labels,
            real_images: &real,
            real_labels: &real_labels,
            real_weights: None,
        };

        // Warm-up: the pool and the storage-shell free list fill on the
        // first couple of steps.
        for _ in 0..3 {
            std::hint::black_box(one_step_match(&net, &batch, None, 0.01));
        }

        const ITERS: u64 = 10;
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..ITERS {
            std::hint::black_box(one_step_match(&net, &batch, None, 0.01));
        }
        let per_step = (ALLOCS.load(Ordering::Relaxed) - before) / ITERS;
        assert!(
            per_step <= MAX_ALLOCS_PER_STEP,
            "one_step_match allocates {per_step}/step, budget {MAX_ALLOCS_PER_STEP}"
        );
    });
}
