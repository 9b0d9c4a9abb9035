//! `kernel_scaling`: single-thread latency and allocation behaviour of
//! the hot kernels — matmul, the conv2d forward and its three gradient
//! kernels, and the ConvNet block's memory-bound kernels (GroupNorm +
//! ReLU, average pooling) — at the paper's ConvNet shapes, and of whole
//! ConvNet passes. Complements `runtime_scaling` (which measures
//! multi-thread speedup): this bench answers "how fast is one step on
//! one core, and does the buffer pool actually keep it off the heap?".
//!
//! Writes `BENCH_kernels.json` at the repository root (linked from
//! EXPERIMENTS.md). A counting `#[global_allocator]` measures heap
//! allocations per op; after the warm-up call the pooled kernels are
//! expected to report ~0.
//!
//! ```bash
//! cargo bench -p deco-bench --bench kernel_scaling            # full run
//! DECO_BENCH_ITERS=5 cargo bench -p deco-bench --bench kernel_scaling -- --check
//! ```
//!
//! `--check` reads the committed `BENCH_kernels.json` *before*
//! overwriting it and fails (exit 1) if any op in [`CHECK_OPS`] (the
//! conv forward and the ConvNet train and input-gradient passes) got
//! slower than [`CHECK_FACTOR`] × its committed mean — a generous
//! threshold meant to catch order-of-magnitude regressions on shared CI
//! runners, not micro-noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use deco_telemetry::json::Json;
use deco_tensor::{Conv2dSpec, Rng, Tensor};

/// System allocator wrapped with an allocation counter.
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

/// Regression gate for `--check`: fail if a tracked op's mean exceeds
/// this multiple of the committed baseline.
const CHECK_FACTOR: f64 = 2.5;
/// The conv forward at the CIFAR stem shape.
const CONV_FWD_OP: &str = "conv2d_fwd_16x3x32x32_w16";
/// One ConvNet forward+backward at the `deco_stream` shapes.
const TRAIN_STEP_OP: &str = "convnet_train_step_100x3x16x16_w8";
/// The frozen-network image-gradient pass (θ± and Eq. 8) at the same
/// shapes.
const INPUT_GRAD_OP: &str = "convnet_input_grad_100x3x16x16_w8";
/// Ops the `--check` gate tracks.
const CHECK_OPS: [&str; 3] = [CONV_FWD_OP, TRAIN_STEP_OP, INPUT_GRAD_OP];

fn iters() -> usize {
    std::env::var("DECO_BENCH_ITERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(30)
}

struct OpResult {
    name: &'static str,
    mean_ms: f64,
    allocs_per_op: f64,
}

/// Times `f` single-threaded: one warm-up call (fills the buffer pool),
/// then `iters` timed calls with the allocation counter read around the
/// whole timed region.
fn time_op(name: &'static str, iters: usize, mut f: impl FnMut()) -> OpResult {
    deco_runtime::with_thread_count(1, move || {
        f();
        let allocs_before = ALLOCS.load(Ordering::Relaxed);
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let secs = start.elapsed().as_secs_f64() / iters as f64;
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        OpResult {
            name,
            mean_ms: secs * 1e3,
            allocs_per_op: allocs as f64 / iters as f64,
        }
    })
}

fn bench_ops(iters: usize) -> Vec<OpResult> {
    let mut rng = Rng::new(42);
    let a = Tensor::randn([128, 128], &mut rng);
    let b = Tensor::randn([128, 128], &mut rng);
    // The paper's CIFAR-scale ConvNet stem: 16-image batch, 3→16
    // channels, 32×32 spatial, 3×3 same-padded kernel.
    let x = Tensor::randn([16, 3, 32, 32], &mut rng);
    let w = Tensor::randn([16, 3, 3, 3], &mut rng);
    let g = Tensor::randn([16, 16, 32, 32], &mut rng);
    let spec = Conv2dSpec::default();

    vec![
        time_op("matmul_128x128", iters, || {
            std::hint::black_box(a.matmul(&b));
        }),
        time_op(CONV_FWD_OP, iters, || {
            std::hint::black_box(x.conv2d(&w, None, spec));
        }),
        time_op("conv2d_input_grad_16x16x32x32_w16", iters, || {
            std::hint::black_box(g.conv2d_input_grad(&w, (32, 32), spec));
        }),
        time_op("conv2d_weight_grad_16x16x32x32_w16", iters, || {
            std::hint::black_box(g.conv2d_weight_grad(&x, 3, spec));
        }),
        time_op("conv2d_bias_grad_16x16x32x32", iters, || {
            std::hint::black_box(g.conv2d_bias_grad());
        }),
    ]
}

/// Whole-ConvNet forward and forward+backward at the paper's CIFAR
/// stem shape, through the fused block ops the network always runs.
fn bench_convnet(iters: usize) -> Vec<OpResult> {
    use deco_nn::{weighted_cross_entropy, ConvNet, ConvNetConfig};
    use deco_tensor::{with_tape_arena, Reduction, Var};

    let mut rng = Rng::new(42);
    let net = ConvNet::new(
        ConvNetConfig {
            in_channels: 3,
            image_side: 32,
            width: 16,
            depth: 3,
            num_classes: 10,
            norm: true,
        },
        &mut rng,
    );
    let x = Tensor::randn([16, 3, 32, 32], &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    vec![
        time_op("convnet_forward_fused", iters, || {
            with_tape_arena(|| {
                let input = Var::constant(x.clone());
                std::hint::black_box(net.forward(&input, false));
            });
        }),
        time_op("convnet_backward_fused", iters, || {
            with_tape_arena(|| {
                let input = Var::constant(x.clone());
                let logits = net.forward(&input, false);
                weighted_cross_entropy(&logits, &labels, None, Reduction::Sum).backward();
            });
        }),
    ]
}

/// The two ConvNet pass kinds a `deco_stream` segment runs, at its
/// shapes: a full 100-image buffer batch of the CORe50 analogue
/// (3×16×16, 10 classes) through width 8, depth 3.
fn bench_deco_passes(iters: usize) -> Vec<OpResult> {
    use deco_nn::{weighted_cross_entropy, ConvNet, ConvNetConfig};
    use deco_tensor::{with_tape_arena, Reduction, Var};

    let mut rng = Rng::new(42);
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
    let x = Tensor::randn([100, 3, 16, 16], &mut rng);
    let labels: Vec<usize> = (0..100).map(|i| i % 10).collect();
    vec![
        // Constant images, live parameters: the retrain step and the
        // matcher's g_real / g_syn passes.
        time_op(TRAIN_STEP_OP, iters, || {
            with_tape_arena(|| {
                let logits = net.forward(&Var::constant(x.clone()), false);
                weighted_cross_entropy(&logits, &labels, None, Reduction::Mean).backward();
            });
        }),
        // Image leaf, frozen parameters: the matcher's θ± passes and the
        // Eq. 8 discrimination gradient.
        time_op(INPUT_GRAD_OP, iters, || {
            with_tape_arena(|| {
                let images = Var::leaf(x.clone(), true);
                let logits = net.forward(&images, true);
                weighted_cross_entropy(&logits, &labels, None, Reduction::Mean).backward();
                std::hint::black_box(images.grad());
            });
        }),
    ]
}

/// The first ConvNet block's kernels, one by one, at `deco_stream`'s
/// layer-1 shape: 100 images of 3×16×16 through a width-8 3×3 conv,
/// instance GroupNorm + ReLU and a 2×2 average pool.
fn bench_deco_block(iters: usize) -> Vec<OpResult> {
    use deco_tensor::ops::fused;

    let mut rng = Rng::new(42);
    let x = Tensor::randn([100, 3, 16, 16], &mut rng);
    let w = Tensor::randn([8, 3, 3, 3], &mut rng);
    let b = Tensor::randn([8], &mut rng);
    let h = Tensor::randn([100, 8, 16, 16], &mut rng);
    let g = Tensor::randn([100, 8, 16, 16], &mut rng);
    let g_pooled = Tensor::randn([100, 8, 8, 8], &mut rng);
    let gamma = Tensor::randn([1, 8, 1, 1], &mut rng);
    let beta = Tensor::randn([1, 8, 1, 1], &mut rng);
    let spec = Conv2dSpec::default();
    let (out, mean, std) = fused::group_norm_relu_fwd(&h, &gamma, &beta, 8, 1e-5);
    vec![
        // `Tensor::conv2d` lowers each image into im2col scratch.
        time_op("conv2d_fwd_100x3x16x16_w8", iters, || {
            std::hint::black_box(x.conv2d(&w, Some(&b), spec));
        }),
        time_op("conv2d_input_grad_100x8x16x16_w8", iters, || {
            std::hint::black_box(g.conv2d_input_grad(&w, (16, 16), spec));
        }),
        time_op("group_norm_relu_fwd_100x8x16x16", iters, || {
            std::hint::black_box(fused::group_norm_relu_fwd(&h, &gamma, &beta, 8, 1e-5));
        }),
        time_op("group_norm_relu_bwd_100x8x16x16", iters, || {
            std::hint::black_box(fused::group_norm_relu_bwd(
                &g, &h, &out, &mean, &std, &gamma, 8, [true; 3],
            ));
        }),
        time_op("avg_pool2d_100x8x16x16_k2", iters, || {
            std::hint::black_box(out.avg_pool2d(2));
        }),
        time_op("avg_pool2d_grad_100x8x8x8_k2", iters, || {
            std::hint::black_box(g_pooled.avg_pool2d_grad(2));
        }),
    ]
}

fn baseline_mean_ms(path: &str, op: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = Json::parse(&text).ok()?;
    json.get("ops")?
        .as_array()?
        .iter()
        .find(|o| o.get("op").and_then(Json::as_str) == Some(op))?
        .get("mean_ms")?
        .as_f64()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let iters = iters();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let baselines = CHECK_OPS.map(|op| baseline_mean_ms(path, op));

    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!("[kernel_scaling] {iters} iters/op, single thread, host parallelism {parallelism}");
    let mut results = bench_ops(iters);
    results.extend(bench_convnet(iters));
    results.extend(bench_deco_passes(iters));
    results.extend(bench_deco_block(iters));

    println!("\n## kernel_scaling — single-thread latency & allocations\n");
    println!("| op | 1T mean (ms) | allocs/op |");
    println!("|---|---|---|");
    for r in &results {
        println!("| {} | {:.4} | {:.1} |", r.name, r.mean_ms, r.allocs_per_op);
    }

    let ops: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj([
                ("op", Json::Str(r.name.to_string())),
                ("mean_ms", Json::Num(r.mean_ms)),
                ("allocs_per_op", Json::Num(r.allocs_per_op)),
            ])
        })
        .collect();
    let report = Json::obj([
        ("bench", Json::Str("kernel_scaling".to_string())),
        ("iters_per_point", Json::Num(iters as f64)),
        ("threads", Json::Num(1.0)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("ops", Json::Arr(ops)),
    ]);
    let mut text = report.to_string_pretty();
    text.push('\n');
    std::fs::write(path, text).expect("write BENCH_kernels.json");
    eprintln!("[kernel_scaling] wrote {path}");

    if check {
        let mut regressed = false;
        for (op, baseline) in CHECK_OPS.iter().zip(baselines) {
            let current = results
                .iter()
                .find(|r| r.name == *op)
                .expect("tracked op missing")
                .mean_ms;
            match baseline {
                Some(base) if current > base * CHECK_FACTOR => {
                    eprintln!(
                        "[kernel_scaling] REGRESSION: {op} {current:.4} ms > \
                         {CHECK_FACTOR} x committed {base:.4} ms"
                    );
                    regressed = true;
                }
                Some(base) => {
                    eprintln!(
                        "[kernel_scaling] check ok: {op} {current:.4} ms vs \
                         committed {base:.4} ms (limit {CHECK_FACTOR}x)"
                    );
                }
                None => {
                    eprintln!("[kernel_scaling] check skipped: no committed baseline for {op}");
                }
            }
        }
        if regressed {
            std::process::exit(1);
        }
    }
}
