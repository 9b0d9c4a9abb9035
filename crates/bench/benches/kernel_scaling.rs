//! `kernel_scaling`: single-thread latency and allocation behaviour of
//! the hot kernels — matmul, the conv2d forward and its three gradient
//! kernels, and the ConvNet block's memory-bound kernels (GroupNorm +
//! ReLU, average pooling) — at the paper's ConvNet shapes, and of whole
//! ConvNet passes. Complements `runtime_scaling` (which measures
//! multi-thread speedup): this bench answers "how fast is one step on
//! one core, and does the buffer pool actually keep it off the heap?".
//!
//! Writes `BENCH_kernels.json` at the repository root (linked from
//! EXPERIMENTS.md) through `deco_bench::report`. A counting
//! `#[global_allocator]` measures heap allocations per op; after the
//! warm-up call the pooled kernels are expected to report ~0.
//!
//! ```bash
//! cargo bench -p deco-bench --bench kernel_scaling            # regenerate
//! DECO_BENCH_ITERS=5 cargo bench -p deco-bench --bench kernel_scaling -- --check
//! ```
//!
//! `--check` gates the conv forward, the ConvNet train and
//! input-gradient passes and the layer-1 conv input gradient
//! ([`GATES`]) against the committed file.

use std::process::ExitCode;

use deco_bench::report::{self, time_op, CountingAlloc, Gate, Report, Row};
use deco_tensor::{Conv2dSpec, Rng, Tensor};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The conv forward at the CIFAR stem shape.
const CONV_FWD_OP: &str = "conv2d_fwd_16x3x32x32_w16";
/// One ConvNet forward+backward at the `deco_stream` shapes.
const TRAIN_STEP_OP: &str = "convnet_train_step_100x3x16x16_w8";
/// The frozen-network image-gradient pass (θ± and Eq. 8) at the same
/// shapes.
const INPUT_GRAD_OP: &str = "convnet_input_grad_100x3x16x16_w8";
/// The layer-1 conv input gradient at the same shapes: the Eq. 8 and
/// θ± passes' largest single kernel.
const INPUT_GRAD_L1_OP: &str = "conv2d_input_grad_100x8x16x16_w8";
/// Rows the `--check` gate tracks.
const GATES: [Gate; 4] = [
    (CONV_FWD_OP, 1),
    (TRAIN_STEP_OP, 1),
    (INPUT_GRAD_OP, 1),
    (INPUT_GRAD_L1_OP, 1),
];

fn bench_ops(iters: usize) -> Vec<Row> {
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
        time_op("matmul_128x128", 1, iters, || {
            std::hint::black_box(a.matmul(&b));
        }),
        time_op(CONV_FWD_OP, 1, iters, || {
            std::hint::black_box(x.conv2d(&w, None, spec));
        }),
        time_op("conv2d_input_grad_16x16x32x32_w16", 1, iters, || {
            std::hint::black_box(g.conv2d_input_grad(&w, (32, 32), spec));
        }),
        time_op("conv2d_weight_grad_16x16x32x32_w16", 1, iters, || {
            std::hint::black_box(g.conv2d_weight_grad(&x, 3, spec));
        }),
        time_op("conv2d_bias_grad_16x16x32x32", 1, iters, || {
            std::hint::black_box(g.conv2d_bias_grad());
        }),
    ]
}

/// Whole-ConvNet forward and forward+backward at the paper's CIFAR
/// stem shape, through the fused block ops the network always runs.
fn bench_convnet(iters: usize) -> Vec<Row> {
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
        time_op("convnet_forward_fused", 1, iters, || {
            with_tape_arena(|| {
                let input = Var::constant(x.clone());
                std::hint::black_box(net.forward(&input, false));
            });
        }),
        time_op("convnet_backward_fused", 1, iters, || {
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
fn bench_deco_passes(iters: usize) -> Vec<Row> {
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
        time_op(TRAIN_STEP_OP, 1, iters, || {
            with_tape_arena(|| {
                let logits = net.forward(&Var::constant(x.clone()), false);
                weighted_cross_entropy(&logits, &labels, None, Reduction::Mean).backward();
            });
        }),
        // Image leaf, frozen parameters: the matcher's θ± passes and the
        // Eq. 8 discrimination gradient.
        time_op(INPUT_GRAD_OP, 1, iters, || {
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
/// instance GroupNorm + ReLU and a 2×2 average pool. The conv forward
/// and input gradient also run at the layer-2 and layer-3 shapes (8×8×8
/// and 8×4×4), so every conv forward and input gradient a `deco_stream`
/// pass runs has a row.
fn bench_deco_block(iters: usize) -> Vec<Row> {
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
    let x2 = Tensor::randn([100, 8, 8, 8], &mut rng);
    let x3 = Tensor::randn([100, 8, 4, 4], &mut rng);
    let w23 = Tensor::randn([8, 8, 3, 3], &mut rng);
    let spec = Conv2dSpec::default();
    let (out, mean, std) = fused::group_norm_relu_fwd(&h, &gamma, &beta, 8, 1e-5);
    vec![
        // The forward and the weight gradient are implicit GEMMs that
        // read each image from a zero-padded plane.
        time_op("conv2d_fwd_100x3x16x16_w8", 1, iters, || {
            std::hint::black_box(x.conv2d(&w, Some(&b), spec));
        }),
        time_op("conv2d_fwd_100x8x8x8_w8", 1, iters, || {
            std::hint::black_box(x2.conv2d(&w23, Some(&b), spec));
        }),
        time_op("conv2d_fwd_100x8x4x4_w8", 1, iters, || {
            std::hint::black_box(x3.conv2d(&w23, Some(&b), spec));
        }),
        time_op(INPUT_GRAD_L1_OP, 1, iters, || {
            std::hint::black_box(g.conv2d_input_grad(&w, (16, 16), spec));
        }),
        // `x2` and `x3` double as the layer-2 and layer-3 output
        // gradients: both layers have 8 channels in and out.
        time_op("conv2d_input_grad_100x8x8x8_w8", 1, iters, || {
            std::hint::black_box(x2.conv2d_input_grad(&w23, (8, 8), spec));
        }),
        time_op("conv2d_input_grad_100x8x4x4_w8", 1, iters, || {
            std::hint::black_box(x3.conv2d_input_grad(&w23, (4, 4), spec));
        }),
        time_op("conv2d_weight_grad_100x8x16x16_w8", 1, iters, || {
            std::hint::black_box(g.conv2d_weight_grad(&x, 3, spec));
        }),
        time_op("group_norm_relu_fwd_100x8x16x16", 1, iters, || {
            std::hint::black_box(fused::group_norm_relu_fwd(&h, &gamma, &beta, 8, 1e-5));
        }),
        time_op("group_norm_relu_bwd_100x8x16x16", 1, iters, || {
            std::hint::black_box(fused::group_norm_relu_bwd(
                &g, &h, &out, &mean, &std, &gamma, 8, [true; 3],
            ));
        }),
        time_op("avg_pool2d_100x8x16x16_k2", 1, iters, || {
            std::hint::black_box(out.avg_pool2d(2));
        }),
        time_op("avg_pool2d_grad_100x8x8x8_k2", 1, iters, || {
            std::hint::black_box(g_pooled.avg_pool2d_grad(2));
        }),
    ]
}

fn main() -> ExitCode {
    let iters = report::iters(30);
    let mut report = Report::new("kernel_scaling", iters);
    report.rows = bench_ops(iters);
    report.rows.extend(bench_convnet(iters));
    report.rows.extend(bench_deco_passes(iters));
    report.rows.extend(bench_deco_block(iters));
    report::finish(&report, "BENCH_kernels.json", &GATES)
}
