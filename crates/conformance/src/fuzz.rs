//! Seeded differential fuzzer: optimized `f32` kernels vs the naive `f64`
//! references in [`crate::reference`].
//!
//! Every case runs the optimized path twice — under `DECO_THREADS = 1` and
//! `DECO_THREADS = 4` via [`deco_runtime::with_thread_count`] — and demands
//! the two results agree **bitwise** (the runtime's determinism contract)
//! before comparing either against the `f64` reference within
//! [`DEVIATION_TOLERANCE`]. Shapes are randomized from a fixed seed and the
//! first cases of each kernel are degenerate by construction: 1×1 images,
//! single channels, batch 1, and stride/kernel edge geometries.

use deco_nn::{cosine_distance, cosine_distance_grad, GradList, GroupNorm};
use deco_telemetry::Json;
use deco_tensor::{Conv2dSpec, Reduction, Rng, Tensor, Var};

use crate::{reference, unfused};

/// Maximum allowed `|f32 − f64| / max(1, |f64|)` deviation per element
/// for the f32-compute kernels (the default per-kernel tolerance).
///
/// Storage-precision kernels carry their own tolerance band: sub-f32
/// encodings are *supposed* to deviate, by an amount the format pins
/// down exactly, so their reports are measured in units of the
/// per-dtype band (see [`KernelReport::tolerance`]).
pub const DEVIATION_TOLERANCE: f64 = 1e-4;

/// Default number of randomized cases per kernel.
pub const DEFAULT_CASES: usize = 200;

/// The two thread counts every case is executed under.
pub const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Per-kernel fuzzing outcome.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name (e.g. `"conv2d_forward"`).
    pub kernel: &'static str,
    /// Number of cases executed.
    pub cases: usize,
    /// Worst per-element relative deviation against the `f64` reference.
    pub max_deviation: f64,
    /// Cases where the 1-thread and 4-thread results differed bitwise.
    pub bitwise_mismatches: usize,
    /// Shape description of the worst-deviating case.
    pub worst_case: String,
    /// The deviation bound this kernel is held to. f32-compute kernels
    /// use [`DEVIATION_TOLERANCE`]; storage-precision kernels report
    /// band-normalized deviations and are held to `1.0`.
    pub tolerance: f64,
}

impl KernelReport {
    /// Whether this kernel stayed within its tolerance and
    /// thread-invariant.
    pub fn passed(&self) -> bool {
        self.max_deviation < self.tolerance && self.bitwise_mismatches == 0
    }
}

/// Aggregate result of a differential fuzzing run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Cases requested per kernel.
    pub cases_per_kernel: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// One entry per fuzzed kernel.
    pub kernels: Vec<KernelReport>,
}

impl DiffReport {
    /// Whether every kernel passed.
    pub fn passed(&self) -> bool {
        self.kernels.iter().all(KernelReport::passed)
    }

    /// Worst deviation across all kernels.
    pub fn max_deviation(&self) -> f64 {
        self.kernels
            .iter()
            .map(|k| k.max_deviation)
            .fold(0.0, f64::max)
    }

    /// Human-readable summary, one line per kernel.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for k in &self.kernels {
            out.push_str(&format!(
                "{:<24} {:>4} cases  max dev {:.3e}  bitwise mismatches {}  {}  worst: {}\n",
                k.kernel,
                k.cases,
                k.max_deviation,
                k.bitwise_mismatches,
                if k.passed() { "ok" } else { "FAIL" },
                k.worst_case,
            ));
        }
        out
    }

    /// JSON form for the CI deviation-report artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cases_per_kernel", Json::Num(self.cases_per_kernel as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("tolerance", Json::Num(DEVIATION_TOLERANCE)),
            ("passed", Json::Bool(self.passed())),
            (
                "kernels",
                Json::Arr(
                    self.kernels
                        .iter()
                        .map(|k| {
                            Json::obj([
                                ("kernel", Json::Str(k.kernel.to_string())),
                                ("cases", Json::Num(k.cases as f64)),
                                ("max_deviation", Json::Num(k.max_deviation)),
                                ("tolerance", Json::Num(k.tolerance)),
                                ("bitwise_mismatches", Json::Num(k.bitwise_mismatches as f64)),
                                ("passed", Json::Bool(k.passed())),
                                ("worst_case", Json::Str(k.worst_case.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs the full differential suite: every kernel, `cases` randomized
/// shapes each, at both [`THREAD_COUNTS`].
pub fn run_differential(cases: usize, seed: u64) -> DiffReport {
    DiffReport {
        cases_per_kernel: cases,
        seed,
        kernels: vec![
            fuzz_matmul(cases, seed ^ 0x01),
            fuzz_conv_forward(cases, seed ^ 0x02),
            fuzz_conv_input_grad(cases, seed ^ 0x03),
            fuzz_conv_weight_grad(cases, seed ^ 0x04),
            fuzz_group_norm(cases, seed ^ 0x05),
            fuzz_avg_pool(cases, seed ^ 0x06),
            fuzz_softmax_ce(cases, seed ^ 0x07),
            fuzz_cosine_distance(cases, seed ^ 0x08),
            fuzz_gemm_blocked_vs_naive(cases, seed ^ 0x0A),
            fuzz_matcher_storage_dtype(cases, seed ^ 0x0C),
            fuzz_fused_group_norm_relu(cases, seed ^ 0x0E),
            fuzz_fused_softmax_ce(cases, seed ^ 0x10),
            fuzz_conv_bias_epilogue(cases, seed ^ 0x11),
        ],
    }
}

/// Accumulates per-case outcomes into a [`KernelReport`].
struct Tracker {
    kernel: &'static str,
    cases: usize,
    max_deviation: f64,
    bitwise_mismatches: usize,
    worst_case: String,
    tolerance: f64,
}

impl Tracker {
    fn new(kernel: &'static str) -> Self {
        Tracker::with_tolerance(kernel, DEVIATION_TOLERANCE)
    }

    fn with_tolerance(kernel: &'static str, tolerance: f64) -> Self {
        Tracker {
            kernel,
            cases: 0,
            max_deviation: 0.0,
            bitwise_mismatches: 0,
            worst_case: String::from("-"),
            tolerance,
        }
    }

    fn record(&mut self, deviation: f64, bitwise_ok: bool, label: &str) {
        self.cases += 1;
        if !bitwise_ok {
            self.bitwise_mismatches += 1;
        }
        if deviation >= self.max_deviation {
            self.max_deviation = deviation;
            self.worst_case = label.to_string();
        }
    }

    fn finish(self) -> KernelReport {
        KernelReport {
            kernel: self.kernel,
            cases: self.cases,
            max_deviation: self.max_deviation,
            bitwise_mismatches: self.bitwise_mismatches,
            worst_case: self.worst_case,
            tolerance: self.tolerance,
        }
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `f` under both thread counts, returning the 1-thread result and
/// whether the two agreed bitwise.
fn run_both<R>(f: impl Fn() -> R, data: impl Fn(&R) -> Vec<f32>) -> (R, bool) {
    let one = deco_runtime::with_thread_count(1, &f);
    let four = deco_runtime::with_thread_count(4, &f);
    let ok = bits_equal(&data(&one), &data(&four));
    (one, ok)
}

fn randn_vec(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.normal()).collect()
}

fn fuzz_matmul(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("matmul");
    // Degenerate shapes first, then random (mostly under the packed
    // gate); every 37th case takes the packed cache-blocked kernel.
    let degenerate = [(1, 1, 1), (1, 7, 1), (5, 1, 3), (1, 1, 9), (2, 32, 2)];
    for i in 0..cases {
        let (m, k, n) = if i < degenerate.len() {
            degenerate[i]
        } else if i % 37 == 0 {
            (64, 64, 32)
        } else {
            (rng.below(16) + 1, rng.below(32) + 1, rng.below(16) + 1)
        };
        let mut a = randn_vec(m * k, &mut rng);
        // Exercise the zero-skip fast path on a fraction of entries.
        if rng.coin(0.3) {
            for v in a.iter_mut() {
                if rng.coin(0.25) {
                    *v = 0.0;
                }
            }
        }
        let b = randn_vec(k * n, &mut rng);
        let at = Tensor::from_vec(a.clone(), [m, k]);
        let bt = Tensor::from_vec(b.clone(), [k, n]);
        let (out, ok) = run_both(|| at.matmul(&bt), |t| t.data().to_vec());
        let r = reference::matmul(&a, &b, m, k, n);
        let dev = reference::max_rel_deviation(out.data(), &r);
        tr.record(dev, ok, &format!("[{m}x{k}]x[{k}x{n}]"));
    }
    tr.finish()
}

/// Random conv geometry. Degenerate indices hit 1×1 images, single
/// channels, batch 1, stride-edge kernels (unused trailing columns),
/// rectangular H ≠ W inputs, and stride-2-with-padding combinations.
fn conv_case(i: usize, rng: &mut Rng) -> (usize, usize, usize, usize, usize, Conv2dSpec) {
    // (n, cin, cout, h, w, spec)
    match i {
        0 => (1, 1, 1, 1, 1, Conv2dSpec::new(1, 1, 0)),
        1 => (1, 1, 2, 1, 1, Conv2dSpec::new(3, 1, 1)),
        2 => (1, 1, 1, 5, 5, Conv2dSpec::new(2, 2, 0)), // stride-edge: col 4 unused
        3 => (3, 1, 2, 4, 4, Conv2dSpec::new(3, 2, 1)),
        4 => (1, 3, 1, 2, 2, Conv2dSpec::new(2, 1, 0)),
        5 => (1, 1, 1, 3, 3, Conv2dSpec::new(3, 1, 0)), // kernel == input
        6 => (1, 2, 2, 7, 3, Conv2dSpec::new(3, 2, 1)), // tall, stride 2 + pad
        7 => (2, 1, 3, 3, 8, Conv2dSpec::new(2, 2, 0)), // wide, stride-edge
        8 => (1, 2, 2, 9, 5, Conv2dSpec::new(3, 2, 1)), // tall, odd sides
        9 => (1, 1, 2, 1, 6, Conv2dSpec::new(3, 2, 1)), // single-row image
        _ if i.is_multiple_of(41) => (2, 4, 8, 16, 16, Conv2dSpec::new(3, 1, 1)), // parallel path
        _ if i.is_multiple_of(29) => (2, 3, 5, 12, 7, Conv2dSpec::new(3, 2, 1)), // big rect, strided
        _ => {
            let h = rng.below(7) + 1;
            let w = rng.below(7) + 1;
            let padding = rng.below(2);
            let max_k = (h.min(w) + 2 * padding).min(3);
            let kernel = rng.below(max_k) + 1;
            let stride = rng.below(2) + 1;
            (
                rng.below(2) + 1,
                rng.below(3) + 1,
                rng.below(3) + 1,
                h,
                w,
                Conv2dSpec::new(kernel, stride, padding),
            )
        }
    }
}

fn fuzz_conv_forward(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("conv2d_forward");
    for i in 0..cases {
        let (n, cin, cout, h, w, spec) = conv_case(i, &mut rng);
        let x = randn_vec(n * cin * h * w, &mut rng);
        let wgt = randn_vec(cout * cin * spec.kernel * spec.kernel, &mut rng);
        let bias: Option<Vec<f32>> = if i % 2 == 0 {
            Some(randn_vec(cout, &mut rng))
        } else {
            None
        };
        let xt = Tensor::from_vec(x.clone(), [n, cin, h, w]);
        let wt = Tensor::from_vec(wgt.clone(), [cout, cin, spec.kernel, spec.kernel]);
        let bt = bias.clone().map(|b| Tensor::from_vec(b, [cout]));
        let (out, ok) = run_both(|| xt.conv2d(&wt, bt.as_ref(), spec), |t| t.data().to_vec());
        let r = reference::conv2d(&x, (n, cin, h, w), &wgt, cout, bias.as_deref(), spec);
        let dev = reference::max_rel_deviation(out.data(), &r);
        tr.record(dev, ok, &conv_label(n, cin, cout, h, w, spec));
    }
    tr.finish()
}

fn fuzz_conv_input_grad(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("conv2d_input_grad");
    for i in 0..cases {
        let (n, cin, cout, h, w, spec) = conv_case(i, &mut rng);
        let (oh, ow) = (spec.out_side(h), spec.out_side(w));
        let g = randn_vec(n * cout * oh * ow, &mut rng);
        let wgt = randn_vec(cout * cin * spec.kernel * spec.kernel, &mut rng);
        let gt = Tensor::from_vec(g.clone(), [n, cout, oh, ow]);
        let wt = Tensor::from_vec(wgt.clone(), [cout, cin, spec.kernel, spec.kernel]);
        let (out, ok) = run_both(
            || gt.conv2d_input_grad(&wt, (h, w), spec),
            |t| t.data().to_vec(),
        );
        let r = reference::conv2d_input_grad(&g, (n, cout, oh, ow), &wgt, cin, (h, w), spec);
        let dev = reference::max_rel_deviation(out.data(), &r);
        tr.record(dev, ok, &conv_label(n, cin, cout, h, w, spec));
    }
    tr.finish()
}

/// Conv weight gradient by both routes: the public kernel (held to the
/// `f64` reference) and the autograd tape's backward (held to the public
/// kernel bitwise), each at both thread counts.
fn fuzz_conv_weight_grad(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("conv2d_weight_grad");
    for i in 0..cases {
        let (n, cin, cout, h, w, spec) = conv_case(i, &mut rng);
        let (oh, ow) = (spec.out_side(h), spec.out_side(w));
        let g = randn_vec(n * cout * oh * ow, &mut rng);
        let x = randn_vec(n * cin * h * w, &mut rng);
        let gt = Tensor::from_vec(g.clone(), [n, cout, oh, ow]);
        let xt = Tensor::from_vec(x.clone(), [n, cin, h, w]);
        let (out, ok) = run_both(
            || gt.conv2d_weight_grad(&xt, spec.kernel, spec),
            |t| t.data().to_vec(),
        );
        // The tape route: `Var::conv2d` keeps only its input and runs
        // the same implicit GEMM from it in the backward, which must
        // equal the public kernel above bit for bit.
        let (tape, tape_ok) = run_both(
            || {
                let wl = Var::leaf(Tensor::zeros([cout, cin, spec.kernel, spec.kernel]), true);
                Var::constant(xt.clone())
                    .conv2d(&wl, None, spec)
                    .backward_with(gt.clone());
                wl.grad().expect("weight gradient")
            },
            |t| t.data().to_vec(),
        );
        let ok = ok && tape_ok && bits_equal(tape.data(), out.data());
        let r = reference::conv2d_weight_grad(&g, (n, cout, oh, ow), &x, (cin, h, w), spec);
        let dev = reference::max_rel_deviation(out.data(), &r);
        tr.record(dev, ok, &conv_label(n, cin, cout, h, w, spec));
    }
    tr.finish()
}

/// Differential case for the GEMM core's blocking: shapes chosen to take
/// the packed cache-blocked kernel (never the naive fallback) compared
/// against the naive `f64` reference product.
fn fuzz_gemm_blocked_vs_naive(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("gemm_blocked_vs_naive");
    for i in 0..cases {
        // All shapes cross the packed-path gate (2·m·k·n ≥ 2^13, m ≥ 2,
        // n ≥ 4, k ≥ 4); the interesting ones straddle the MR/NR/KC
        // block edges.
        let (m, k, n) = match i {
            0 => (8, 8, 64),   // exactly one microkernel row-panel
            1 => (9, 8, 64),   // one row of remainder
            2 => (64, 256, 8), // exactly one KC slab of whole panels
            3 => (65, 257, 9), // one past every block edge
            4 => (2, 512, 4),  // minimum m and n over the gate
            _ => {
                // Random draws with k floored so 2·m·k·n always clears
                // the packed gate.
                let m = rng.below(96) + 2;
                let n = rng.below(48) + 4;
                let k_min = (1usize << 13).div_ceil(2 * m * n).max(4);
                (m, rng.below(300) + k_min, n)
            }
        };
        let a = randn_vec(m * k, &mut rng);
        let b = randn_vec(k * n, &mut rng);
        let at = Tensor::from_vec(a.clone(), [m, k]);
        let bt = Tensor::from_vec(b.clone(), [k, n]);
        let (out, ok) = run_both(|| at.matmul(&bt), |t| t.data().to_vec());
        let r = reference::matmul(&a, &b, m, k, n);
        let dev = reference::max_rel_deviation(out.data(), &r);
        tr.record(dev, ok, &format!("[{m}x{k}]x[{k}x{n}]"));
    }
    tr.finish()
}

/// Storage-precision conformance for the matcher path, one case per
/// randomized geometry × each sub-f32 dtype (`bf16`, `i8`).
///
/// The deviation channel is **band-normalized**: each dtype's
/// encode→decode round-trip error is divided by the tolerance band the
/// format itself pins down — `2⁻⁸` relative for bf16 (2× its half-ulp)
/// and `0.75·scale` absolute for affine i8 (nearest-rounding bounds the error by
/// `scale/2`; the headroom absorbs f32 decode rounding). The kernel
/// tolerance is therefore `1.0`: a correct encoder sits near 0.5, and
/// any regression to truncation or a mis-derived scale blows past 1.
///
/// The bitwise channel covers the determinism contract on committed
/// storage: snapping decoded values is a bitwise no-op (idempotence —
/// what keeps re-commits byte-stable), and `one_step_match` over a
/// committed sub-f32 synthetic set is bitwise identical under
/// `DECO_THREADS` 1 and 4.
fn fuzz_matcher_storage_dtype(cases: usize, seed: u64) -> KernelReport {
    use deco_condense::{one_step_match, MatchBatch};
    use deco_nn::{ConvNet, ConvNetConfig};
    use deco_tensor::dtype::snap_to_scalar;
    use deco_tensor::{ScalarType, StorageDtype, StoredTensor};

    /// bf16 relative band: 2⁻⁸ (half-ulp is 2⁻⁹).
    const BF16_BAND: f64 = 1.0 / 256.0;

    let mut rng = Rng::new(seed);
    let mut tr = Tracker::with_tolerance("matcher_storage_dtype", 1.0);
    for i in 0..cases {
        // Degenerate nets first, then randomized geometries.
        let (side, depth, width, cin) = match i {
            0 => (4, 1, 1, 1),
            1 => (8, 2, 4, 1),
            _ => {
                let depth = rng.below(2) + 1;
                let side = (rng.below(2) + 1) << depth;
                (side, depth, rng.below(3) + 1, rng.below(2) + 1)
            }
        };
        let classes = rng.below(3) + 2;
        let config = ConvNetConfig {
            in_channels: cin,
            image_side: side,
            width,
            depth,
            num_classes: classes,
            norm: rng.coin(0.5),
        };
        let params = ConvNet::new(config, &mut rng).get_params();
        let n_syn = rng.below(3) + 1;
        let n_real = rng.below(3) + 1;
        let raw_syn = Tensor::from_vec(
            randn_vec(n_syn * cin * side * side, &mut rng),
            [n_syn, cin, side, side],
        );
        let real = Tensor::from_vec(
            randn_vec(n_real * cin * side * side, &mut rng),
            [n_real, cin, side, side],
        );
        let syn_labels: Vec<usize> = (0..n_syn).map(|_| rng.below(classes)).collect();
        let real_labels: Vec<usize> = (0..n_real).map(|_| rng.below(classes)).collect();
        let mut case_dev = 0.0f64;
        let mut case_ok = true;
        let mut worst_dtype = StorageDtype::Bf16;
        for dtype in [StorageDtype::Bf16, StorageDtype::I8] {
            let stored = StoredTensor::encode(&raw_syn, dtype);
            let syn = stored.decode();
            // Band-normalized round-trip deviation.
            let mut dev = 0.0f64;
            let scalar = stored.scalar_type();
            for (&x, &y) in raw_syn.data().iter().zip(syn.data()) {
                let (x, y) = (f64::from(x), f64::from(y));
                let e = match scalar {
                    ScalarType::F32 => unreachable!("sub-f32 dtypes only"),
                    ScalarType::Bf16 => {
                        (y - x).abs() / x.abs().max(f64::from(f32::MIN_POSITIVE)) / BF16_BAND
                    }
                    ScalarType::I8 { scale, .. } => (y - x).abs() / (0.75 * f64::from(scale)),
                };
                dev = dev.max(e);
            }
            // Idempotence: decoded values are already on the lattice.
            let mut ok = bits_equal(snap_to_scalar(&syn, scalar).data(), syn.data());
            // Matcher thread invariance on the committed buffer.
            let batch = MatchBatch {
                syn_images: &syn,
                syn_labels: &syn_labels,
                real_images: &real,
                real_labels: &real_labels,
                real_weights: None,
            };
            let run = || {
                let net = ConvNet::from_params(config, &params);
                let r = one_step_match(&net, &batch, None, 0.01);
                (r.distance, r.image_grad.data().to_vec())
            };
            let (d1, g1) = deco_runtime::with_thread_count(1, run);
            let (d4, g4) = deco_runtime::with_thread_count(4, run);
            ok = ok && d1.to_bits() == d4.to_bits() && bits_equal(&g1, &g4);
            if dev >= case_dev {
                case_dev = dev;
                worst_dtype = dtype;
            }
            case_ok = case_ok && ok;
        }
        tr.record(
            case_dev,
            case_ok,
            &format!("{worst_dtype} n{n_syn}/{n_real} c{cin} {side}px w{width} d{depth}"),
        );
    }
    tr.finish()
}

fn conv_label(n: usize, cin: usize, cout: usize, h: usize, w: usize, spec: Conv2dSpec) -> String {
    format!(
        "n{n} ci{cin} co{cout} {h}x{w} k{} s{} p{}",
        spec.kernel, spec.stride, spec.padding
    )
}

fn fuzz_group_norm(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("group_norm");
    for i in 0..cases {
        let (n, groups, group_c, side) = match i {
            0 => (1, 1, 1, 1), // single pixel, single channel
            1 => (1, 4, 1, 3), // instance norm
            2 => (3, 2, 2, 1), // 1x1 spatial
            _ => (
                rng.below(3) + 1,
                rng.below(4) + 1,
                rng.below(3) + 1,
                rng.below(6) + 1,
            ),
        };
        let c = groups * group_c;
        let x = randn_vec(n * c * side * side, &mut rng);
        let gamma = randn_vec(c, &mut rng);
        let beta = randn_vec(c, &mut rng);
        let gn = GroupNorm::new(c, groups);
        gn.params()[0].set(Tensor::from_vec(gamma.clone(), [1, c, 1, 1]));
        gn.params()[1].set(Tensor::from_vec(beta.clone(), [1, c, 1, 1]));
        let xt = Tensor::from_vec(x.clone(), [n, c, side, side]);
        let (out, ok) = run_both(
            || gn.forward(&Var::constant(xt.clone()), true).value().clone(),
            |t| t.data().to_vec(),
        );
        let r = reference::group_norm(&x, (n, c, side, side), groups, &gamma, &beta, 1e-5);
        let dev = reference::max_rel_deviation(out.data(), &r);
        tr.record(dev, ok, &format!("n{n} c{c} g{groups} {side}x{side}"));
    }
    tr.finish()
}

fn fuzz_avg_pool(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("avg_pool2d");
    for i in 0..cases {
        let (n, c, k, tiles) = match i {
            0 => (1, 1, 1, 1), // 1x1 image, 1x1 window
            1 => (1, 1, 3, 1), // window == image
            2 => (4, 1, 2, 1),
            _ => (
                rng.below(3) + 1,
                rng.below(3) + 1,
                rng.below(3) + 1,
                rng.below(3) + 1,
            ),
        };
        let (h, w) = (k * tiles, k * tiles);
        let x = randn_vec(n * c * h * w, &mut rng);
        let xt = Tensor::from_vec(x.clone(), [n, c, h, w]);
        let (out, ok) = run_both(|| xt.avg_pool2d(k), |t| t.data().to_vec());
        let r = reference::avg_pool2d(&x, (n, c, h, w), k);
        let dev_fwd = reference::max_rel_deviation(out.data(), &r);

        let (oh, ow) = (h / k, w / k);
        let g = randn_vec(n * c * oh * ow, &mut rng);
        let gt = Tensor::from_vec(g.clone(), [n, c, oh, ow]);
        let (gin, ok2) = run_both(|| gt.avg_pool2d_grad(k), |t| t.data().to_vec());
        let rg = reference::avg_pool2d_grad(&g, (n, c, oh, ow), k);
        let dev = dev_fwd.max(reference::max_rel_deviation(gin.data(), &rg));
        tr.record(dev, ok && ok2, &format!("n{n} c{c} {h}x{w} k{k}"));
    }
    tr.finish()
}

fn fuzz_softmax_ce(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("softmax_cross_entropy");
    for i in 0..cases {
        let (n, c) = match i {
            0 => (1, 1), // single row, single class
            1 => (1, 6),
            2 => (8, 2),
            _ => (rng.below(8) + 1, rng.below(6) + 1),
        };
        let logits = randn_vec(n * c, &mut rng);
        let labels: Vec<usize> = (0..n).map(|_| rng.below(c)).collect();
        let weights: Option<Vec<f32>> = if i % 2 == 0 {
            Some((0..n).map(|_| rng.uniform(0.1, 2.0)).collect())
        } else {
            None
        };
        let mean = i % 3 != 0;
        let reduction = if mean {
            Reduction::Mean
        } else {
            Reduction::Sum
        };
        let lt = Tensor::from_vec(logits.clone(), [n, c]);
        let run = || {
            let leaf = Var::leaf(lt.clone(), true);
            let loss = leaf
                .log_softmax()
                .nll(&labels, weights.as_deref(), reduction);
            loss.backward();
            (loss.value().item(), leaf.grad().expect("logit grad"))
        };
        let (one_loss, one_grad) = deco_runtime::with_thread_count(1, run);
        let (four_loss, four_grad) = deco_runtime::with_thread_count(4, run);
        let ok = one_loss.to_bits() == four_loss.to_bits()
            && bits_equal(one_grad.data(), four_grad.data());
        let (r_loss, r_grad) =
            reference::softmax_cross_entropy(&logits, (n, c), &labels, weights.as_deref(), mean);
        let dev = reference::rel_deviation(one_loss, r_loss)
            .max(reference::max_rel_deviation(one_grad.data(), &r_grad));
        tr.record(dev, ok, &format!("[{n}x{c}] {reduction:?}"));
    }
    tr.finish()
}

fn fuzz_cosine_distance(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("cosine_grad_distance");
    for i in 0..cases {
        let blocks = rng.below(4) + 1;
        let mut g: Vec<Vec<f32>> = Vec::new();
        let mut r: Vec<Vec<f32>> = Vec::new();
        for b in 0..blocks {
            let len = rng.below(12) + 1;
            let mut gb = randn_vec(len, &mut rng);
            let rb = randn_vec(len, &mut rng);
            // Degenerate: first case all-zero block; occasionally a block
            // far below NORM_EPS (both must take the skip path).
            if (i == 0 && b == 0) || rng.coin(0.1) {
                for v in gb.iter_mut() {
                    *v = if i == 0 { 0.0 } else { *v * 1e-12 };
                }
            }
            g.push(gb);
            r.push(rb);
        }
        let gl: GradList = g
            .iter()
            .map(|b| Tensor::from_vec(b.clone(), [b.len()]))
            .collect();
        let rl: GradList = r
            .iter()
            .map(|b| Tensor::from_vec(b.clone(), [b.len()]))
            .collect();
        let run = || {
            let d = cosine_distance(&gl, &rl);
            let grad = cosine_distance_grad(&gl, &rl);
            let flat: Vec<f32> = grad
                .tensors()
                .iter()
                .flat_map(|t| t.data().to_vec())
                .collect();
            (d, flat)
        };
        let (d1, fl1) = deco_runtime::with_thread_count(1, run);
        let (d4, fl4) = deco_runtime::with_thread_count(4, run);
        let ok = d1.to_bits() == d4.to_bits() && bits_equal(&fl1, &fl4);
        let rd = reference::cosine_distance(&g, &r);
        let rgrad: Vec<f64> = reference::cosine_distance_grad(&g, &r)
            .into_iter()
            .flatten()
            .collect();
        let dev = reference::rel_deviation(d1, rd).max(reference::max_rel_deviation(&fl1, &rgrad));
        tr.record(dev, ok, &format!("{blocks} blocks"));
    }
    tr.finish()
}

/// Runs the fused op `fused` and its [`unfused`] reference chain
/// `reference`, each at both [`THREAD_COUNTS`], and returns the fused
/// 1-thread result plus whether **all four** runs agreed bitwise — the
/// fusion contract: a fused op computes exactly the bits of the chain it
/// replaces, whatever the thread count.
fn run_against_reference<R>(
    fused: impl Fn() -> R,
    reference: impl Fn() -> R,
    data: impl Fn(&R) -> Vec<f32>,
) -> (R, bool) {
    let (fused_one, ok) = run_both(&fused, &data);
    let (reference_one, ref_ok) = run_both(&reference, &data);
    let ok = ok && ref_ok && bits_equal(&data(&fused_one), &data(&reference_one));
    (fused_one, ok)
}

/// Differential case for the fused `group_norm → relu` tape op: forward
/// value and input/affine gradients must be bitwise identical to the
/// reference chain at 1 and 4 threads, and the forward must track the
/// `f64` group-norm reference (with relu applied) within tolerance.
fn fuzz_fused_group_norm_relu(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("fused_group_norm_relu");
    for i in 0..cases {
        let (n, groups, group_c, side) = match i {
            0 => (1, 1, 1, 1), // single pixel, single channel
            1 => (1, 4, 1, 3), // instance norm
            2 => (3, 2, 2, 1), // 1x1 spatial
            _ => (
                rng.below(3) + 1,
                rng.below(4) + 1,
                rng.below(3) + 1,
                rng.below(6) + 1,
            ),
        };
        let c = groups * group_c;
        let x = randn_vec(n * c * side * side, &mut rng);
        let gamma = randn_vec(c, &mut rng);
        let beta = randn_vec(c, &mut rng);
        let xt = Tensor::from_vec(x.clone(), [n, c, side, side]);
        let gt = Tensor::from_vec(gamma.clone(), [1, c, 1, 1]);
        let bt = Tensor::from_vec(beta.clone(), [1, c, 1, 1]);
        let run = |build: &dyn Fn(&Var, &Var, &Var) -> Var| {
            let xl = Var::leaf(xt.clone(), true);
            let gl = Var::leaf(gt.clone(), true);
            let bl = Var::leaf(bt.clone(), true);
            let y = build(&xl, &gl, &bl);
            y.sum().backward();
            (
                y.value().clone(),
                xl.grad().expect("x grad"),
                gl.grad().expect("gamma grad"),
                bl.grad().expect("beta grad"),
            )
        };
        let (out, ok) = run_against_reference(
            || run(&|x, g, b| x.group_norm_relu(g, b, groups, 1e-5)),
            || run(&|x, g, b| unfused::group_norm_relu(x, g, b, groups, 1e-5)),
            |(y, gx, gg, gb)| {
                let mut v = y.data().to_vec();
                v.extend_from_slice(gx.data());
                v.extend_from_slice(gg.data());
                v.extend_from_slice(gb.data());
                v
            },
        );
        let r: Vec<f64> =
            reference::group_norm(&x, (n, c, side, side), groups, &gamma, &beta, 1e-5)
                .into_iter()
                .map(|v| v.max(0.0))
                .collect();
        let dev = reference::max_rel_deviation(out.0.data(), &r);
        tr.record(dev, ok, &format!("n{n} c{c} g{groups} {side}x{side}"));
    }
    tr.finish()
}

/// Differential case for the fused `log_softmax → nll` loss: loss value
/// and logit gradient, bitwise against the reference chain at 1 and 4
/// threads, against the `f64` softmax-cross-entropy reference.
fn fuzz_fused_softmax_ce(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("fused_softmax_ce");
    for i in 0..cases {
        let (n, c) = match i {
            0 => (1, 1), // single row, single class
            1 => (1, 6),
            2 => (8, 2),
            _ => (rng.below(8) + 1, rng.below(6) + 1),
        };
        let logits = randn_vec(n * c, &mut rng);
        let labels: Vec<usize> = (0..n).map(|_| rng.below(c)).collect();
        let weights: Option<Vec<f32>> = if i % 2 == 0 {
            Some((0..n).map(|_| rng.uniform(0.1, 2.0)).collect())
        } else {
            None
        };
        let mean = i % 3 != 0;
        let reduction = if mean {
            Reduction::Mean
        } else {
            Reduction::Sum
        };
        let lt = Tensor::from_vec(logits.clone(), [n, c]);
        let run = |build: &dyn Fn(&Var) -> Var| {
            let leaf = Var::leaf(lt.clone(), true);
            let loss = build(&leaf);
            loss.backward();
            (loss.value().item(), leaf.grad().expect("logit grad"))
        };
        let w = weights.as_deref();
        let (out, ok) = run_against_reference(
            || run(&|x| x.log_softmax_cross_entropy(&labels, w, reduction)),
            || run(&|x| unfused::log_softmax_cross_entropy(x, &labels, w, reduction)),
            |(loss, grad)| {
                let mut v = vec![*loss];
                v.extend_from_slice(grad.data());
                v
            },
        );
        let (r_loss, r_grad) =
            reference::softmax_cross_entropy(&logits, (n, c), &labels, weights.as_deref(), mean);
        let dev = reference::rel_deviation(out.0, r_loss)
            .max(reference::max_rel_deviation(out.1.data(), &r_grad));
        tr.record(dev, ok, &format!("[{n}x{c}] {reduction:?}"));
    }
    tr.finish()
}

/// Differential case for the conv bias epilogue: `conv2d` with bias
/// folded into the GEMM writeback vs the bias-free convolution plus a
/// separate broadcast add ([`unfused::conv2d_bias`]), forward plus all
/// three gradients, bitwise at 1 and 4 threads, forward against the
/// `f64` reference.
fn fuzz_conv_bias_epilogue(cases: usize, seed: u64) -> KernelReport {
    let mut rng = Rng::new(seed);
    let mut tr = Tracker::new("conv_bias_epilogue");
    for i in 0..cases {
        let (n, cin, cout, side, k, s, p) = match i {
            0 => (1, 1, 1, 1, 1, 1, 0), // single pixel
            1 => (1, 1, 2, 3, 3, 1, 1), // same-pad 3x3
            2 => (2, 3, 4, 4, 2, 2, 0), // strided
            _ => {
                let k = rng.below(3) + 1;
                (
                    rng.below(3) + 1,
                    rng.below(3) + 1,
                    rng.below(4) + 1,
                    rng.below(5) + k,
                    k,
                    rng.below(2) + 1,
                    rng.below(k),
                )
            }
        };
        let spec = Conv2dSpec {
            kernel: k,
            stride: s,
            padding: p,
        };
        let x = randn_vec(n * cin * side * side, &mut rng);
        let wgt = randn_vec(cout * cin * k * k, &mut rng);
        let bias = randn_vec(cout, &mut rng);
        let xt = Tensor::from_vec(x.clone(), [n, cin, side, side]);
        let wt = Tensor::from_vec(wgt.clone(), [cout, cin, k, k]);
        let bt = Tensor::from_vec(bias.clone(), [cout]);
        let run = |build: &dyn Fn(&Var, &Var, &Var) -> Var| {
            let xl = Var::leaf(xt.clone(), true);
            let wl = Var::leaf(wt.clone(), true);
            let bl = Var::leaf(bt.clone(), true);
            let y = build(&xl, &wl, &bl);
            y.sum().backward();
            (
                y.value().clone(),
                xl.grad().expect("x grad"),
                wl.grad().expect("w grad"),
                bl.grad().expect("bias grad"),
            )
        };
        let (out, ok) = run_against_reference(
            || run(&|x, w, b| x.conv2d(w, Some(b), spec)),
            || run(&|x, w, b| unfused::conv2d_bias(x, w, b, spec)),
            |(y, gx, gw, gb)| {
                let mut v = y.data().to_vec();
                v.extend_from_slice(gx.data());
                v.extend_from_slice(gw.data());
                v.extend_from_slice(gb.data());
                v
            },
        );
        let r = reference::conv2d(&x, (n, cin, side, side), &wgt, cout, Some(&bias), spec);
        let dev = reference::max_rel_deviation(out.0.data(), &r);
        tr.record(
            dev,
            ok,
            &format!("n{n} {cin}->{cout} {side}x{side} k{k}s{s}p{p}"),
        );
    }
    tr.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_passes_and_is_deterministic() {
        let a = run_differential(8, 0xD1FF);
        let b = run_differential(8, 0xD1FF);
        assert!(a.passed(), "\n{}", a.render());
        assert_eq!(a.max_deviation(), b.max_deviation());
        assert_eq!(a.kernels.len(), 13);
    }

    #[test]
    fn storage_dtype_kernel_uses_the_band_tolerance() {
        let r = run_differential(4, 7);
        let storage = r
            .kernels
            .iter()
            .find(|k| k.kernel == "matcher_storage_dtype")
            .expect("storage kernel present");
        assert_eq!(storage.tolerance, 1.0);
        // A correct encoder sits well inside the band but nowhere near
        // the f32 tolerance: the deviation is real precision loss.
        assert!(storage.max_deviation > DEVIATION_TOLERANCE);
        assert!(storage.max_deviation < 1.0, "{}", storage.worst_case);
        for k in &r.kernels {
            if k.kernel != "matcher_storage_dtype" {
                assert_eq!(k.tolerance, DEVIATION_TOLERANCE, "{}", k.kernel);
            }
        }
    }

    #[test]
    fn report_json_names_every_kernel() {
        let r = run_differential(3, 1);
        let json = r.to_json().to_string_pretty();
        for k in &r.kernels {
            assert!(json.contains(k.kernel), "missing {}", k.kernel);
        }
    }
}
