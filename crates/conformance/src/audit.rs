//! Full-graph gradient audit.
//!
//! One [`AuditEntry`] per public op in `crates/tensor/src/ops/` and per
//! layer in `crates/nn/src/layers.rs` (plus the condense matcher). Each
//! entry is either finite-difference
//! gradient-checked, verified against an algebraic identity (adjoint
//! pairs, involutions, naive recomputation), or exempted with an
//! explicit reason (constructors and pure-geometry helpers).
//!
//! Coverage is *enforced*, not aspirational: [`parsed_op_surface`],
//! [`parsed_layer_surface`] and [`parsed_dtype_surface`] extract the
//! real public surface from the
//! source files at test time, and the audit tests assert two-way
//! agreement with [`entries`] — a new public op without an audit entry
//! fails CI.
//!
//! The module also verifies the paper's Eq. 7 finite-difference HVP two
//! ways: against a closed-form baseline that is *exact* for quadratic
//! losses (central differences have zero truncation error on polynomials
//! of degree ≤ 2), and against a brute-force per-pixel numeric gradient of
//! the real matcher.

use std::path::{Path, PathBuf};

use deco_condense::{numeric_image_grad, one_step_match, MatchBatch};
use deco_nn::{
    cosine_distance, cosine_distance_grad, Conv2d, ConvNet, ConvNetConfig, GradList, GroupNorm,
    Linear,
};
use deco_telemetry::Json;
use deco_tensor::gradcheck::grad_report;
use deco_tensor::{
    Conv2dSpec, Reduction, Rng, ScalarType, StorageDtype, StoredTensor, Tensor, Var,
};

use crate::unfused;

/// How an entry is verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Reverse-mode gradient vs central finite differences.
    Gradcheck,
    /// Algebraic identity: adjoint pair, involution, or naive `f64`
    /// recomputation.
    Algebraic,
    /// Deliberately not checked numerically, with a reason.
    Exempt(&'static str),
}

impl CheckKind {
    fn label(&self) -> String {
        match self {
            CheckKind::Gradcheck => "gradcheck".to_string(),
            CheckKind::Algebraic => "algebraic".to_string(),
            CheckKind::Exempt(reason) => format!("exempt ({reason})"),
        }
    }
}

/// One audited op/layer.
pub struct AuditEntry {
    /// `module::name`, matching the parsed public surface.
    pub name: &'static str,
    /// Verification style.
    pub kind: CheckKind,
    /// Maximum tolerated deviation from `run`.
    pub tolerance: f32,
    /// Executes the check, returning the worst relative deviation found.
    pub run: fn() -> f32,
}

/// Result of one executed entry.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// `module::name`.
    pub name: String,
    /// Verification style label.
    pub kind: String,
    /// Worst deviation observed.
    pub deviation: f32,
    /// Tolerance it was held to.
    pub tolerance: f32,
}

impl AuditOutcome {
    /// Whether the deviation stayed within tolerance.
    pub fn passed(&self) -> bool {
        self.deviation <= self.tolerance
    }
}

/// Full audit result.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// One outcome per entry, in declaration order.
    pub outcomes: Vec<AuditOutcome>,
}

impl AuditReport {
    /// Whether every entry passed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(AuditOutcome::passed)
    }

    /// Human-readable summary, one line per entry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&format!(
                "{:<36} {:<28} dev {:>9.3e} (tol {:.1e})  {}\n",
                o.name,
                o.kind,
                o.deviation,
                o.tolerance,
                if o.passed() { "ok" } else { "FAIL" }
            ));
        }
        out
    }

    /// JSON form for the CI deviation-report artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("passed", Json::Bool(self.passed())),
            (
                "entries",
                Json::Arr(
                    self.outcomes
                        .iter()
                        .map(|o| {
                            Json::obj([
                                ("name", Json::Str(o.name.clone())),
                                ("kind", Json::Str(o.kind.clone())),
                                ("deviation", Json::Num(f64::from(o.deviation))),
                                ("tolerance", Json::Num(f64::from(o.tolerance))),
                                ("passed", Json::Bool(o.passed())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Executes every audit entry.
pub fn run_audit() -> AuditReport {
    AuditReport {
        outcomes: entries()
            .iter()
            .map(|e| AuditOutcome {
                name: e.name.to_string(),
                kind: e.kind.label(),
                deviation: (e.run)(),
                tolerance: e.tolerance,
            })
            .collect(),
    }
}

/// The explicit coverage list: every public tensor op, every `nn` layer,
/// the tape arena, the storage-precision surface
/// (`dtype.rs` — conversions held to their per-dtype tolerance bands),
/// the matcher's closed-form `∇_g D`, and the Eq. 7 HVP checks.
pub fn entries() -> Vec<AuditEntry> {
    macro_rules! entry {
        ($name:expr, $kind:expr, $tol:expr, $f:expr) => {
            AuditEntry {
                name: $name,
                kind: $kind,
                tolerance: $tol,
                run: $f,
            }
        };
    }
    fn zero() -> f32 {
        0.0
    }
    use CheckKind::{Algebraic, Exempt, Gradcheck};
    vec![
        // --- crates/tensor/src/ops/linalg.rs ---
        entry!("linalg::matmul", Gradcheck, 3e-2, check_matmul),
        entry!("linalg::transpose2", Gradcheck, 2e-2, check_transpose2),
        // --- crates/tensor/src/ops/conv.rs ---
        entry!(
            "conv::new",
            Exempt("plain field constructor, no arithmetic"),
            0.0,
            zero
        ),
        entry!("conv::out_side", Algebraic, 0.0, check_out_side),
        entry!("conv::conv2d", Gradcheck, 3e-2, check_conv2d),
        entry!(
            "conv::conv2d_input_grad",
            Algebraic,
            1e-4,
            check_conv_input_adjoint
        ),
        entry!(
            "conv::conv2d_weight_grad",
            Algebraic,
            1e-4,
            check_conv_weight_adjoint
        ),
        entry!(
            "conv::conv2d_bias_grad",
            Algebraic,
            1e-5,
            check_conv_bias_grad
        ),
        entry!("conv::avg_pool2d", Gradcheck, 2e-2, check_avg_pool),
        entry!(
            "conv::avg_pool2d_grad",
            Algebraic,
            1e-5,
            check_avg_pool_adjoint
        ),
        // --- crates/tensor/src/ops/reduce.rs ---
        entry!("reduce::sum_axes", Gradcheck, 2e-2, check_sum_axes),
        entry!("reduce::mean_axes", Gradcheck, 2e-2, check_mean_axes),
        entry!("reduce::argmax_rows", Algebraic, 0.0, check_argmax_rows),
        // --- crates/tensor/src/ops/transform.rs ---
        entry!("transform::select_rows", Gradcheck, 2e-2, check_select_rows),
        entry!(
            "transform::scatter_rows_add",
            Algebraic,
            1e-5,
            check_scatter_adjoint
        ),
        entry!("transform::concat_rows", Algebraic, 1e-3, check_concat_rows),
        entry!("transform::shift2d", Gradcheck, 2e-2, check_shift2d),
        entry!("transform::flip_w", Gradcheck, 2e-2, check_flip_w),
        entry!("transform::one_hot", Algebraic, 0.0, check_one_hot),
        // Fused kernels are held to *bitwise* identity (tolerance 0)
        // with the reference chains they replace (`crate::unfused`) —
        // the fusion layer's contract, checked through the Var ops.
        entry!(
            "fused::group_norm_relu_fwd",
            Algebraic,
            0.0,
            check_fused_gn_relu_fwd
        ),
        entry!(
            "fused::group_norm_relu_bwd",
            Algebraic,
            0.0,
            check_fused_gn_relu_bwd
        ),
        entry!(
            "fused::relu_avg_pool2d_fwd",
            Algebraic,
            0.0,
            check_fused_relu_pool_fwd
        ),
        entry!(
            "fused::relu_avg_pool2d_bwd",
            Algebraic,
            0.0,
            check_fused_relu_pool_bwd
        ),
        entry!(
            "fused::log_softmax_ce_fwd",
            Algebraic,
            0.0,
            check_fused_softmax_ce_fwd
        ),
        entry!(
            "fused::log_softmax_ce_bwd",
            Algebraic,
            0.0,
            check_fused_softmax_ce_bwd
        ),
        // --- crates/nn/src/layers.rs ---
        entry!("layers::Conv2d", Gradcheck, 3e-2, check_layer_conv2d),
        entry!("layers::Linear", Gradcheck, 3e-2, check_layer_linear),
        entry!("layers::GroupNorm", Gradcheck, 5e-2, check_layer_group_norm),
        // --- the autograd tape arena (crates/tensor/src/autograd.rs) ---
        entry!(
            "autograd::with_tape_arena",
            Algebraic,
            0.0,
            check_tape_arena_transparent
        ),
        entry!(
            "autograd::arena_node_high_water",
            Algebraic,
            0.0,
            check_arena_high_water
        ),
        // --- crates/tensor/src/dtype.rs: storage precision ---
        // Tolerances here are the per-dtype bands the formats pin down:
        // 2⁻⁸ relative for bf16 (2× the half-ulp), 0.75 in units of
        // `scale` for affine i8. Everything else on this surface is
        // exact and held to 0.
        entry!("dtype::parse", Algebraic, 0.0, check_dtype_tags),
        entry!("dtype::label", Algebraic, 0.0, check_dtype_tags),
        entry!("dtype::tag_byte", Algebraic, 0.0, check_dtype_tags),
        entry!("dtype::from_tag_byte", Algebraic, 0.0, check_dtype_tags),
        entry!(
            "dtype::bytes_per_element",
            Algebraic,
            0.0,
            check_dtype_widths
        ),
        entry!("dtype::heap_bytes", Algebraic, 0.0, check_dtype_widths),
        entry!(
            "dtype::storage_dtype",
            Algebraic,
            0.0,
            check_scalar_identity
        ),
        entry!("dtype::identity_for", Algebraic, 0.0, check_scalar_identity),
        entry!("dtype::scalar_type", Algebraic, 0.0, check_scalar_identity),
        entry!(
            "dtype::f32_to_bf16",
            Algebraic,
            3.91e-3,
            check_bf16_conversions
        ),
        entry!(
            "dtype::bf16_to_f32",
            Algebraic,
            3.91e-3,
            check_bf16_conversions
        ),
        entry!(
            "dtype::i8_affine_params",
            Algebraic,
            0.75,
            check_i8_quantization
        ),
        entry!("dtype::quantize_i8", Algebraic, 0.75, check_i8_quantization),
        entry!(
            "dtype::dequantize_i8",
            Algebraic,
            0.75,
            check_i8_quantization
        ),
        entry!("dtype::encode", Algebraic, 0.0, check_stored_roundtrip),
        entry!("dtype::decode", Algebraic, 0.0, check_stored_roundtrip),
        entry!("dtype::widen_into", Algebraic, 0.0, check_stored_roundtrip),
        entry!("dtype::dtype", Algebraic, 0.0, check_stored_roundtrip),
        entry!("dtype::as_f32", Algebraic, 0.0, check_stored_roundtrip),
        entry!(
            "dtype::encode_with",
            Algebraic,
            0.0,
            check_encode_with_stable
        ),
        entry!("dtype::from_raw_bf16", Algebraic, 0.0, check_from_raw),
        entry!("dtype::from_raw_i8", Algebraic, 0.0, check_from_raw),
        entry!("dtype::raw_u16", Algebraic, 0.0, check_from_raw),
        entry!("dtype::raw_i8", Algebraic, 0.0, check_from_raw),
        entry!(
            "dtype::snap_to_dtype",
            Algebraic,
            0.0,
            check_snap_idempotent
        ),
        entry!(
            "dtype::snap_to_scalar",
            Algebraic,
            0.0,
            check_snap_idempotent
        ),
        entry!(
            "dtype::dims",
            Exempt("shape accessor, no arithmetic"),
            0.0,
            zero
        ),
        entry!(
            "dtype::numel",
            Exempt("shape accessor, no arithmetic"),
            0.0,
            zero
        ),
        // --- condense matcher: ∇_g D and the Eq. 7 HVP ---
        entry!(
            "matcher::cosine_distance_grad",
            Gradcheck,
            1e-3,
            check_cosine_grad_fd
        ),
        entry!(
            "matcher::eq7_quadratic_exact",
            Algebraic,
            1e-3,
            check_eq7_quadratic
        ),
        entry!(
            "matcher::eq7_one_step_match",
            Algebraic,
            1e-1,
            check_eq7_matcher
        ),
    ]
}

// ---------------------------------------------------------------------------
// Coverage: parse the real public surface from source.
// ---------------------------------------------------------------------------

fn repo_crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("conformance crate lives under crates/")
        .to_path_buf()
}

/// Extracts `pub fn` names from a source file, stopping at the first
/// `#[cfg(test)]` so test helpers are excluded.
fn parse_pub_fns(path: &Path) -> Vec<String> {
    parse_names(path, "pub fn ")
}

/// Extracts `pub struct` names the same way.
fn parse_pub_structs(path: &Path) -> Vec<String> {
    parse_names(path, "pub struct ")
}

fn parse_names(path: &Path, prefix: &str) -> Vec<String> {
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut out = Vec::new();
    for line in src.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if let Some(rest) = trimmed.strip_prefix(prefix) {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                out.push(name);
            }
        }
    }
    out
}

/// `module::fn` names for every public function in
/// `crates/tensor/src/ops/*.rs`.
pub fn parsed_op_surface() -> Vec<String> {
    let ops = repo_crates_dir().join("tensor/src/ops");
    let mut out = Vec::new();
    for module in ["conv", "fused", "linalg", "reduce", "transform"] {
        for f in parse_pub_fns(&ops.join(format!("{module}.rs"))) {
            out.push(format!("{module}::{f}"));
        }
    }
    out.sort();
    out
}

/// `layers::Struct` names for every layer struct in
/// `crates/nn/src/layers.rs`.
pub fn parsed_layer_surface() -> Vec<String> {
    let path = repo_crates_dir().join("nn/src/layers.rs");
    let mut out: Vec<String> = parse_pub_structs(&path)
        .into_iter()
        .map(|s| format!("layers::{s}"))
        .collect();
    out.sort();
    out
}

/// `dtype::fn` names for the storage-precision surface in
/// `crates/tensor/src/dtype.rs` — the free conversion primitives and
/// the `StorageDtype` / `ScalarType` / `StoredTensor` methods alike
/// (the parser does not distinguish, and all are public API).
pub fn parsed_dtype_surface() -> Vec<String> {
    let path = repo_crates_dir().join("tensor/src/dtype.rs");
    let mut out: Vec<String> = parse_pub_fns(&path)
        .into_iter()
        .map(|f| format!("dtype::{f}"))
        .collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------------
// Individual checks. Each returns the worst relative deviation it saw.
// ---------------------------------------------------------------------------

fn rel(a: f64, b: f64) -> f32 {
    ((a - b).abs() / b.abs().max(1.0)) as f32
}

fn check_matmul() -> f32 {
    let mut rng = Rng::new(101);
    let a = Tensor::randn([4, 5], &mut rng);
    let b = Tensor::randn([5, 3], &mut rng);
    grad_report(&[a, b], 1e-2, 1, |v| v[0].matmul(&v[1]).square().sum()).max_rel_deviation
}

fn check_transpose2() -> f32 {
    let mut rng = Rng::new(102);
    let x = Tensor::randn([3, 4], &mut rng);
    let c = Var::constant(Tensor::randn([4, 3], &mut rng));
    let fd = grad_report(std::slice::from_ref(&x), 1e-2, 1, |v| {
        v[0].t().mul(&c).sum()
    })
    .max_rel_deviation;
    // Involution: t(t(x)) == x bitwise.
    let round = x.transpose2().transpose2();
    let exact = if round == x { 0.0 } else { 1.0 };
    fd.max(exact)
}

fn check_out_side() -> f32 {
    // Brute force: out_side must equal the count of window positions that
    // fit in the padded input.
    for n in 1..=10usize {
        for k in 1..=4usize {
            for s in 1..=3usize {
                for p in 0..=2usize {
                    let padded = n + 2 * p;
                    if padded < k {
                        continue;
                    }
                    let spec = Conv2dSpec::new(k, s, p);
                    let brute = (0..).take_while(|i| i * s + k <= padded).count();
                    if spec.out_side(n) != brute {
                        return 1.0;
                    }
                }
            }
        }
    }
    0.0
}

fn check_conv2d() -> f32 {
    let mut rng = Rng::new(103);
    let x = Tensor::randn([1, 2, 4, 4], &mut rng);
    let w = &Tensor::randn([2, 2, 3, 3], &mut rng) * 0.5;
    let b = Tensor::randn([2], &mut rng);
    grad_report(&[x, w, b], 1e-2, 2, |v| {
        v[0].conv2d(&v[1], Some(&v[2]), Conv2dSpec::default())
            .square()
            .sum()
    })
    .max_rel_deviation
}

fn conv_adjoint_setup(rng: &mut Rng) -> (Tensor, Tensor, Tensor, Conv2dSpec) {
    let spec = Conv2dSpec::new(3, 2, 1);
    let x = Tensor::randn([2, 2, 5, 5], rng);
    let w = Tensor::randn([3, 2, 3, 3], rng);
    let (oh, ow) = (spec.out_side(5), spec.out_side(5));
    let g = Tensor::randn([2, 3, oh, ow], rng);
    (x, w, g, spec)
}

fn check_conv_input_adjoint() -> f32 {
    // <conv(x, w), g> == <x, input_grad(g, w)> — linearity in x.
    let mut rng = Rng::new(104);
    let (x, w, g, spec) = conv_adjoint_setup(&mut rng);
    let lhs = f64::from(x.conv2d(&w, None, spec).dot(&g));
    let rhs = f64::from(g.conv2d_input_grad(&w, (5, 5), spec).dot(&x));
    rel(lhs, rhs)
}

fn check_conv_weight_adjoint() -> f32 {
    // <conv(x, w), g> == <w, weight_grad(g, x)> — linearity in w.
    let mut rng = Rng::new(105);
    let (x, w, g, spec) = conv_adjoint_setup(&mut rng);
    let lhs = f64::from(x.conv2d(&w, None, spec).dot(&g));
    let rhs = f64::from(g.conv2d_weight_grad(&x, spec.kernel, spec).dot(&w));
    rel(lhs, rhs)
}

fn check_conv_bias_grad() -> f32 {
    // bias_grad(g)[co] must equal the naive sum of g over batch + space.
    let mut rng = Rng::new(106);
    let g = Tensor::randn([3, 4, 2, 5], &mut rng);
    let bg = g.conv2d_bias_grad();
    let mut worst = 0.0f32;
    for co in 0..4 {
        let mut acc = 0.0f64;
        for n in 0..3 {
            for h in 0..2 {
                for w in 0..5 {
                    acc += f64::from(g.at(&[n, co, h, w]));
                }
            }
        }
        worst = worst.max(rel(f64::from(bg.at(&[co])), acc));
    }
    worst
}

fn check_avg_pool() -> f32 {
    let mut rng = Rng::new(107);
    let x = Tensor::randn([2, 2, 4, 4], &mut rng);
    grad_report(&[x], 1e-2, 1, |v| v[0].avg_pool2d(2).square().sum()).max_rel_deviation
}

fn check_avg_pool_adjoint() -> f32 {
    // <pool(x), g> == <x, pool_grad(g)>.
    let mut rng = Rng::new(108);
    let x = Tensor::randn([2, 3, 6, 6], &mut rng);
    let g = Tensor::randn([2, 3, 2, 2], &mut rng);
    let lhs = f64::from(x.avg_pool2d(3).dot(&g));
    let rhs = f64::from(g.avg_pool2d_grad(3).dot(&x));
    rel(lhs, rhs)
}

fn check_sum_axes() -> f32 {
    let mut rng = Rng::new(110);
    let x = Tensor::randn([2, 3, 4], &mut rng);
    // Naive f64 recomputation over every single-axis reduction.
    let mut worst = 0.0f32;
    for ax in 0..3 {
        for keepdim in [false, true] {
            let got = x.sum_axes(&[ax], keepdim);
            let naive = naive_sum_axis(&x, ax);
            worst = worst.max(crate::reference::max_rel_deviation(got.data(), &naive) as f32);
        }
    }
    // Gradient path (sum is linear — this also covers mean up to scale).
    let fd = grad_report(&[x], 1e-2, 1, |v| {
        v[0].sum_axes_keepdim(&[1]).square().sum()
    })
    .max_rel_deviation;
    worst.max(fd)
}

fn naive_sum_axis(x: &Tensor, ax: usize) -> Vec<f64> {
    let dims = x.shape().dims().to_vec();
    let (a, b, c) = (dims[0], dims[1], dims[2]);
    let mut keep: Vec<usize> = Vec::new();
    for (i, &d) in dims.iter().enumerate() {
        if i != ax {
            keep.push(d);
        }
    }
    let mut out = vec![0.0f64; keep[0] * keep[1]];
    for i in 0..a {
        for j in 0..b {
            for k in 0..c {
                let v = f64::from(x.at(&[i, j, k]));
                let idx = match ax {
                    0 => j * c + k,
                    1 => i * c + k,
                    _ => i * b + j,
                };
                out[idx] += v;
            }
        }
    }
    out
}

fn check_mean_axes() -> f32 {
    let mut rng = Rng::new(111);
    let x = Tensor::randn([2, 3, 4], &mut rng);
    let mut worst = 0.0f32;
    for ax in 0..3 {
        let got = x.mean_axes(&[ax], false);
        let naive: Vec<f64> = naive_sum_axis(&x, ax)
            .into_iter()
            .map(|v| v / x.shape().dims()[ax] as f64)
            .collect();
        worst = worst.max(crate::reference::max_rel_deviation(got.data(), &naive) as f32);
    }
    let fd = grad_report(&[x], 1e-2, 1, |v| {
        v[0].mean_axes_keepdim(&[2]).square().sum()
    })
    .max_rel_deviation;
    worst.max(fd)
}

fn check_argmax_rows() -> f32 {
    let mut rng = Rng::new(112);
    let x = Tensor::randn([6, 5], &mut rng);
    let got = x.argmax_rows();
    for (i, &g) in got.iter().enumerate() {
        let mut best = 0usize;
        for j in 1..5 {
            if x.at(&[i, j]) > x.at(&[i, best]) {
                best = j;
            }
        }
        if g != best {
            return 1.0;
        }
    }
    0.0
}

fn check_select_rows() -> f32 {
    let mut rng = Rng::new(123);
    let x = Tensor::randn([5, 3], &mut rng);
    // Repeated indices: the backward must accumulate.
    grad_report(&[x], 1e-2, 1, |v| {
        v[0].select_rows(&[4, 0, 4, 2]).square().sum()
    })
    .max_rel_deviation
}

fn check_scatter_adjoint() -> f32 {
    // <select(x, idx), g> == <x, scatter(g, idx, n)>.
    let mut rng = Rng::new(124);
    let x = Tensor::randn([6, 4], &mut rng);
    let g = Tensor::randn([3, 4], &mut rng);
    let idx = [5usize, 1, 5];
    let lhs = f64::from(x.select_rows(&idx).dot(&g));
    let rhs = f64::from(g.scatter_rows_add(&idx, 6).dot(&x));
    rel(lhs, rhs)
}

fn check_concat_rows() -> f32 {
    let mut rng = Rng::new(125);
    let a = Tensor::randn([2, 3], &mut rng);
    let b = Tensor::randn([1, 3], &mut rng);
    let cat = Tensor::concat_rows(&[&a, &b]);
    let mut expect = a.data().to_vec();
    expect.extend_from_slice(b.data());
    let exact = if cat.data() == expect.as_slice() && cat.shape().dims() == [3, 3] {
        0.0
    } else {
        1.0
    };
    // Autograd path: concatenation routes gradients back to each part.
    let fd = grad_report(&[a, b], 1e-2, 1, |v| {
        Var::concat_rows(&[v[0].clone(), v[1].clone()])
            .square()
            .sum()
    })
    .max_rel_deviation;
    (exact as f32).max(fd)
}

fn check_shift2d() -> f32 {
    let mut rng = Rng::new(126);
    let x = Tensor::randn([1, 2, 4, 4], &mut rng);
    let g = Tensor::randn([1, 2, 4, 4], &mut rng);
    // Adjoint identity over several offsets, including out-of-frame.
    let mut worst = 0.0f32;
    for (dy, dx) in [(0isize, 0isize), (1, -2), (-3, 1), (4, 0), (0, -4)] {
        let lhs = f64::from(x.shift2d(dy, dx).dot(&g));
        let rhs = f64::from(g.shift2d(-dy, -dx).dot(&x));
        worst = worst.max(rel(lhs, rhs));
    }
    let fd = grad_report(&[x], 1e-2, 1, |v| v[0].shift2d(1, -1).square().sum()).max_rel_deviation;
    worst.max(fd)
}

fn check_flip_w() -> f32 {
    let mut rng = Rng::new(127);
    let x = Tensor::randn([2, 1, 3, 4], &mut rng);
    let exact = if x.flip_w().flip_w() == x {
        0.0f32
    } else {
        1.0
    };
    let fd = grad_report(&[x], 1e-2, 1, |v| v[0].flip_w().square().sum()).max_rel_deviation;
    exact.max(fd)
}

fn check_one_hot() -> f32 {
    let oh = Tensor::one_hot(&[1, 0, 2], 4);
    let expect = [
        0.0f32, 1.0, 0.0, 0.0, //
        1.0, 0.0, 0.0, 0.0, //
        0.0, 0.0, 1.0, 0.0,
    ];
    if oh.data() == expect {
        0.0
    } else {
        1.0
    }
}

// --- Fused-kernel checks -----------------------------------------------
//
// Each fused op's contract is bitwise identity with the unfused graph it
// replaces, so these checks run the Var graph twice — fusion forced on,
// then forced off via the thread override — and return 0.0 only when
// every output bit agrees. Tolerance is 0: any drift is a failure.

/// 1.0 unless `a` and `b` agree in shape and every f32 bit.
fn bits_differ(a: &Tensor, b: &Tensor) -> f32 {
    let same = a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits());
    if same {
        0.0
    } else {
        1.0
    }
}

/// GroupNorm+ReLU graph, fused (`Var::group_norm_relu`) or the
/// reference chain: forward value plus the three input gradients.
fn run_gn_relu(fused: bool) -> (Tensor, Tensor, Tensor, Tensor) {
    let mut rng = Rng::new(171);
    let x = Var::leaf(Tensor::randn([2, 4, 3, 3], &mut rng), true);
    let gamma = Var::leaf(Tensor::randn([1, 4, 1, 1], &mut rng), true);
    let beta = Var::leaf(Tensor::randn([1, 4, 1, 1], &mut rng), true);
    let y = if fused {
        x.group_norm_relu(&gamma, &beta, 2, 1e-5)
    } else {
        unfused::group_norm_relu(&x, &gamma, &beta, 2, 1e-5)
    };
    y.sum().backward();
    (
        y.value().clone(),
        x.grad().expect("x grad"),
        gamma.grad().expect("gamma grad"),
        beta.grad().expect("beta grad"),
    )
}

fn check_fused_gn_relu_fwd() -> f32 {
    let on = run_gn_relu(true);
    let off = run_gn_relu(false);
    bits_differ(&on.0, &off.0)
}

fn check_fused_gn_relu_bwd() -> f32 {
    let on = run_gn_relu(true);
    let off = run_gn_relu(false);
    bits_differ(&on.1, &off.1)
        .max(bits_differ(&on.2, &off.2))
        .max(bits_differ(&on.3, &off.3))
}

/// ReLU+AvgPool graph, fused or the reference chain: forward value and
/// input gradient. Negative-heavy input exercises the rectification
/// mask.
fn run_relu_pool(fused: bool) -> (Tensor, Tensor) {
    let mut rng = Rng::new(172);
    let x = Var::leaf(Tensor::randn([2, 3, 6, 6], &mut rng), true);
    let y = if fused {
        x.relu_avg_pool2d(2)
    } else {
        unfused::relu_avg_pool2d(&x, 2)
    };
    y.square().sum().backward();
    (y.value().clone(), x.grad().expect("x grad"))
}

fn check_fused_relu_pool_fwd() -> f32 {
    let on = run_relu_pool(true);
    let off = run_relu_pool(false);
    bits_differ(&on.0, &off.0)
}

fn check_fused_relu_pool_bwd() -> f32 {
    let on = run_relu_pool(true);
    let off = run_relu_pool(false);
    bits_differ(&on.1, &off.1)
}

/// Softmax cross-entropy, fused or the reference chain: loss value and
/// logits gradient, with class weights and mean reduction so the scale
/// path is exercised.
fn run_softmax_ce(fused: bool) -> (Tensor, Tensor) {
    let mut rng = Rng::new(173);
    let logits = Var::leaf(Tensor::randn([5, 7], &mut rng), true);
    let labels = [0usize, 3, 6, 1, 3];
    let weights = [1.0f32, 0.5, 2.0, 1.5, 0.25];
    let loss = if fused {
        logits.log_softmax_cross_entropy(&labels, Some(&weights), Reduction::Mean)
    } else {
        unfused::log_softmax_cross_entropy(&logits, &labels, Some(&weights), Reduction::Mean)
    };
    loss.backward();
    (loss.value().clone(), logits.grad().expect("logits grad"))
}

fn check_fused_softmax_ce_fwd() -> f32 {
    let on = run_softmax_ce(true);
    let off = run_softmax_ce(false);
    bits_differ(&on.0, &off.0)
}

fn check_fused_softmax_ce_bwd() -> f32 {
    let on = run_softmax_ce(true);
    let off = run_softmax_ce(false);
    bits_differ(&on.1, &off.1)
}

fn check_layer_conv2d() -> f32 {
    let mut rng = Rng::new(128);
    let layer = Conv2d::new(2, 3, Conv2dSpec::default(), &mut rng);
    let x = Tensor::randn([1, 2, 4, 4], &mut rng);
    // Input gradient with parameters bound both frozen and live must agree
    // with finite differences (the input path is identical in both modes).
    let frozen = grad_report(std::slice::from_ref(&x), 1e-2, 2, |v| {
        layer.forward(&v[0], true).square().sum()
    })
    .max_rel_deviation;
    let live = grad_report(&[x], 1e-2, 2, |v| {
        layer.forward(&v[0], false).square().sum()
    })
    .max_rel_deviation;
    frozen.max(live)
}

fn check_layer_linear() -> f32 {
    let mut rng = Rng::new(129);
    let layer = Linear::new(4, 3, &mut rng);
    let x = Tensor::randn([5, 4], &mut rng);
    grad_report(&[x], 1e-2, 1, |v| layer.forward(&v[0], true).square().sum()).max_rel_deviation
}

fn check_layer_group_norm() -> f32 {
    let mut rng = Rng::new(130);
    let x = Tensor::randn([2, 4, 3, 3], &mut rng);
    // Non-default affine parameters, instance and grouped configurations.
    let mut worst = 0.0f32;
    for groups in [4usize, 2] {
        let gn = GroupNorm::new(4, groups);
        gn.params()[0].set(Tensor::rand_uniform([1, 4, 1, 1], 0.5, 1.5, &mut rng));
        gn.params()[1].set(Tensor::randn([1, 4, 1, 1], &mut rng));
        let dev = grad_report(std::slice::from_ref(&x), 1e-2, 2, |v| {
            gn.forward(&v[0], true).square().sum()
        })
        .max_rel_deviation;
        worst = worst.max(dev);
    }
    worst
}

fn check_cosine_grad_fd() -> f32 {
    // ∇_g D of the matching distance vs central finite differences.
    let mut rng = Rng::new(132);
    let g: GradList = [4usize, 6]
        .iter()
        .map(|&n| Tensor::randn([n], &mut rng))
        .collect();
    let r: GradList = [4usize, 6]
        .iter()
        .map(|&n| Tensor::randn([n], &mut rng))
        .collect();
    let analytic = cosine_distance_grad(&g, &r);
    let eps = 1e-3f32;
    let mut worst = 0.0f32;
    for (bi, block) in g.tensors().iter().enumerate() {
        for i in 0..block.numel() {
            let mut gp = g.clone();
            gp.0[bi].data_mut()[i] += eps;
            let mut gm = g.clone();
            gm.0[bi].data_mut()[i] -= eps;
            let num = (cosine_distance(&gp, &r) - cosine_distance(&gm, &r)) / (2.0 * eps);
            let ana = analytic.tensors()[bi].data()[i];
            worst = worst.max((num - ana).abs() / ana.abs().max(num.abs()).max(1.0));
        }
    }
    worst
}

/// Eq. 7 exactness on a quadratic loss.
///
/// For `L(X, W) = ½‖XW − T‖²` the image gradient `∇_X L(W ± εv)` is a
/// degree-2 polynomial in `ε`, so the central difference
/// `(∇_X L(W+εv) − ∇_X L(W−εv)) / 2ε` has **zero truncation error at any
/// ε** and must equal the exact mixed derivative
/// `∂/∂ε ∇_X L(W+εv)|₀ = (Xv)Wᵀ + (XW−T)vᵀ`. This is the
/// double-backward-free baseline: two gradient evaluations, no HVP op.
fn check_eq7_quadratic() -> f32 {
    let mut rng = Rng::new(133);
    let x = Tensor::randn([4, 3], &mut rng);
    let w = Tensor::randn([3, 2], &mut rng);
    let t = Tensor::randn([4, 2], &mut rng);
    let v = Tensor::randn([3, 2], &mut rng);

    let grad_x = |weights: &Tensor| -> Tensor {
        let leaf = Var::leaf(x.clone(), true);
        let wv = Var::constant(weights.clone());
        let tv = Var::constant(t.clone());
        leaf.matmul(&wv)
            .sub(&tv)
            .square()
            .sum()
            .mul_scalar(0.5)
            .backward();
        leaf.grad().expect("X gradient")
    };

    // Exact baseline: (X·v)·Wᵀ + (X·W − T)·vᵀ.
    let exact =
        &x.matmul(&v).matmul(&w.transpose2()) + &(&x.matmul(&w) - &t).matmul(&v.transpose2());

    let mut worst = 0.0f32;
    for eps in [1e-2f32, 1e-1, 1.0] {
        let mut wp = w.clone();
        wp.add_scaled(&v, eps);
        let mut wm = w.clone();
        wm.add_scaled(&v, -eps);
        let gp = grad_x(&wp);
        let gm = grad_x(&wm);
        for i in 0..exact.numel() {
            let fd = (gp.data()[i] - gm.data()[i]) / (2.0 * eps);
            let ex = exact.data()[i];
            worst = worst.max((fd - ex).abs() / ex.abs().max(1.0));
        }
    }
    worst
}

/// Eq. 7 on the real matcher: `one_step_match`'s finite-difference image
/// gradient vs the brute-force per-pixel numeric gradient of the matching
/// distance. Returns `1 − cosine` between the two gradient fields.
fn check_eq7_matcher() -> f32 {
    let mut rng = Rng::new(134);
    let cfg = ConvNetConfig {
        in_channels: 1,
        image_side: 8,
        width: 4,
        depth: 2,
        num_classes: 3,
        norm: true,
    };
    let net = ConvNet::new(cfg, &mut rng);
    let syn = Tensor::randn([2, 1, 8, 8], &mut rng);
    let real = Tensor::randn([4, 1, 8, 8], &mut rng);
    let batch = MatchBatch {
        syn_images: &syn,
        syn_labels: &[0, 1],
        real_images: &real,
        real_labels: &[0, 1, 0, 1],
        real_weights: None,
    };
    let result = one_step_match(&net, &batch, None, 0.01);
    let numeric = numeric_image_grad(&net, &batch, None, 1e-2, 2);
    // Compare on the probed subset only.
    let a: Vec<f32> = result
        .image_grad
        .data()
        .iter()
        .step_by(2)
        .copied()
        .collect();
    let b: Vec<f32> = numeric.data().iter().step_by(2).copied().collect();
    cosine_deviation(&a, &b)
}

/// `1 − cosine` between two gradient fields, or 1.0 when either field is
/// all zeros or the cosine is not finite: a matcher that returns a zero
/// image gradient must fail the check, not read as a perfect match.
fn cosine_deviation(a: &[f32], b: &[f32]) -> f32 {
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        let (x, y) = (f64::from(x), f64::from(y));
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let cos = dot / (na.sqrt() * nb.sqrt());
    if na == 0.0 || nb == 0.0 || !cos.is_finite() {
        return 1.0;
    }
    (1.0 - cos).max(0.0) as f32
}

fn check_tape_arena_transparent() -> f32 {
    use deco_tensor::with_tape_arena;
    // Recycling tape nodes must not change any value or gradient: the
    // same backward pass inside and outside an arena scope is bitwise
    // identical, including on a second scope that reuses parked nodes.
    let mut rng = Rng::new(142);
    let x = Tensor::randn([4, 5], &mut rng);
    let w = Tensor::randn([5, 3], &mut rng);
    let run = || {
        let leaf = Var::leaf(x.clone(), true);
        let loss = leaf.matmul(&Var::constant(w.clone())).square().sum();
        loss.backward();
        (loss.value().item(), leaf.grad().expect("leaf grad"))
    };
    let (la, ga) = with_tape_arena(run);
    let (lr, gr) = with_tape_arena(run);
    let (lb, gb) = run();
    if la.to_bits() == lb.to_bits() && lr.to_bits() == lb.to_bits() && ga == gb && gr == gb {
        0.0
    } else {
        1.0
    }
}

fn check_arena_high_water() -> f32 {
    use deco_tensor::{arena_node_high_water, with_tape_arena};
    let before = arena_node_high_water();
    let mut rng = Rng::new(143);
    let x = Tensor::randn([3, 3], &mut rng);
    with_tape_arena(|| {
        let leaf = Var::leaf(x.clone(), true);
        leaf.square().sum().backward();
    });
    let after = arena_node_high_water();
    // The scope built at least one recyclable node, so the gauge is
    // positive and monotone.
    if after >= before && after > 0 {
        0.0
    } else {
        1.0
    }
}

// ---------------------------------------------------------------------------
// Storage-precision checks (crates/tensor/src/dtype.rs).
// ---------------------------------------------------------------------------

fn check_dtype_tags() -> f32 {
    // Tag 2 is the retired f16 tag and must stay unassigned.
    let mut ok = StorageDtype::parse("f64").is_none()
        && StorageDtype::from_tag_byte(2).is_none()
        && StorageDtype::from_tag_byte(4).is_none();
    for (d, tag) in StorageDtype::ALL.into_iter().zip([0u8, 1, 3]) {
        ok = ok
            && StorageDtype::parse(d.label()) == Some(d)
            && StorageDtype::parse(&d.label().to_ascii_uppercase()) == Some(d)
            && d.tag_byte() == tag
            && StorageDtype::from_tag_byte(tag) == Some(d);
    }
    if ok {
        0.0
    } else {
        1.0
    }
}

fn check_dtype_widths() -> f32 {
    let mut rng = Rng::new(150);
    let t = Tensor::randn([4, 6], &mut rng);
    let mut ok = true;
    for (d, width) in StorageDtype::ALL.into_iter().zip([4usize, 2, 1]) {
        ok = ok && d.bytes_per_element() == width;
        let s = StoredTensor::encode(&t, d);
        // At-rest footprint is numel × width (plus the 5 i8 parameter
        // bytes); f32 reports the wrapped tensor's own bytes.
        let expect = match d {
            StorageDtype::F32 => t.heap_bytes(),
            StorageDtype::Bf16 => (t.numel() * 2) as u64,
            StorageDtype::I8 => t.numel() as u64 + 5,
        };
        ok = ok && s.heap_bytes() == expect;
    }
    if ok {
        0.0
    } else {
        1.0
    }
}

fn check_scalar_identity() -> f32 {
    let mut rng = Rng::new(151);
    let t = Tensor::randn([3, 5], &mut rng);
    let mut ok = matches!(
        ScalarType::identity_for(StorageDtype::I8),
        ScalarType::I8 {
            scale,
            zero: 0
        } if scale == 1.0
    );
    for d in StorageDtype::ALL {
        ok = ok && ScalarType::identity_for(d).storage_dtype() == d;
        let s = StoredTensor::encode(&t, d);
        ok = ok && s.dtype() == d && s.scalar_type().storage_dtype() == d;
    }
    if ok {
        0.0
    } else {
        1.0
    }
}

fn check_bf16_conversions() -> f32 {
    use deco_tensor::dtype::{bf16_to_f32, f32_to_bf16};
    let mut rng = Rng::new(152);
    let mut worst = 0.0f32;
    for _ in 0..4096 {
        let x = rng.normal() * 10f32.powi(rng.below(7) as i32 - 3);
        let y = bf16_to_f32(f32_to_bf16(x));
        worst = worst.max((y - x).abs() / x.abs().max(f32::MIN_POSITIVE));
        // Round-tripped values are fixed points (idempotence).
        if f32_to_bf16(y) != f32_to_bf16(x) {
            return 1.0;
        }
    }
    let specials_ok = bf16_to_f32(f32_to_bf16(f32::INFINITY)) == f32::INFINITY
        && bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)) == f32::NEG_INFINITY
        && bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan();
    if specials_ok {
        worst
    } else {
        1.0
    }
}

fn check_i8_quantization() -> f32 {
    use deco_tensor::dtype::{dequantize_i8, i8_affine_params, quantize_i8};
    let mut rng = Rng::new(154);
    let mut worst = 0.0f32;
    for _ in 0..64 {
        let spread = rng.uniform(0.1, 4.0);
        let vals: Vec<f32> = (0..256).map(|_| rng.normal() * spread).collect();
        let (scale, zero) = i8_affine_params(&vals);
        // Zero always round-trips exactly (the zero code is exact).
        if dequantize_i8(quantize_i8(0.0, scale, zero), scale, zero) != 0.0 {
            return 1.0;
        }
        // Lattice points are fixed points of dequantize∘quantize.
        for q in [i8::MIN, -1, 0, 1, i8::MAX] {
            if quantize_i8(dequantize_i8(q, scale, zero), scale, zero) != q {
                return 1.0;
            }
        }
        // In-range values land within half a step (in units of scale).
        for &v in &vals {
            let y = dequantize_i8(quantize_i8(v, scale, zero), scale, zero);
            worst = worst.max((y - v).abs() / scale);
        }
    }
    worst
}

fn check_stored_roundtrip() -> f32 {
    use deco_tensor::dtype::snap_to_dtype;
    let mut rng = Rng::new(155);
    let t = Tensor::randn([5, 7], &mut rng);
    // F32: zero-copy wrap — the same buffer, bitwise decode.
    let f = StoredTensor::encode(&t, StorageDtype::F32);
    let mut ok = f.dtype() == StorageDtype::F32
        && f.as_f32()
            .is_some_and(|inner| std::ptr::eq(inner.data().as_ptr(), t.data().as_ptr()))
        && f.decode().data() == t.data();
    for d in [StorageDtype::Bf16, StorageDtype::I8] {
        let s = StoredTensor::encode(&t, d);
        let once = s.decode();
        // decode == snap (one definition of the lattice) and widen_into
        // is decode's kernel. Re-encoding is idempotent for bf16 only:
        // i8 re-derives its affine parameters, so its stability is
        // `encode_with`'s (check_encode_with_stable).
        let mut widened = vec![0.0f32; s.numel()];
        s.widen_into(&mut widened);
        ok = ok
            && s.dtype() == d
            && s.as_f32().is_none()
            && once.data() == snap_to_dtype(&t, d).data()
            && once.data() == widened.as_slice()
            && (d != StorageDtype::Bf16
                || StoredTensor::encode(&once, d).decode().data() == once.data());
    }
    if ok {
        0.0
    } else {
        1.0
    }
}

fn check_encode_with_stable() -> f32 {
    let mut rng = Rng::new(156);
    let t = Tensor::randn([6, 4], &mut rng);
    let mut ok = true;
    for d in StorageDtype::ALL {
        let first = StoredTensor::encode(&t, d);
        let scalar = first.scalar_type();
        // decode → encode_with(remembered scalar) reproduces the
        // identical payload across cycles — the byte-stability the
        // wire format and committed buffers rely on.
        let mut cur = first.decode();
        for _ in 0..2 {
            let re = StoredTensor::encode_with(&cur, scalar);
            ok = ok
                && re.scalar_type() == scalar
                && re.raw_u16() == first.raw_u16()
                && re.raw_i8().map(|(v, s, z)| (v.to_vec(), s, z))
                    == first.raw_i8().map(|(v, s, z)| (v.to_vec(), s, z));
            cur = re.decode();
        }
    }
    if ok {
        0.0
    } else {
        1.0
    }
}

fn check_from_raw() -> f32 {
    let mut rng = Rng::new(157);
    let t = Tensor::randn([3, 8], &mut rng);
    let dims = t.shape().dims().to_vec();
    let bf = StoredTensor::encode(&t, StorageDtype::Bf16);
    let i8t = StoredTensor::encode(&t, StorageDtype::I8);
    // Raw payloads exist exactly for their own variant…
    let mut ok = bf.raw_u16().is_some()
        && bf.raw_i8().is_none()
        && i8t.raw_u16().is_none()
        && i8t.raw_i8().is_some()
        && StoredTensor::encode(&t, StorageDtype::F32)
            .raw_u16()
            .is_none();
    // …and rebuilding from them decodes bitwise identically.
    let bf2 = StoredTensor::from_raw_bf16(dims.clone(), bf.raw_u16().expect("bf16 raw").to_vec());
    let (codes, scale, zero) = i8t.raw_i8().expect("i8 raw");
    let i2 = StoredTensor::from_raw_i8(dims, codes.to_vec(), scale, zero);
    ok = ok
        && bf2.decode().data() == bf.decode().data()
        && i2.decode().data() == i8t.decode().data();
    if ok {
        0.0
    } else {
        1.0
    }
}

fn check_snap_idempotent() -> f32 {
    use deco_tensor::dtype::{snap_to_dtype, snap_to_scalar};
    let mut rng = Rng::new(158);
    let t = Tensor::randn([4, 9], &mut rng);
    // F32 snap is the identity.
    let mut ok = snap_to_dtype(&t, StorageDtype::F32).data() == t.data();
    for d in [StorageDtype::Bf16, StorageDtype::I8] {
        let once = snap_to_dtype(&t, d);
        // Idempotent through the *parameterized* scalar: lattice points
        // re-snap to themselves under the same i8 parameters.
        let scalar = StoredTensor::encode(&t, d).scalar_type();
        ok = ok
            && snap_to_scalar(&once, scalar).data() == once.data()
            && snap_to_scalar(&t, scalar).data() == once.data();
    }
    if ok {
        0.0
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surfaces_parse_nonempty() {
        let ops = parsed_op_surface();
        assert!(ops.contains(&"conv::conv2d".to_string()), "{ops:?}");
        assert!(ops.contains(&"linalg::matmul".to_string()));
        let layers = parsed_layer_surface();
        assert!(
            layers.contains(&"layers::GroupNorm".to_string()),
            "{layers:?}"
        );
        assert!(layers.contains(&"layers::Linear".to_string()));
        let dtype = parsed_dtype_surface();
        assert!(dtype.contains(&"dtype::encode".to_string()), "{dtype:?}");
    }

    #[test]
    fn a_zero_or_non_finite_gradient_field_fails_the_matcher_check() {
        let tol = entries()
            .iter()
            .find(|e| e.name == "matcher::eq7_one_step_match")
            .expect("matcher entry")
            .tolerance;
        let g = [0.5f32, -1.0, 2.0, 0.25];
        assert!(cosine_deviation(&g, &g) < 1e-6);
        assert!(cosine_deviation(&[0.0; 4], &g) > tol);
        assert!(cosine_deviation(&g, &[0.0; 4]) > tol);
        assert!(cosine_deviation(&[f32::NAN, 0.0, 1.0, 0.0], &g) > tol);
        assert!(cosine_deviation(&[f32::INFINITY, 0.0, 1.0, 0.0], &g) > tol);
    }

    #[test]
    fn quadratic_eq7_is_eps_independent() {
        // The whole point: any ε works on a quadratic.
        assert!(check_eq7_quadratic() < 1e-3);
    }
}
