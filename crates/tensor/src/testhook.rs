//! Test-only fault-injection hooks.
//!
//! The golden-trace suite in `deco-conformance` needs to prove that a
//! one-ULP change inside an optimized kernel is *detected* by the
//! fixtures. `#[cfg(test)]` cannot express that (the hook must be
//! visible across crates), so the hook is always compiled: a single
//! relaxed atomic load per `matmul` call, disabled by default.
//!
//! Never enable this outside a test. Tests that flip it must run in
//! their own process (a dedicated integration-test binary) so the
//! perturbation cannot leak into concurrently running tests.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::ops::gemm::{self, MatRef, PackedB};
use crate::ops::simd::GemmKernel;
use crate::pool;
use crate::tensor::Tensor;

static PERTURB_MATMUL: AtomicBool = AtomicBool::new(false);

/// Force-overrides the process-global SIMD numerics mode:
/// `Some(true)` forces the detected SIMD kernel, `Some(false)` forces
/// the scalar reference, `None` restores `DECO_SIMD` env semantics.
///
/// Like the ULP perturbation, this is **process-global**: tests that
/// flip it must run in their own dedicated integration-test binary so
/// the mode cannot leak into concurrently running tests. Per-call
/// comparisons should use [`matmul_with_kernel`] instead.
#[doc(hidden)]
pub fn set_simd_override(mode: Option<bool>) {
    crate::ops::simd::set_override(mode);
}

/// Serial [`Tensor::matmul`] with the GEMM microkernel forced,
/// bypassing the process-global numerics mode — no global state, safe
/// alongside concurrent tests. Products below the packed gate run the
/// kernel-independent naive loop (both kernels agree bitwise there).
/// Callers must only pass SIMD kernels the host supports
/// ([`crate::ops::simd::detected_simd`]).
#[doc(hidden)]
pub fn matmul_with_kernel(a: &Tensor, b: &Tensor, kernel: GemmKernel) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul inner dims");
    let mut out = pool::take(m * n);
    if gemm::use_packed(m, k, n) {
        let bp = PackedB::pack(&MatRef::new(b.data(), k, n));
        gemm::gemm_rows_packed_with(kernel, &mut out, &MatRef::new(a.data(), m, k), &bp, 0..m);
        bp.recycle();
    } else {
        gemm::gemm_into(
            &mut out,
            &MatRef::new(a.data(), m, k),
            &MatRef::new(b.data(), k, n),
        );
    }
    Tensor::from_pool_buf(out, [m, n])
}

/// [`matmul_with_kernel`] with a fused bias(+relu) epilogue: computes
/// `a·b` then applies `row += bias[r]` (skipping exact-zero bias
/// entries) and optionally `max(·, 0.0)` inside the GEMM writeback.
/// Used by the conformance fuzzer to assert the epilogue is bitwise
/// identical to the separate-pass form on every microkernel. No global
/// state — safe alongside concurrent tests.
#[doc(hidden)]
pub fn matmul_bias_with_kernel(
    a: &Tensor,
    b: &Tensor,
    bias: &[f32],
    relu: bool,
    kernel: GemmKernel,
) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul inner dims");
    assert_eq!(bias.len(), m, "one bias entry per output row");
    let epi = if relu {
        gemm::Epilogue::BiasRelu(bias)
    } else {
        gemm::Epilogue::Bias(bias)
    };
    let mut out = pool::take(m * n);
    if gemm::use_packed(m, k, n) {
        let bp = PackedB::pack(&MatRef::new(b.data(), k, n));
        gemm::gemm_rows_packed_epi(
            kernel,
            &mut out,
            &MatRef::new(a.data(), m, k),
            &bp,
            0..m,
            epi,
        );
        bp.recycle();
    } else {
        gemm::gemm_into_epi(
            &mut out,
            &MatRef::new(a.data(), m, k),
            &MatRef::new(b.data(), k, n),
            epi,
        );
    }
    Tensor::from_pool_buf(out, [m, n])
}

/// Enables or disables the one-ULP matmul output perturbation.
#[doc(hidden)]
pub fn set_matmul_ulp_perturbation(enabled: bool) {
    PERTURB_MATMUL.store(enabled, Ordering::Relaxed);
}

/// Whether the one-ULP matmul perturbation is currently enabled.
#[doc(hidden)]
pub fn matmul_ulp_perturbation() -> bool {
    PERTURB_MATMUL.load(Ordering::Relaxed)
}

/// Nudges `x` by exactly one ULP (toward +∞ for finite values; zero maps
/// to the smallest positive subnormal).
#[doc(hidden)]
pub fn one_ulp_up(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    if x == 0.0 {
        return f32::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f32::from_bits(bits + 1)
    } else {
        f32::from_bits(bits - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hook_is_off_by_default() {
        assert!(!matmul_ulp_perturbation());
    }

    #[test]
    fn one_ulp_up_changes_exactly_one_bit_pattern() {
        assert_eq!(one_ulp_up(1.0).to_bits(), 1.0f32.to_bits() + 1);
        assert_eq!(one_ulp_up(-1.0).to_bits(), (-1.0f32).to_bits() - 1);
        assert_eq!(one_ulp_up(0.0), f32::from_bits(1));
        assert!(one_ulp_up(2.5) > 2.5);
        assert!(one_ulp_up(-2.5) > -2.5);
    }
}
