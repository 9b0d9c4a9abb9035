//! Stub left where the opt-in SIMD GEMM kernels used to be.
//!
//! The scalar register-tile microkernel in `super::gemm` is the only
//! GEMM kernel. This module survives only because the repository
//! benchmark's report header still prints `active_kernel().name()`; it
//! always names the scalar kernel and can be deleted together with that
//! read.

/// The GEMM microkernel every product runs: the scalar one.
pub struct ScalarKernel;

impl ScalarKernel {
    /// Stable identifier printed in benchmark report headers.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// The kernel every GEMM runs.
pub fn active_kernel() -> ScalarKernel {
    ScalarKernel
}
