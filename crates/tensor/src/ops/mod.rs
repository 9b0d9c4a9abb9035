//! Tensor operation kernels, grouped by family.

pub mod conv;
pub mod fused;
pub(crate) mod gemm;
pub mod linalg;
pub mod reduce;
#[doc(hidden)]
pub mod simd;
pub mod stats;
pub mod transform;
