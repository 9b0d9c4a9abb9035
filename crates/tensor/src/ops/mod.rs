//! Tensor operation kernels, grouped by family.

pub mod conv;
pub mod fused;
pub(crate) mod gemm;
pub mod linalg;
pub mod reduce;
#[doc(hidden)]
pub mod simd;
pub mod transform;

/// Shared helpers for the kernels' bitwise reference tests.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::{Rng, Tensor};

    /// A `shape` tensor of standard normals in which every fifth element
    /// is `+0.0` or `-0.0` (alternating), plus one NaN when `nan` is set.
    pub fn specials(shape: &[usize], nan: bool, rng: &mut Rng) -> Tensor {
        let mut t = Tensor::randn(shape.to_vec(), rng);
        let v = t.data_mut();
        for (i, x) in v.iter_mut().enumerate().step_by(5) {
            *x = if i % 10 == 0 { 0.0 } else { -0.0 };
        }
        if nan && !v.is_empty() {
            let at = v.len() / 3;
            v[at] = f32::NAN;
        }
        t
    }

    /// Asserts `a` and `b` hold the same bits element for element; any
    /// two NaNs compare equal (IEEE 754 leaves which NaN payload an
    /// operation propagates to the implementation).
    pub fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: element {i}: {x:?} ({:#x}) vs {y:?} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }
}
