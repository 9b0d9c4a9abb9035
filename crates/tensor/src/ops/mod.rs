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

    /// `(n, c, oh, ow, k)` pooled shapes: windows 1, 2, 3 and 5, H ≠ W,
    /// and output rows shorter than, equal to and past one 8-output
    /// block (ow 9, 12, 13 and 17 leave a tail).
    pub const POOL_SHAPES: [(usize, usize, usize, usize, usize); 10] = [
        (2, 3, 8, 8, 2),
        (1, 2, 3, 5, 3),
        (3, 1, 1, 1, 3),
        (1, 1, 4, 2, 1),
        (2, 2, 1, 3, 5),
        (1, 2, 3, 9, 2),
        (2, 1, 2, 17, 2),
        (1, 1, 5, 13, 1),
        (1, 3, 2, 12, 3),
        (2, 2, 4, 16, 2),
    ];

    /// A pooling operand from [`specials`] with a NaN, `+inf` and `-inf`.
    pub fn pool_operand(shape: &[usize], rng: &mut Rng) -> Tensor {
        let mut t = specials(shape, true, rng);
        let v = t.data_mut();
        let last = v.len() - 1;
        v[last] = f32::INFINITY;
        v[last / 2] = f32::NEG_INFINITY;
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
