//! Matrix operations: matmul and 2-D transpose.

use super::gemm::{self, MatRef};
use crate::pool;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Lowered onto the cache-blocked, panel-packed GEMM core
    /// (`ops/gemm.rs`; tiny products fall back to a naive ikj loop — the
    /// choice is a pure function of the shapes) and run on the calling
    /// thread. Every output element is accumulated in a shape-derived
    /// order, so the result is bitwise identical at any thread count.
    /// Output and packing buffers come from the thread-local
    /// [`crate::pool`].
    ///
    /// # Panics
    /// Panics unless both tensors are rank 2 with matching inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "matmul lhs must be rank 2, got {}",
            self.shape()
        );
        assert_eq!(
            other.rank(),
            2,
            "matmul rhs must be rank 2, got {}",
            other.shape()
        );
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (other.shape().dim(0), other.shape().dim(1));
        assert_eq!(
            k,
            k2,
            "matmul inner dims: {} vs {}",
            self.shape(),
            other.shape()
        );
        deco_telemetry::counter!("tensor.ops.matmul");
        deco_telemetry::counter!("tensor.ops.matmul_flops", (2 * m * k * n) as u64);
        let mut out = pool::take(m * n);
        gemm::gemm_into(
            &mut out,
            &MatRef::new(self.data(), m, k),
            &MatRef::new(other.data(), k, n),
        );
        if crate::testhook::matmul_ulp_perturbation() {
            if let Some(first) = out.first_mut() {
                *first = crate::testhook::one_ulp_up(*first);
            }
        }
        Tensor::from_pool_buf(out, [m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless the tensor is rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "transpose2 needs rank 2, got {}",
            self.shape()
        );
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let src = self.data();
        let mut out = pool::take(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = src[i * n + j];
            }
        }
        Tensor::from_pool_buf(out, [n, m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::ones([4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let t = a.transpose2();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), 6.0);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn matmul_matches_transpose_identity() {
        // (A B)^T == B^T A^T
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), [2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32) * 0.5).collect(), [3, 4]);
        let lhs = a.matmul(&b).transpose2();
        let rhs = b.transpose2().matmul(&a.transpose2());
        assert_eq!(lhs, rhs);
    }
}
