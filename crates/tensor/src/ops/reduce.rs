//! Axis reductions and argmax utilities.

use crate::shape::Shape;
use crate::tensor::{for_each_broadcast, Tensor};

impl Tensor {
    /// Sums over the given axes. With `keepdim`, reduced axes stay with size
    /// 1 (so the result broadcasts back against the input).
    ///
    /// Each output slot starts at `0.0` and accumulates its input
    /// elements in ascending source order — also when no axis is reduced,
    /// so a size-1 "reduction" maps `-0.0` to `+0.0`.
    ///
    /// # Panics
    /// Panics if any axis is out of range or repeated.
    pub fn sum_axes(&self, axes: &[usize], keepdim: bool) -> Tensor {
        let rank = self.rank();
        let mut reduce = vec![false; rank];
        let mut kept = self.shape().dims().to_vec();
        for &ax in axes {
            assert!(ax < rank, "axis {ax} out of range for rank {rank}");
            assert!(!reduce[ax], "axis {ax} repeated");
            reduce[ax] = true;
            kept[ax] = 1;
        }
        // The input shape with every reduced axis at size 1: walking the
        // input against it maps each element to its output slot.
        let kept = Shape::new(kept);
        let mut out = crate::pool::take(kept.numel());
        let src = self.data();
        for_each_broadcast(self.shape(), [&kept], |i, [o]| out[o] += src[i]);
        let out_shape = if keepdim {
            kept
        } else {
            Shape::new(
                self.shape()
                    .dims()
                    .iter()
                    .zip(&reduce)
                    .filter(|&(_, &r)| !r)
                    .map(|(&d, _)| d)
                    .collect(),
            )
        };
        Tensor::from_pool_buf(out, out_shape)
    }

    /// Means over the given axes (see [`Tensor::sum_axes`]).
    pub fn mean_axes(&self, axes: &[usize], keepdim: bool) -> Tensor {
        let count: usize = axes.iter().map(|&a| self.shape().dim(a)).product();
        let summed = self.sum_axes(axes, keepdim);
        summed * (1.0 / count as f32)
    }

    /// Index of the maximum element in each row of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless the tensor is rank 2 with at least one column.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(
            self.rank(),
            2,
            "argmax_rows needs rank 2, got {}",
            self.shape()
        );
        let (n, c) = (self.shape().dim(0), self.shape().dim(1));
        assert!(c > 0, "argmax_rows needs at least one column");
        let data = self.data();
        (0..n)
            .map(|i| {
                let row = &data[i * c..(i + 1) * c];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN in argmax"))
                    .map(|(j, _)| j)
                    .expect("non-empty row")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_axes_single_axis() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let s0 = t.sum_axes(&[0], false);
        assert_eq!(s0.shape().dims(), &[3]);
        assert_eq!(s0.data(), &[5.0, 7.0, 9.0]);
        let s1 = t.sum_axes(&[1], false);
        assert_eq!(s1.data(), &[6.0, 15.0]);
    }

    #[test]
    fn sum_axes_keepdim_broadcasts_back() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let s = t.sum_axes(&[1], true);
        assert_eq!(s.shape().dims(), &[2, 1]);
        let centered = &t - &s;
        assert_eq!(centered.shape().dims(), &[2, 2]);
    }

    #[test]
    fn sum_axes_multiple() {
        let t = Tensor::ones([2, 3, 4]);
        let s = t.sum_axes(&[0, 2], false);
        assert_eq!(s.shape().dims(), &[3]);
        assert_eq!(s.data(), &[8.0, 8.0, 8.0]);
    }

    #[test]
    fn sum_axes_all_gives_total() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let s = t.sum_axes(&[0, 1], false);
        assert_eq!(s.shape().rank(), 0);
        assert_eq!(s.item(), 10.0);
    }

    #[test]
    fn mean_axes_divides_by_count() {
        let t = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], [2, 2]);
        let m = t.mean_axes(&[0], false);
        assert_eq!(m.data(), &[4.0, 6.0]);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3], [2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    /// Per-element coordinate unravel: the reduction `sum_axes` must
    /// reproduce bit for bit (zeroed slots, ascending source order).
    fn sum_axes_reference(t: &Tensor, axes: &[usize], keepdim: bool) -> Tensor {
        let dims = t.shape().dims();
        let kept: Vec<usize> = (0..dims.len())
            .map(|i| if axes.contains(&i) { 1 } else { dims[i] })
            .collect();
        let kept = Shape::new(kept);
        let mut out = vec![0.0f32; kept.numel()];
        for (flat, &v) in t.data().iter().enumerate() {
            let mut coords = t.shape().unravel(flat);
            for &ax in axes {
                coords[ax] = 0;
            }
            out[kept.ravel(&coords)] += v;
        }
        let out_dims: Vec<usize> = if keepdim {
            kept.dims().to_vec()
        } else {
            (0..dims.len())
                .filter(|i| !axes.contains(i))
                .map(|i| dims[i])
                .collect()
        };
        Tensor::from_vec(out, out_dims)
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn sum_axes_matches_unravel_reference_bitwise() {
        let mut rng = crate::Rng::new(17);
        // Ranks 0–5 (rank 5 takes the odometer's heap path), every axis
        // subset, and size-1 axes; every third element is -0.0, so
        // size-1 reductions must canonicalize it to +0.0.
        for rank in 0..=5usize {
            let dims: Vec<usize> = (0..rank).map(|i| [3, 1, 4, 2, 1][i]).collect();
            let mut t = Tensor::randn(dims.clone(), &mut rng);
            for v in t.data_mut().iter_mut().step_by(3) {
                *v = -0.0;
            }
            for mask in 0..1usize << rank {
                let axes: Vec<usize> = (0..rank).filter(|a| mask >> a & 1 == 1).collect();
                for keepdim in [false, true] {
                    assert_bits_eq(
                        &t.sum_axes(&axes, keepdim),
                        &sum_axes_reference(&t, &axes, keepdim),
                        &format!("dims {dims:?} axes {axes:?} keepdim {keepdim}"),
                    );
                }
            }
        }
        let neg_zero = Tensor::from_vec(vec![-0.0], [1]);
        assert_eq!(
            neg_zero.sum_axes(&[], false).item().to_bits(),
            0.0f32.to_bits()
        );
        assert_eq!(
            neg_zero.sum_axes(&[0], true).item().to_bits(),
            0.0f32.to_bits()
        );
    }

    #[test]
    fn conv2d_bias_grad_matches_sum_axes_bitwise() {
        let mut rng = crate::Rng::new(18);
        for dims in [[2, 3, 4, 5], [1, 4, 1, 1], [3, 1, 2, 2], [16, 16, 8, 8]] {
            let mut g = Tensor::randn(dims, &mut rng);
            for v in g.data_mut().iter_mut().step_by(5) {
                *v = -0.0;
            }
            assert_bits_eq(
                &g.conv2d_bias_grad(),
                &g.sum_axes(&[0, 2, 3], false),
                &format!("dims {dims:?}"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "axis 3 out of range")]
    fn sum_axes_rejects_bad_axis() {
        let t = Tensor::ones([2, 2]);
        let _ = t.sum_axes(&[3], false);
    }
}
