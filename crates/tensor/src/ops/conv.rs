//! 2-D convolution and average pooling (NCHW layout), with explicit
//! gradient kernels used by the autograd layer.
//!
//! The three expensive kernels — forward, input gradient, and weight
//! gradient — lower onto the cache-blocked GEMM core in [`super::gemm`]
//! through im2col: each image is unrolled into a `[c_in·k·k, oh·ow]`
//! column matrix and the convolution becomes `out = W × cols` forward
//! (bias added in the GEMM writeback epilogue), `colsᵍ = Wᵀ × g` then a
//! col2im scatter-add for the input gradient, and `gw += g × colsᵀ` for
//! the weight gradient (transposed operands are views; nothing is
//! materialized).
//!
//! Column matrices come from one of two places. A convolution recorded on
//! the autograd tape ([`crate::Var::conv2d`]) lowers the whole batch once
//! into a slab (`im2col_slab`) that its forward GEMMs read and that the
//! tape keeps for the weight gradient, so the backward pass never lowers
//! the input again; the slab is freed with the tape. Every other caller —
//! no-grad forwards and the public [`Tensor`] kernels — lowers one image
//! at a time into pooled scratch. Both read identical bytes, so the two
//! routes are bitwise identical.
//!
//! Serial execution runs one kernel call over the full range; large
//! problems fan the same kernel out across the `deco-runtime` pool with
//! shape-derived chunk boundaries. Per-image results are independent
//! (the weight gradient folds shape-derived per-chunk partials in chunk
//! order, serial and parallel alike), so results are bitwise identical
//! at any `DECO_THREADS`. All outputs and scratch come from the
//! thread-local [`crate::pool`].

use std::ops::Range;

use super::gemm::{self, MatRef};
use crate::pool;
use crate::tensor::Tensor;

/// Minimum multiply-accumulate count before a conv kernel fans out.
const PAR_MIN_OPS: usize = 1 << 17;
/// Target multiply-accumulates per parallel chunk (shape-derived only).
const PAR_CHUNK_OPS: usize = 1 << 16;

/// Runs `kernel` over `total` blocks of `block_len` output floats and
/// `block_cost` multiply-accumulates each, writing into `out`
/// (`total · block_len` floats, pre-zeroed by the caller). Serial
/// execution passes `out` straight through; parallel chunks write into
/// pooled scratch that is copied into place and recycled. The chunk
/// boundaries depend only on the shape-derived arguments, never the
/// thread count.
fn run_blocks<K>(total: usize, block_cost: usize, block_len: usize, out: &mut [f32], kernel: K)
where
    K: Fn(Range<usize>, &mut [f32]) + Send + Sync + 'static,
{
    debug_assert_eq!(out.len(), total * block_len);
    if deco_runtime::threads() > 1 && total > 1 && total * block_cost >= PAR_MIN_OPS {
        let blocks_per_chunk = (PAR_CHUNK_OPS / block_cost.max(1)).clamp(1, total);
        let chunks = deco_runtime::parallel_for_chunks(total, blocks_per_chunk, move |blocks| {
            let mut buf = pool::take(blocks.len() * block_len);
            kernel(blocks, &mut buf);
            buf
        });
        let mut cursor = 0usize;
        for chunk in chunks {
            out[cursor..cursor + chunk.len()].copy_from_slice(&chunk);
            cursor += chunk.len();
            pool::give(chunk);
        }
    } else {
        kernel(0..total, out);
    }
}

/// Column matrices of a convolution input: read from a full-batch slab
/// when the caller holds one, else lowered per image into scratch.
enum Cols<'a> {
    Slab(&'a Tensor),
    Scratch { x: &'a Tensor, buf: Vec<f32> },
}

impl<'a> Cols<'a> {
    /// `slab` when given, else per-image scratch over input `x`.
    fn new(slab: Option<&'a Tensor>, x: &'a Tensor, len: usize) -> Cols<'a> {
        match slab {
            Some(s) => Cols::Slab(s),
            None => Cols::Scratch {
                x,
                buf: pool::take(len),
            },
        }
    }

    /// Image `ni`'s `[c_in·k·k, oh·ow]` column matrix.
    fn image(
        &mut self,
        ni: usize,
        (cin, h, w): (usize, usize, usize),
        (oh, ow): (usize, usize),
        spec: Conv2dSpec,
    ) -> &[f32] {
        match self {
            Cols::Slab(s) => {
                let len = s.numel() / s.shape().dim(0);
                &s.data()[ni * len..(ni + 1) * len]
            }
            Cols::Scratch { x, buf } => {
                let img = cin * h * w;
                im2col(
                    buf,
                    &x.data()[ni * img..(ni + 1) * img],
                    (cin, h, w),
                    (oh, ow),
                    spec,
                );
                buf
            }
        }
    }
}

impl Drop for Cols<'_> {
    fn drop(&mut self) {
        if let Cols::Scratch { buf, .. } = self {
            pool::give(std::mem::take(buf));
        }
    }
}

/// Unrolls one NCHW image into its `[c_in·k·k, oh·ow]` column matrix:
/// row `ci·k² + khi·k + kwi` holds the input value under kernel tap
/// `(khi, kwi)` of channel `ci` for every output position (zero where
/// the tap falls in padding). Writes every element of `cols`.
fn im2col(
    cols: &mut [f32],
    x_img: &[f32],
    (cin, h, w): (usize, usize, usize),
    (oh, ow): (usize, usize),
    spec: Conv2dSpec,
) {
    let (s, p, k) = (spec.stride, spec.padding as isize, spec.kernel);
    let ohw = oh * ow;
    debug_assert_eq!(cols.len(), cin * k * k * ohw);
    let mut row = 0usize;
    for ci in 0..cin {
        let x_base = ci * h * w;
        for khi in 0..k {
            for kwi in 0..k {
                let dst = &mut cols[row * ohw..(row + 1) * ohw];
                row += 1;
                for ohi in 0..oh {
                    let ih = (ohi * s) as isize + khi as isize - p;
                    let drow = &mut dst[ohi * ow..(ohi + 1) * ow];
                    if ih < 0 || ih >= h as isize {
                        drow.fill(0.0);
                        continue;
                    }
                    let x_row = x_base + (ih as usize) * w;
                    for (owi, d) in drow.iter_mut().enumerate() {
                        let iw = (owi * s) as isize + kwi as isize - p;
                        *d = if iw < 0 || iw >= w as isize {
                            0.0
                        } else {
                            x_img[x_row + iw as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a `[c_in·k·k, oh·ow]` column
/// matrix back into one NCHW image gradient (which the caller has
/// zeroed). Contributions to each input cell arrive in fixed row-major
/// column order — a pure function of the shapes.
fn col2im_add(
    gin_img: &mut [f32],
    cols: &[f32],
    (cin, h, w): (usize, usize, usize),
    (oh, ow): (usize, usize),
    spec: Conv2dSpec,
) {
    let (s, p, k) = (spec.stride, spec.padding as isize, spec.kernel);
    let ohw = oh * ow;
    let mut row = 0usize;
    for ci in 0..cin {
        let gi_base = ci * h * w;
        for khi in 0..k {
            for kwi in 0..k {
                let src = &cols[row * ohw..(row + 1) * ohw];
                row += 1;
                for ohi in 0..oh {
                    let ih = (ohi * s) as isize + khi as isize - p;
                    if ih < 0 || ih >= h as isize {
                        continue;
                    }
                    let gi_row = gi_base + (ih as usize) * w;
                    for (owi, &v) in src[ohi * ow..(ohi + 1) * ow].iter().enumerate() {
                        let iw = (owi * s) as isize + kwi as isize - p;
                        if iw >= 0 && iw < w as isize {
                            gin_img[gi_row + iw as usize] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dSpec {
    /// Convenience constructor.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dSpec {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial side for an input side of `n`.
    ///
    /// # Panics
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_side(&self, n: usize) -> usize {
        let padded = n + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {}",
            self.kernel,
            padded
        );
        (padded - self.kernel) / self.stride + 1
    }
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        }
    }
}

impl Tensor {
    /// 2-D convolution (cross-correlation) of an NCHW input with an
    /// `[c_out, c_in, k, k]` weight, plus an optional `[c_out]` bias.
    ///
    /// # Panics
    /// Panics on rank/shape mismatches.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        conv2d_impl(self, weight, bias, spec, None)
    }
}

/// Lowers the whole NCHW batch `x` into one im2col slab: image `ni`'s
/// `[c_in·k·k, oh·ow]` column matrix at offset `ni·c_in·k²·oh·ow`, shape
/// `[n, c_in·k·k, oh·ow]`. Built on the calling thread; the slab is a
/// pooled tensor, so dropping its last handle recycles the buffer.
pub(crate) fn im2col_slab(x: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (n, cin, h, w) = dims4(x);
    let (oh, ow) = (spec.out_side(h), spec.out_side(w));
    let ckk = cin * spec.kernel * spec.kernel;
    let (img, cols) = (cin * h * w, ckk * oh * ow);
    // Scratch: im2col writes every element of each image's slice.
    let mut slab = pool::take_scratch(n * cols);
    for ni in 0..n {
        im2col(
            &mut slab[ni * cols..(ni + 1) * cols],
            &x.data()[ni * img..(ni + 1) * img],
            (cin, h, w),
            (oh, ow),
            spec,
        );
    }
    Tensor::from_pool_buf(slab, [n, ckk, oh * ow])
}

/// Implementation of [`Tensor::conv2d`]. `slab` is `x`'s
/// [`im2col_slab`] when the caller keeps one for the weight gradient;
/// without it each image is lowered into scratch.
pub(crate) fn conv2d_impl(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    slab: Option<&Tensor>,
) -> Tensor {
    assert_eq!(x.rank(), 4, "conv2d input must be NCHW, got {}", x.shape());
    assert_eq!(
        weight.rank(),
        4,
        "conv2d weight must be [co,ci,k,k], got {}",
        weight.shape()
    );
    let (n, cin, h, w) = dims4(x);
    let (cout, cin2, kh, kw) = dims4(weight);
    assert_eq!(
        cin, cin2,
        "conv2d channel mismatch: input {cin}, weight {cin2}"
    );
    assert_eq!(
        kh, spec.kernel,
        "weight kernel {kh} vs spec {}",
        spec.kernel
    );
    assert_eq!(
        kw, spec.kernel,
        "weight kernel {kw} vs spec {}",
        spec.kernel
    );
    if let Some(b) = bias {
        assert_eq!(
            b.numel(),
            cout,
            "bias length {} vs c_out {}",
            b.numel(),
            cout
        );
        crate::fusion::count_conv_bias_epilogue();
    }
    let (oh, ow) = (spec.out_side(h), spec.out_side(w));
    deco_telemetry::counter!("tensor.ops.conv2d");
    let ohw = oh * ow;
    let ckk = cin * spec.kernel * spec.kernel;
    let macs_per_image = cout * ckk * ohw;
    let slab = slab.cloned();
    let x = x.clone();
    let wt = weight.clone();
    let b = bias.cloned();
    let mut out = pool::take(n * cout * ohw);
    let _span = deco_telemetry::span!("tensor.gemm");
    run_blocks(n, macs_per_image, cout * ohw, &mut out, move |imgs, dst| {
        let wv = MatRef::new(wt.data(), cout, ckk);
        // The bias rides the GEMM writeback, added per finalized tile.
        let epi = match &b {
            Some(b) => gemm::Epilogue::Bias(b.data()),
            None => gemm::Epilogue::None,
        };
        let mut cols = Cols::new(slab.as_ref(), &x, ckk * ohw);
        for (bi, ni) in imgs.enumerate() {
            let cols_img = MatRef::new(cols.image(ni, (cin, h, w), (oh, ow), spec), ckk, ohw);
            let dst_img = &mut dst[bi * cout * ohw..(bi + 1) * cout * ohw];
            gemm::gemm_into_epi(dst_img, &wv, &cols_img, epi);
        }
    });
    Tensor::from_pool_buf(out, [n, cout, oh, ow])
}

impl Tensor {
    /// Gradient of [`Tensor::conv2d`] w.r.t. its input.
    ///
    /// `self` is the output gradient `[n, c_out, oh, ow]`.
    pub fn conv2d_input_grad(
        &self,
        weight: &Tensor,
        input_hw: (usize, usize),
        spec: Conv2dSpec,
    ) -> Tensor {
        let (n, cout, oh, ow) = dims4(self);
        let (cout2, cin, k, _) = dims4(weight);
        assert_eq!(cout, cout2, "conv2d_input_grad c_out mismatch");
        let (h, w) = input_hw;
        let ohw = oh * ow;
        let ckk = cin * k * k;
        let g = self.clone();
        let wt = weight.clone();
        let mut gin = pool::take(n * cin * h * w);
        let _span = deco_telemetry::span!("tensor.gemm");
        run_blocks(
            n,
            cout * ckk * ohw,
            cin * h * w,
            &mut gin,
            move |imgs, dst| {
                // Wᵀ as a view: logical [c_in·k·k, c_out].
                let wt_t = MatRef::transposed(wt.data(), cout, ckk);
                let mut cols_g = pool::take(ckk * ohw);
                for (bi, ni) in imgs.enumerate() {
                    cols_g.fill(0.0);
                    let g_img = &g.data()[ni * cout * ohw..(ni + 1) * cout * ohw];
                    gemm::gemm_into(&mut cols_g, &wt_t, &MatRef::new(g_img, cout, ohw));
                    let dst_img = &mut dst[bi * cin * h * w..(bi + 1) * cin * h * w];
                    col2im_add(dst_img, &cols_g, (cin, h, w), (oh, ow), spec);
                }
                pool::give(cols_g);
            },
        );
        Tensor::from_pool_buf(gin, [n, cin, h, w])
    }

    /// Gradient of [`Tensor::conv2d`] w.r.t. its weight.
    ///
    /// `self` is the output gradient; `input` the forward input.
    pub fn conv2d_weight_grad(&self, input: &Tensor, kernel: usize, spec: Conv2dSpec) -> Tensor {
        conv2d_weight_grad_impl(self, input, kernel, spec, None)
    }
}

/// Implementation of [`Tensor::conv2d_weight_grad`]; `slab` is the
/// forward's [`im2col_slab`] of `input` when the tape kept one.
pub(crate) fn conv2d_weight_grad_impl(
    g_t: &Tensor,
    input: &Tensor,
    kernel: usize,
    spec: Conv2dSpec,
    slab: Option<&Tensor>,
) -> Tensor {
    let (n, cout, oh, ow) = dims4(g_t);
    let (n2, cin, h, w) = dims4(input);
    assert_eq!(n, n2, "conv2d_weight_grad batch mismatch");
    let k = kernel;
    let ohw = oh * ow;
    let ckk = cin * k * k;
    let macs_per_image = cout * ckk * ohw;
    let g = g_t.clone();
    let x = input.clone();
    let slab = slab.cloned();
    let mut gw = pool::take(cout * ckk);
    let _span = deco_telemetry::span!("tensor.gemm");
    // Accumulates `g_i × cols_iᵀ` over an image range into `dst`
    // (image order within the range).
    let kernel_fn = move |imgs: Range<usize>, dst: &mut [f32]| {
        let mut cols = Cols::new(slab.as_ref(), &x, ckk * ohw);
        for ni in imgs {
            let cols_img = cols.image(ni, (cin, h, w), (oh, ow), spec);
            let g_img = &g.data()[ni * cout * ohw..(ni + 1) * cout * ohw];
            gemm::gemm_into(
                dst,
                &MatRef::new(g_img, cout, ohw),
                &MatRef::transposed(cols_img, ckk, ohw),
            );
        }
    };
    // The batch sum is not per-image independent, so serial and
    // parallel execution share one reduction structure: shape-
    // derived image chunks, each accumulated into a zeroed
    // partial, folded into `gw` in chunk order.
    let ipc = (PAR_CHUNK_OPS / macs_per_image.max(1)).clamp(1, n);
    let mut fold = |partial: Vec<f32>| {
        for (d, s) in gw.iter_mut().zip(&partial) {
            *d += s;
        }
        pool::give(partial);
    };
    if deco_runtime::threads() > 1 && n > 1 && n * macs_per_image >= PAR_MIN_OPS {
        let partials = deco_runtime::parallel_for_chunks(n, ipc, move |imgs| {
            let mut p = pool::take(cout * ckk);
            kernel_fn(imgs, &mut p);
            p
        });
        for p in partials {
            fold(p);
        }
    } else {
        let mut start = 0usize;
        while start < n {
            let end = (start + ipc).min(n);
            let mut p = pool::take(cout * ckk);
            kernel_fn(start..end, &mut p);
            fold(p);
            start = end;
        }
    }
    Tensor::from_pool_buf(gw, [cout, cin, k, k])
}

impl Tensor {
    /// Gradient of [`Tensor::conv2d`] w.r.t. its bias: sum over batch and
    /// spatial axes of the output gradient.
    pub fn conv2d_bias_grad(&self) -> Tensor {
        let (_, cout, _, _) = dims4(self);
        self.sum_axes(&[0, 2, 3], false).reshape([cout])
    }

    /// Non-overlapping average pooling with a square `k × k` window.
    ///
    /// # Panics
    /// Panics unless the input is rank 4 and H, W are divisible by `k`.
    pub fn avg_pool2d(&self, k: usize) -> Tensor {
        assert_eq!(self.rank(), 4, "avg_pool2d input must be NCHW");
        let (n, c, h, w) = dims4(self);
        assert!(
            h % k == 0 && w % k == 0,
            "pool window {k} must divide {h}x{w}"
        );
        let (oh, ow) = (h / k, w / k);
        let x = self.data();
        let inv = 1.0 / (k * k) as f32;
        // Scratch: every output element is written below.
        let mut out = pool::take_scratch(n * c * oh * ow);
        for nc in 0..n * c {
            let x_base = nc * h * w;
            let o_base = nc * oh * ow;
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = 0.0f32;
                    for dy in 0..k {
                        let row = x_base + (ohi * k + dy) * w + owi * k;
                        for dx in 0..k {
                            acc += x[row + dx];
                        }
                    }
                    out[o_base + ohi * ow + owi] = acc * inv;
                }
            }
        }
        Tensor::from_pool_buf(out, [n, c, oh, ow])
    }

    /// Gradient of [`Tensor::avg_pool2d`]: spreads each output gradient
    /// uniformly over its window. `self` is the output gradient.
    pub fn avg_pool2d_grad(&self, k: usize) -> Tensor {
        let (n, c, oh, ow) = dims4(self);
        let (h, w) = (oh * k, ow * k);
        let g = self.data();
        let inv = 1.0 / (k * k) as f32;
        let mut gin = pool::take(n * c * h * w);
        for nc in 0..n * c {
            let g_base = nc * oh * ow;
            let gi_base = nc * h * w;
            for ohi in 0..oh {
                for owi in 0..ow {
                    let gv = g[g_base + ohi * ow + owi] * inv;
                    for dy in 0..k {
                        let row = gi_base + (ohi * k + dy) * w + owi * k;
                        for dx in 0..k {
                            gin[row + dx] += gv;
                        }
                    }
                }
            }
        }
        Tensor::from_pool_buf(gin, [n, c, h, w])
    }
}

impl Tensor {
    /// Non-overlapping max pooling with a square `k × k` window, returning
    /// the pooled values and the flat input index of each selected maximum
    /// (for the backward pass).
    ///
    /// # Panics
    /// Panics unless the input is rank 4 and H, W are divisible by `k`.
    pub fn max_pool2d(&self, k: usize) -> (Tensor, Vec<usize>) {
        assert_eq!(self.rank(), 4, "max_pool2d input must be NCHW");
        let (n, c, h, w) = dims4(self);
        assert!(
            h % k == 0 && w % k == 0,
            "pool window {k} must divide {h}x{w}"
        );
        let (oh, ow) = (h / k, w / k);
        let x = self.data();
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut idx = vec![0usize; n * c * oh * ow];
        for nc in 0..n * c {
            let x_base = nc * h * w;
            let o_base = nc * oh * ow;
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for dy in 0..k {
                        let row = x_base + (ohi * k + dy) * w + owi * k;
                        for dx in 0..k {
                            let v = x[row + dx];
                            if v > best {
                                best = v;
                                best_i = row + dx;
                            }
                        }
                    }
                    out[o_base + ohi * ow + owi] = best;
                    idx[o_base + ohi * ow + owi] = best_i;
                }
            }
        }
        (Tensor::from_vec(out, [n, c, oh, ow]), idx)
    }

    /// Gradient of [`Tensor::max_pool2d`]: routes each output gradient to
    /// the input position that won the max. `self` is the output gradient;
    /// `indices` comes from the forward pass.
    ///
    /// # Panics
    /// Panics if `indices` length differs from this tensor's element count.
    pub fn max_pool2d_grad(&self, indices: &[usize], input_numel: usize) -> Tensor {
        assert_eq!(indices.len(), self.numel(), "index count mismatch");
        let (n, c, oh, ow) = dims4(self);
        let k2 = input_numel / (n * c * oh * ow);
        // k² must be a perfect square times the output; reconstruct sides.
        let k = (k2 as f32).sqrt() as usize;
        debug_assert_eq!(k * k * n * c * oh * ow, input_numel);
        let g = self.data();
        let mut gin = vec![0.0f32; input_numel];
        for (o, &i) in indices.iter().enumerate() {
            gin[i] += g[o];
        }
        Tensor::from_vec(gin, [n, c, oh * k, ow * k])
    }
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.rank(), 4, "expected rank-4 tensor, got {}", t.shape());
    (
        t.shape().dim(0),
        t.shape().dim(1),
        t.shape().dim(2),
        t.shape().dim(3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_side_formula() {
        let spec = Conv2dSpec::new(3, 1, 1);
        assert_eq!(spec.out_side(8), 8); // "same" conv
        let spec2 = Conv2dSpec::new(3, 2, 1);
        assert_eq!(spec2.out_side(8), 4);
        let spec3 = Conv2dSpec::new(2, 2, 0);
        assert_eq!(spec3.out_side(8), 4);
    }

    #[test]
    fn identity_kernel_is_identity() {
        // 1x1 kernel with weight 1 reproduces the input.
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), [1, 1, 4, 4]);
        let w = Tensor::from_vec(vec![1.0], [1, 1, 1, 1]);
        let y = x.conv2d(&w, None, Conv2dSpec::new(1, 1, 0));
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_matches_hand_computation() {
        // 2x2 input, 2x2 kernel, no padding → single output element.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let w = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], [1, 1, 2, 2]);
        let y = x.conv2d(&w, None, Conv2dSpec::new(2, 1, 0));
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(y.item(), 1.0 * 10.0 + 2.0 * 20.0 + 3.0 * 30.0 + 4.0 * 40.0);
    }

    #[test]
    fn same_padding_preserves_spatial_size() {
        let mut rng = crate::Rng::new(1);
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], &mut rng);
        let y = x.conv2d(&w, None, Conv2dSpec::new(3, 1, 1));
        assert_eq!(y.shape().dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn bias_adds_per_channel() {
        let x = Tensor::zeros([1, 1, 2, 2]);
        let w = Tensor::zeros([2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![5.0, -3.0], [2]);
        let y = x.conv2d(&w, Some(&b), Conv2dSpec::new(1, 1, 0));
        assert_eq!(y.data(), &[5.0, 5.0, 5.0, 5.0, -3.0, -3.0, -3.0, -3.0]);
    }

    #[test]
    fn conv_is_linear_in_input() {
        let mut rng = crate::Rng::new(2);
        let x1 = Tensor::randn([1, 2, 5, 5], &mut rng);
        let x2 = Tensor::randn([1, 2, 5, 5], &mut rng);
        let w = Tensor::randn([3, 2, 3, 3], &mut rng);
        let spec = Conv2dSpec::default();
        let y_sum = (&x1 + &x2).conv2d(&w, None, spec);
        let sum_y = &x1.conv2d(&w, None, spec) + &x2.conv2d(&w, None, spec);
        for (a, b) in y_sum.data().iter().zip(sum_y.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn input_grad_matches_finite_difference() {
        let mut rng = crate::Rng::new(3);
        let x = Tensor::randn([1, 1, 4, 4], &mut rng);
        let w = Tensor::randn([2, 1, 3, 3], &mut rng);
        let spec = Conv2dSpec::default();
        // Loss = sum(conv(x, w)); dL/dx via kernel.
        let gout = Tensor::ones([1, 2, 4, 4]);
        let gin = gout.conv2d_input_grad(&w, (4, 4), spec);
        let eps = 1e-2;
        for i in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num =
                (xp.conv2d(&w, None, spec).sum() - xm.conv2d(&w, None, spec).sum()) / (2.0 * eps);
            assert!(
                (gin.data()[i] - num).abs() < 1e-2,
                "elem {i}: {} vs {}",
                gin.data()[i],
                num
            );
        }
    }

    #[test]
    fn weight_grad_matches_finite_difference() {
        let mut rng = crate::Rng::new(4);
        let x = Tensor::randn([2, 1, 4, 4], &mut rng);
        let w = Tensor::randn([1, 1, 3, 3], &mut rng);
        let spec = Conv2dSpec::default();
        let gout = Tensor::ones([2, 1, 4, 4]);
        let gw = gout.conv2d_weight_grad(&x, 3, spec);
        let eps = 1e-2;
        for i in 0..9 {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num =
                (x.conv2d(&wp, None, spec).sum() - x.conv2d(&wm, None, spec).sum()) / (2.0 * eps);
            assert!(
                (gw.data()[i] - num).abs() < 2e-2,
                "elem {i}: {} vs {}",
                gw.data()[i],
                num
            );
        }
    }

    #[test]
    fn bias_grad_counts_positions() {
        let g = Tensor::ones([2, 3, 4, 4]);
        let gb = g.conv2d_bias_grad();
        assert_eq!(gb.shape().dims(), &[3]);
        assert_eq!(gb.data(), &[32.0, 32.0, 32.0]);
    }

    #[test]
    fn avg_pool_halves_and_averages() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let y = x.avg_pool2d(2);
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(y.item(), 2.5);
    }

    #[test]
    fn avg_pool_grad_distributes_uniformly() {
        let g = Tensor::from_vec(vec![4.0], [1, 1, 1, 1]);
        let gin = g.avg_pool2d_grad(2);
        assert_eq!(gin.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn max_pool_selects_maxima() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], [1, 1, 2, 2]);
        let (y, idx) = x.max_pool2d(2);
        assert_eq!(y.item(), 5.0);
        assert_eq!(idx, vec![1]);
    }

    #[test]
    fn max_pool_grad_routes_to_winner() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], [1, 1, 2, 2]);
        let (_, idx) = x.max_pool2d(2);
        let g = Tensor::from_vec(vec![7.0], [1, 1, 1, 1]);
        let gin = g.max_pool2d_grad(&idx, 4);
        assert_eq!(gin.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_ge_avg_pool() {
        let mut rng = crate::Rng::new(6);
        let x = Tensor::randn([2, 3, 4, 4], &mut rng);
        let (mx, _) = x.max_pool2d(2);
        let av = x.avg_pool2d(2);
        for (m, a) in mx.data().iter().zip(av.data()) {
            assert!(m >= a);
        }
    }

    #[test]
    fn parallel_conv_kernels_match_serial_bitwise() {
        // Shapes large enough to cross PAR_MIN_OPS so the 4-thread run
        // actually exercises the pool path.
        let mut rng = crate::Rng::new(99);
        let x = Tensor::randn([4, 3, 16, 16], &mut rng);
        let wt = Tensor::randn([16, 3, 3, 3], &mut rng);
        let b = Tensor::randn([16], &mut rng);
        let g = Tensor::randn([4, 16, 16, 16], &mut rng);
        let spec = Conv2dSpec::default();
        let run = |threads: usize| {
            deco_runtime::with_thread_count(threads, || {
                (
                    x.conv2d(&wt, Some(&b), spec),
                    g.conv2d_input_grad(&wt, (16, 16), spec),
                    g.conv2d_weight_grad(&x, 3, spec),
                )
            })
        };
        let (f1, i1, w1) = run(1);
        let (f4, i4, w4) = run(4);
        assert_eq!(f1.data(), f4.data());
        assert_eq!(i1.data(), i4.data());
        assert_eq!(w1.data(), w4.data());
    }

    #[test]
    fn rectangular_and_strided_shapes_work() {
        // H ≠ W with stride 2 + padding: exercises the im2col/col2im
        // geometry handling.
        let mut rng = crate::Rng::new(41);
        let x = Tensor::randn([2, 3, 9, 5], &mut rng);
        let wt = Tensor::randn([4, 3, 3, 3], &mut rng);
        let spec = Conv2dSpec::new(3, 2, 1);
        let y = x.conv2d(&wt, None, spec);
        assert_eq!(y.shape().dims(), &[2, 4, 5, 3]);
        let gin = y.conv2d_input_grad(&wt, (9, 5), spec);
        assert_eq!(gin.shape().dims(), &[2, 3, 9, 5]);
        let gw = y.conv2d_weight_grad(&x, 3, spec);
        assert_eq!(gw.shape().dims(), &[4, 3, 3, 3]);
        // Adjoint identity <conv(x), g> == <x, conv_input_grad(g)> holds
        // for any geometry; use y itself as the output gradient.
        let lhs = y.dot(&y);
        let rhs = x.dot(&gin);
        assert!(
            (lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn avg_pool_then_grad_preserves_total() {
        let mut rng = crate::Rng::new(5);
        let g = Tensor::randn([1, 2, 3, 3], &mut rng);
        let gin = g.avg_pool2d_grad(2);
        assert!((gin.sum() - g.sum()).abs() < 1e-4);
        assert_eq!(gin.shape().dims(), &[1, 2, 6, 6]);
    }
}
