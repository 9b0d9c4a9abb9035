//! 2-D convolution and average pooling (NCHW layout), with explicit
//! gradient kernels used by the autograd layer.
//!
//! The three expensive kernels — forward, input gradient, and weight
//! gradient — are defined by each image's column matrix `cols`
//! (`[c_in·k·k, oh·ow]`, row `ci·k² + khi·k + kwi` holding the input
//! under that kernel tap for every output position): `out = W × cols`
//! forward (bias added in the GEMM writeback epilogue), `colsᵍ = Wᵀ × g`
//! then a col2im scatter-add for the input gradient, and
//! `gw += g × colsᵀ` for the weight gradient. None of them builds `cols`.
//!
//! The forward and the weight gradient are implicit GEMMs on the
//! cache-blocked core in `super::gemm`. Each image is copied once into
//! a zero-padded plane `[c_in, h+2p, w+2p]` in pooled scratch (`Plane`),
//! and `cols` element `(tap, position)` is the plane value at the sum of
//! a tap offset and a position offset, so the GEMM packs its `B` panels
//! (or runs its naive loop) straight from the plane (`PlaneCols`). The
//! weight is packed once per call.
//!
//! The input gradient is a sweep over kernel taps (`input_grad_image`):
//! register tiles form each tap's sums `Σ_co w·g` straight from the
//! output gradient and the weight, and each input cell adds its taps'
//! sums in the order the GEMM + col2im route gave them.
//!
//! Nothing per batch outlives a call, so a convolution on the autograd
//! tape keeps only its input for the weight gradient. The routes these
//! replaced — im2col into a column matrix, then `gemm_into` and, for the
//! forward, a bias pass; `Wᵀ × g` into a column matrix, then col2im —
//! live on as `#[cfg(test)]` references held to the kernels bit for bit.
//!
//! Serial execution runs one kernel call over the full range; large
//! problems fan the same kernel out across the `deco-runtime` pool with
//! shape-derived chunk boundaries. Per-image results are independent
//! (the weight gradient folds shape-derived per-chunk partials in chunk
//! order, serial and parallel alike), so results are bitwise identical
//! at any `DECO_THREADS`. All outputs and scratch come from the
//! thread-local [`crate::pool`].

use std::ops::Range;

use super::gemm::{self, MatRef, PanelSource, PreparedA, NR};
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

/// The output positions `o ∈ lo..hi` (of `out`) whose input coordinate
/// `o·s + tap − p` falls inside `0..side`, for kernel tap `tap` along one
/// axis: the tap reads padding everywhere outside the run. Empty when the
/// tap never lands inside the image.
fn in_range(tap: usize, side: usize, out: usize, s: usize, p: usize) -> Range<usize> {
    let lo = p.saturating_sub(tap).div_ceil(s).min(out);
    let hi = (side + p).saturating_sub(tap).div_ceil(s).clamp(lo, out);
    lo..hi
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
    /// Panics if the kernel or stride is 0, or the kernel does not fit in
    /// the padded input.
    pub fn out_side(&self, n: usize) -> usize {
        self.validate();
        let padded = n + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {}",
            self.kernel,
            padded
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// Asserts a usable geometry: kernel side and stride at least 1.
    fn validate(&self) {
        assert!(self.kernel >= 1, "conv kernel side must be at least 1");
        assert!(self.stride >= 1, "conv stride must be at least 1");
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

/// Plane offsets along one axis of a column matrix, the axis index seen
/// as an odometer `(outer, mid, inner)` with one stride per digit. Taps
/// `(ci, khi, kwi)` step by `(ph·pw, pw, 1)`; output positions
/// `(ohi, owi)` by `(s·pw, s)` under a single outer digit.
#[derive(Clone, Copy)]
struct Walk {
    /// Index count along the axis.
    len: usize,
    /// Digit counts of the mid and inner digits.
    mid: usize,
    inner: usize,
    /// Outer, mid and inner strides.
    stride: [usize; 3],
}

impl Walk {
    /// The digits `(outer, mid, inner)` of index `i`.
    fn digits(self, i: usize) -> (usize, usize, usize) {
        if i == 0 {
            return (0, 0, 0);
        }
        let outer = i / (self.mid * self.inner);
        let rest = i - outer * self.mid * self.inner;
        let mid = rest / self.inner;
        (outer, mid, rest - mid * self.inner)
    }

    /// The offset of index `i`.
    fn at(self, i: usize) -> usize {
        let (outer, mid, inner) = self.digits(i);
        outer * self.stride[0] + mid * self.stride[1] + inner * self.stride[2]
    }

    /// Indices `from..from + count` as runs along the inner digit:
    /// `(first offset, length)`, each run's offsets stepping by the inner
    /// stride.
    fn runs(self, from: usize, count: usize) -> impl Iterator<Item = (usize, usize)> {
        let (outer, mut mid, mut inner) = self.digits(from);
        let mut row = outer * self.stride[0] + mid * self.stride[1];
        let mut left = count;
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let len = (self.inner - inner).min(left);
            let run = (row + inner * self.stride[2], len);
            left -= len;
            inner += len;
            if inner == self.inner {
                inner = 0;
                mid += 1;
                row += self.stride[1];
                if mid == self.mid {
                    mid = 0;
                    row = row + self.stride[0] - self.mid * self.stride[1];
                }
            }
            Some(run)
        })
    }
}

/// One NCHW image copied into a zero-padded plane `[c_in, h+2p, w+2p]`
/// of pooled scratch. The padding is zeroed when the plane is taken and
/// never written; [`Plane::load`] overwrites only the interior.
///
/// Column-matrix element `(tap, position)` of the image is the plane
/// value at `tap_off + pos_off`: tap `(ci, khi, kwi)` sits at
/// `ci·ph·pw + khi·pw + kwi` and output position `(ohi, owi)` at
/// `ohi·s·pw + owi·s`.
struct Plane {
    buf: Vec<f32>,
    /// Unpadded image `(c_in, h, w)` and the padding.
    image: (usize, usize, usize),
    pad: usize,
    taps: Walk,
    positions: Walk,
}

impl Plane {
    /// A zeroed plane for `(c_in, h, w)` images under `spec`, whose
    /// output is `oh × ow`.
    fn new(
        (cin, h, w): (usize, usize, usize),
        (oh, ow): (usize, usize),
        spec: Conv2dSpec,
    ) -> Plane {
        let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
        let pw = w + 2 * p;
        let chan = (h + 2 * p) * pw;
        Plane {
            buf: pool::take(cin * chan),
            image: (cin, h, w),
            pad: p,
            taps: Walk {
                len: cin * k * k,
                mid: k,
                inner: k,
                stride: [chan, pw, 1],
            },
            positions: Walk {
                len: oh * ow,
                mid: oh,
                inner: ow,
                stride: [0, s * pw, s],
            },
        }
    }

    /// Copies image `x_img` (`c_in · h · w` floats) into the interior.
    fn load(&mut self, x_img: &[f32]) {
        let ((cin, h, w), p) = (self.image, self.pad);
        let (chan, pw) = (self.taps.stride[0], self.taps.stride[1]);
        for ci in 0..cin {
            for y in 0..h {
                let at = ci * chan + (y + p) * pw + p;
                self.buf[at..at + w].copy_from_slice(&x_img[(ci * h + y) * w..][..w]);
            }
        }
    }

    /// The image's column matrix `[c_in·k², oh·ow]`: the forward's `B`.
    fn cols(&self) -> PlaneCols<'_> {
        PlaneCols {
            plane: &self.buf,
            rows: self.taps,
            cols: self.positions,
        }
    }

    /// Its transpose `[oh·ow, c_in·k²]`: the weight gradient's `B`.
    fn cols_t(&self) -> PlaneCols<'_> {
        PlaneCols {
            plane: &self.buf,
            rows: self.positions,
            cols: self.taps,
        }
    }
}

impl Drop for Plane {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.buf));
    }
}

/// A column matrix (or its transpose) read from a [`Plane`]: element
/// `(r, c)` is the plane value at `rows.at(r) + cols.at(c)`.
#[derive(Clone, Copy)]
struct PlaneCols<'a> {
    plane: &'a [f32],
    rows: Walk,
    cols: Walk,
}

impl PanelSource for PlaneCols<'_> {
    fn rows(&self) -> usize {
        self.rows.len
    }

    fn cols(&self) -> usize {
        self.cols.len
    }

    /// Gathers the panel from the plane: row `d`, lane `l` is the plane
    /// value at the row's offset plus the lane's, walked run by run along
    /// the depth axis. A row whose lanes are `NR` consecutive plane
    /// values (in the forward: one output row at stride 1) is one
    /// fixed-size `[f32; NR]` copy. A run whose rows are consecutive
    /// values for every lane (in the weight gradient: one output row at
    /// stride 1) reads `NR` contiguous slices and writes whole rows,
    /// which ran the weight gradient ≈1.6× faster than the lane-by-lane
    /// loop that takes everything else.
    fn pack_panel(&self, dst: &mut [f32], k0: usize, kc: usize, c0: usize) {
        let lanes = NR.min(self.cols.len - c0);
        let mut lane_off = [0usize; NR];
        let mut l = 0;
        for (start, len) in self.cols.runs(c0, lanes) {
            for t in 0..len {
                lane_off[l] = start + t * self.cols.stride[2];
                l += 1;
            }
        }
        let one_row = lanes == NR && lane_off.windows(2).all(|p| p[1] == p[0] + 1);
        let (rows, _) = dst[..kc * NR].as_chunks_mut::<NR>();
        let step = self.rows.stride[2];
        let mut r = 0;
        for (start, len) in self.rows.runs(k0, kc) {
            let block = &mut rows[r..r + len];
            r += len;
            if one_row {
                for (i, row) in block.iter_mut().enumerate() {
                    *row = *self.plane[start + i * step + lane_off[0]..]
                        .first_chunk()
                        .expect("panel row inside the plane");
                }
            } else if step == 1 && lanes == NR {
                let src: [&[f32]; NR] =
                    std::array::from_fn(|l| &self.plane[start + lane_off[l]..][..len]);
                for (i, row) in block.iter_mut().enumerate() {
                    *row = std::array::from_fn(|l| src[l][i]);
                }
            } else {
                for (l, &off) in lane_off[..lanes].iter().enumerate() {
                    let src = &self.plane[start + off..][..(len - 1) * step + 1];
                    for (row, &v) in block.iter_mut().zip(src.iter().step_by(step)) {
                        row[l] = v;
                    }
                }
                for row in block.iter_mut() {
                    row[lanes..].fill(0.0);
                }
            }
        }
    }

    fn axpy_row(&self, c_row: &mut [f32], a: f32, p: usize) {
        let (d, step) = (self.rows.at(p), self.cols.stride[2]);
        let mut j = 0;
        for (start, len) in self.cols.runs(0, self.cols.len) {
            let src = self.plane[d + start..].iter().step_by(step);
            for (slot, &v) in c_row[j..j + len].iter_mut().zip(src) {
                *slot += a * v;
            }
            j += len;
        }
    }
}

/// Taps of one kernel row whose sums the input gradient forms together:
/// they read the same output-gradient values, so a 3×3 kernel's row is
/// three independent accumulator chains per lane.
const TAPS: usize = 3;
/// Lanes per input-gradient register tile: two 8-lane vectors.
const LANES: usize = 16;

/// The geometry one input-gradient image sweep needs.
#[derive(Clone, Copy)]
struct InputGrad {
    /// Input image `(c_in, h, w)` and output `(oh, ow)`.
    image: (usize, usize, usize),
    out: (usize, usize),
    cout: usize,
    /// Output channels per partial sum (see [`input_grad_depth`]).
    depth: usize,
    spec: Conv2dSpec,
}

impl InputGrad {
    /// Whether output rows have the input's length and stride (stride 1,
    /// `k = 2p + 1`): then every tap moves all output positions to input
    /// cells by one offset.
    fn same_stride(&self) -> bool {
        self.spec.stride == 1 && self.out == (self.image.1, self.image.2)
    }

    /// Zeroed floats on each side of a strip row's output plane for a
    /// same-stride geometry: room for every lane of [`add_strip_rows`]'
    /// `LANES`-wide loads whose tap row falls above or below the output.
    /// The runs of other geometries read no guard.
    fn guard(&self) -> usize {
        if self.same_stride() {
            self.spec.padding * (self.image.2 + 1)
        } else {
            0
        }
    }

    /// Floats per strip row: the output plane and its two guards.
    fn strip_row(&self) -> usize {
        self.out.0 * self.out.1 + 2 * self.guard()
    }

    /// Cells after which the columns of a `LANES`-cell block repeat, for
    /// a same-stride geometry: `lcm(w, LANES)`.
    fn mask_period(&self) -> usize {
        let w = self.image.2;
        (w >> w.trailing_zeros().min(LANES.trailing_zeros())).max(1) * LANES
    }
}

/// The output channels each tap sum folds at a time, so the sums keep the
/// order of the `[c_in·k², c_out] × [c_out, oh·ow]` GEMM the input
/// gradient used to run: one chain from `0.0` over every channel, except
/// that the packed kernel sums `KC`-deep slabs separately and adds each
/// slab's partial into the output in slab order.
fn input_grad_depth(ckk: usize, cout: usize, ohw: usize) -> usize {
    let depth = if gemm::use_packed(ckk, cout, ohw) {
        gemm::KC
    } else {
        cout
    };
    depth.max(1)
}

/// Fills `masks` (`k · period` floats, see [`InputGrad::mask_period`])
/// for a same-stride geometry: entry `kwi·period + i` has every bit set
/// when kernel column `kwi` reaches input column `i mod w` from an output
/// position, and none when it reads padding there.
fn column_masks(masks: &mut [f32], geom: InputGrad) {
    let w = geom.image.2;
    let p = geom.spec.padding;
    for (kwi, row) in masks.chunks_exact_mut(geom.mask_period()).enumerate() {
        for (i, m) in row.iter_mut().enumerate() {
            let on = (kwi..kwi + w).contains(&(i % w + p));
            *m = f32::from_bits(if on { u32::MAX } else { 0 });
        }
    }
}

/// Adds one image's input gradient into `dst` (`[c_in, h, w]`, zeroed by
/// the caller) from its output gradient `g` (`[c_out, oh·ow]`) and the
/// weight `w` (`[c_out, c_in·k²]`).
///
/// Input cell `(ci, y, x)` gets, in ascending `(khi, kwi)` order, the
/// sum of every tap that reaches it from an output position `(ohi, owi)`
/// with `ohi·s + khi − p = y` and `owi·s + kwi − p = x`, a tap's sum
/// being `Σ_co w[co][ci, khi, kwi] · g[co, ohi, owi]` folded in
/// [`input_grad_depth`]'s order. Those are exactly the additions, in
/// exactly the order, of the column-matrix GEMM followed by the col2im
/// scatter-add this kernel replaced, so every bit is kept.
///
/// For each input channel, [`fill_strip`] forms the `k²` tap sums over
/// the output rows that land in the image, one strip row per tap; then
/// they are added into the channel, `LANES` cells at a time under the
/// column `masks` for a same-stride geometry ([`add_strip_rows`]), run by
/// run along [`in_range`] otherwise.
fn input_grad_image(
    dst: &mut [f32],
    g: &[f32],
    w: &[f32],
    strip: &mut [f32],
    masks: &[f32],
    geom: InputGrad,
) {
    let (cin, h, wd) = geom.image;
    let (oh, ow) = geom.out;
    let (k, s, p) = (geom.spec.kernel, geom.spec.stride, geom.spec.padding);
    let (guard, row_len) = (geom.guard(), geom.strip_row());
    for ci in 0..cin {
        for khi in 0..k {
            let rows = in_range(khi, h, oh, s, p);
            let strip_k = &mut strip[khi * k * row_len..(khi + 1) * k * row_len];
            fill_strip(
                strip_k,
                g,
                w,
                (ci * k + khi) * k,
                rows.start * ow..rows.end * ow,
                geom,
            );
        }
        let d_ch = &mut dst[ci * h * wd..(ci + 1) * h * wd];
        if geom.same_stride() {
            add_strip_rows(d_ch, strip, masks, geom);
            continue;
        }
        for khi in 0..k {
            let rows = in_range(khi, h, oh, s, p);
            for kwi in 0..k {
                let run = in_range(kwi, wd, ow, s, p);
                if run.is_empty() {
                    continue;
                }
                let first = run.start * s + kwi - p;
                for ohi in rows.clone() {
                    let d_row = &mut d_ch[(ohi * s + khi - p) * wd..][..wd];
                    let src = &strip[(khi * k + kwi) * row_len + guard + ohi * ow..][..ow];
                    for (d, &v) in d_row[first..].iter_mut().step_by(s).zip(&src[run.clone()]) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Writes one channel of a same-stride geometry from its strip. Tap
/// `(khi, kwi)` reaches cell `c` from output position `c + p·(w + 1) −
/// khi·w − kwi`, so each block of `LANES` cells sums, from `0.0` and tap
/// by tap, one `LANES`-wide load per strip row with the tap's column
/// mask applied. Where a tap's row falls above or below the output, the
/// lane reads a zeroed guard; where its column falls outside, the lane
/// reads the end of a neighbouring row (formed or not), which the mask
/// drops whole, so a NaN or infinity there never reaches a cell. Either
/// way the lane adds `+0.0`, which leaves the sum unchanged (it starts at
/// `+0.0` and only adds, so it is never `−0.0`).
fn add_strip_rows(d_ch: &mut [f32], strip: &[f32], masks: &[f32], geom: InputGrad) {
    let (_, h, w) = geom.image;
    let (k, p) = (geom.spec.kernel, geom.spec.padding);
    let (hw, guard, row_len) = (h * w, geom.guard(), geom.strip_row());
    let period = geom.mask_period();
    // Cell `c` reads strip row `t = khi·k + kwi` at `c + shift[t]`, where
    // `shift[t] = guard + p·(w + 1) − khi·w − kwi`, and mask row `kwi` at
    // `col = c mod period` (a whole block, as `period` is a multiple of
    // `LANES`).
    let shift = |khi: usize, kwi: usize| guard + p * (w + 1) - khi * w - kwi;
    let (blocks, tail) = d_ch.as_chunks_mut::<LANES>();
    let mut col = 0;
    for (b, d) in blocks.iter_mut().enumerate() {
        let c = b * LANES;
        let mut acc = [0.0f32; LANES];
        let mut t = 0;
        for khi in 0..k {
            for kwi in 0..k {
                let src: &[f32; LANES] = strip[t * row_len + shift(khi, kwi) + c..]
                    .first_chunk()
                    .expect("block inside the strip");
                let mask: &[f32; LANES] = masks[kwi * period + col..]
                    .first_chunk()
                    .expect("block inside the masks");
                add_masked(&mut acc, src, mask);
                t += 1;
            }
        }
        *d = acc;
        col += LANES;
        if col == period {
            col = 0;
        }
    }
    let c = hw - tail.len();
    tail.fill(0.0);
    for khi in 0..k {
        for kwi in 0..k {
            let t = khi * k + kwi;
            let src = &strip[t * row_len + shift(khi, kwi) + c..];
            add_masked(tail, src, &masks[kwi * period + col..]);
        }
    }
}

/// `d[l] += src[l]` where `mask[l]` has every bit set, `d[l] += +0.0`
/// where it has none.
#[inline(always)]
fn add_masked(d: &mut [f32], src: &[f32], mask: &[f32]) {
    for ((d, &v), &m) in d.iter_mut().zip(src).zip(mask) {
        *d += f32::from_bits(v.to_bits() & m.to_bits());
    }
}

/// Writes the sums of taps `tap..tap + k` (one kernel row) at the output
/// positions `positions` into `strip`, whose row `j` holds tap `tap + j`
/// after a [`InputGrad::guard`]. Runs `TAPS × LANES` register tiles
/// wherever `LANES` positions fit in the output (a tile may start before
/// `positions` or run past its end; those sums are never read unmasked),
/// and `1 × 1` tiles past the last whole one. Guards are never written.
fn fill_strip(
    strip: &mut [f32],
    g: &[f32],
    w: &[f32],
    tap: usize,
    positions: Range<usize>,
    geom: InputGrad,
) {
    let ohw = geom.out.0 * geom.out.1;
    let k = geom.spec.kernel;
    let (guard, row_len) = (geom.guard(), geom.strip_row());
    let src = TapSource {
        g,
        w,
        ckk: geom.image.0 * k * k,
        geom,
    };
    let mut pos = positions.start / LANES * LANES;
    while pos < positions.end {
        if pos + LANES > ohw {
            for q in pos..positions.end {
                for j in 0..k {
                    strip[j * row_len + guard + q] = tap_tile::<1, 1>(src, tap + j, q)[0][0];
                }
            }
            break;
        }
        let mut j = 0;
        while j < k {
            let (at, t) = (j * row_len + guard + pos, tap + j);
            match k - j {
                1 => store_tile(strip, at, row_len, tap_tile::<1, LANES>(src, t, pos)),
                2 => store_tile(strip, at, row_len, tap_tile::<2, LANES>(src, t, pos)),
                _ => store_tile(strip, at, row_len, tap_tile::<TAPS, LANES>(src, t, pos)),
            }
            j += TAPS.min(k - j);
        }
        pos += LANES;
    }
}

/// Copies a register tile's rows into the strip at `at`, `row_len` apart.
#[inline(always)]
fn store_tile<const TB: usize>(
    strip: &mut [f32],
    at: usize,
    row_len: usize,
    tile: [[f32; LANES]; TB],
) {
    for (t, sums) in tile.iter().enumerate() {
        strip[at + t * row_len..][..LANES].copy_from_slice(sums);
    }
}

/// What the tap sums read: one image's output gradient, the weight and
/// its row length `c_in·k²`, and the geometry.
#[derive(Clone, Copy)]
struct TapSource<'a> {
    g: &'a [f32],
    w: &'a [f32],
    ckk: usize,
    geom: InputGrad,
}

/// The sums of taps `tap..tap + TB` at output positions `pos..pos + L`:
/// per tap and lane, a chain from `0.0` over the output channels in
/// ascending order (`acc += w·g`, the GEMM microkernel's step), folded
/// `depth` channels at a time. The taps share each channel's gradient
/// load, and their chains run side by side.
#[inline(always)]
fn tap_tile<const TB: usize, const L: usize>(
    src: TapSource<'_>,
    tap: usize,
    pos: usize,
) -> [[f32; L]; TB] {
    let ohw = src.geom.out.0 * src.geom.out.1;
    let chain = |cos: Range<usize>| {
        let mut acc = [[0.0f32; L]; TB];
        for co in cos {
            let gv: &[f32; L] = src.g[co * ohw + pos..]
                .first_chunk()
                .expect("tile inside the output gradient");
            let wv: &[f32; TB] = src.w[co * src.ckk + tap..]
                .first_chunk()
                .expect("taps inside the weight row");
            for (row, &wj) in acc.iter_mut().zip(wv) {
                for (slot, &gl) in row.iter_mut().zip(gv) {
                    *slot += wj * gl;
                }
            }
        }
        acc
    };
    let (cout, depth) = (src.geom.cout, src.geom.depth);
    let mut acc = chain(0..depth.min(cout));
    let mut c0 = depth;
    while c0 < cout {
        let part = chain(c0..(c0 + depth).min(cout));
        for (a, &v) in acc.iter_mut().flatten().zip(part.iter().flatten()) {
            *a += v;
        }
        c0 += depth;
    }
    acc
}

impl Tensor {
    /// 2-D convolution (cross-correlation) of an NCHW input with an
    /// `[c_out, c_in, k, k]` weight, plus an optional `[c_out]` bias.
    ///
    /// An implicit GEMM: `W` is packed once per call (per parallel
    /// chunk), and each image's `B` panels are read from a zero-padded
    /// copy of the image.
    ///
    /// # Panics
    /// Panics on rank/shape mismatches.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        assert_eq!(
            self.rank(),
            4,
            "conv2d input must be NCHW, got {}",
            self.shape()
        );
        assert_eq!(
            weight.rank(),
            4,
            "conv2d weight must be [co,ci,k,k], got {}",
            weight.shape()
        );
        let (n, cin, h, w) = dims4(self);
        let (cout, cin2, kh, kw) = dims4(weight);
        assert_eq!(
            cin, cin2,
            "conv2d channel mismatch: input {cin}, weight {cin2}"
        );
        check_weight_kernel("conv2d", (kh, kw), spec);
        if let Some(b) = bias {
            assert_eq!(
                b.numel(),
                cout,
                "bias length {} vs c_out {}",
                b.numel(),
                cout
            );
            deco_telemetry::counter!("tensor.fusion.conv_bias_epilogue");
        }
        let (oh, ow) = (spec.out_side(h), spec.out_side(w));
        deco_telemetry::counter!("tensor.ops.conv2d");
        let ohw = oh * ow;
        let ckk = cin * spec.kernel * spec.kernel;
        let img = cin * h * w;
        let macs_per_image = cout * ckk * ohw;
        let x = self.clone();
        let wt = weight.clone();
        let b = bias.cloned();
        let mut out = pool::take(n * cout * ohw);
        let _span = deco_telemetry::span!("tensor.gemm");
        run_blocks(n, macs_per_image, cout * ohw, &mut out, move |imgs, dst| {
            let wv = PreparedA::new(MatRef::new(wt.data(), cout, ckk), ohw);
            // The bias rides the GEMM writeback, added per finalized tile.
            let epi = match &b {
                Some(b) => gemm::Epilogue::Bias(b.data()),
                None => gemm::Epilogue::None,
            };
            let mut plane = Plane::new((cin, h, w), (oh, ow), spec);
            for (bi, ni) in imgs.enumerate() {
                plane.load(&x.data()[ni * img..(ni + 1) * img]);
                wv.gemm_epi(
                    &mut dst[bi * cout * ohw..(bi + 1) * cout * ohw],
                    &plane.cols(),
                    epi,
                );
            }
        });
        Tensor::from_pool_buf(out, [n, cout, oh, ow])
    }

    /// Gradient of [`Tensor::conv2d`] w.r.t. its input.
    ///
    /// `self` is the output gradient `[n, c_out, oh, ow]`. Swept one
    /// input channel and kernel row at a time (`input_grad_image`):
    /// no column matrix is built and nothing is packed per image.
    ///
    /// # Panics
    /// Panics unless `weight` is `[c_out, c_in, k, k]` with `k` the
    /// spec's kernel and `(oh, ow)` is the spec's output of `input_hw`.
    pub fn conv2d_input_grad(
        &self,
        weight: &Tensor,
        input_hw: (usize, usize),
        spec: Conv2dSpec,
    ) -> Tensor {
        let (n, cout, oh, ow) = dims4(self);
        let (cout2, cin, kh, kw) = dims4(weight);
        spec.validate();
        assert_eq!(
            cout, cout2,
            "conv2d_input_grad channel mismatch: gradient {cout}, weight {cout2}"
        );
        check_weight_kernel("conv2d_input_grad", (kh, kw), spec);
        let (h, w) = input_hw;
        check_out_side("conv2d_input_grad", (h, w), (oh, ow), spec);
        deco_telemetry::counter!("tensor.ops.conv2d_input_grad");
        let ohw = oh * ow;
        let ckk = cin * kh * kw;
        let geom = InputGrad {
            image: (cin, h, w),
            out: (oh, ow),
            cout,
            depth: input_grad_depth(ckk, cout, ohw),
            spec,
        };
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
                // Zeroed: a lane whose tap row falls outside the output
                // reads a guard, and guards are never written.
                let mut strip = pool::take(kw * kw * geom.strip_row());
                let mask_len = if geom.same_stride() {
                    kw * geom.mask_period()
                } else {
                    0
                };
                // Scratch: `column_masks` writes every mask.
                let mut masks = pool::take_scratch(mask_len);
                column_masks(&mut masks, geom);
                for (bi, ni) in imgs.enumerate() {
                    input_grad_image(
                        &mut dst[bi * cin * h * w..(bi + 1) * cin * h * w],
                        &g.data()[ni * cout * ohw..(ni + 1) * cout * ohw],
                        wt.data(),
                        &mut strip,
                        &masks,
                        geom,
                    );
                }
                pool::give(masks);
                pool::give(strip);
            },
        );
        Tensor::from_pool_buf(gin, [n, cin, h, w])
    }

    /// Gradient of [`Tensor::conv2d`] w.r.t. its weight.
    ///
    /// `self` is the output gradient; `input` the forward input. An
    /// implicit GEMM like the forward: each image's `colsᵀ` panels are
    /// read from a zero-padded copy of the image.
    ///
    /// # Panics
    /// Panics unless `kernel` is the spec's kernel, the batches match
    /// and `(oh, ow)` is the spec's output of the input's `(h, w)`.
    pub fn conv2d_weight_grad(&self, input: &Tensor, kernel: usize, spec: Conv2dSpec) -> Tensor {
        let (n, cout, oh, ow) = dims4(self);
        let (n2, cin, h, w) = dims4(input);
        spec.validate();
        assert_eq!(
            n, n2,
            "conv2d_weight_grad batch mismatch: gradient {n}, input {n2}"
        );
        assert_eq!(
            kernel, spec.kernel,
            "conv2d_weight_grad: kernel {kernel} vs spec {}",
            spec.kernel
        );
        check_out_side("conv2d_weight_grad", (h, w), (oh, ow), spec);
        deco_telemetry::counter!("tensor.ops.conv2d_weight_grad");
        let k = kernel;
        let ohw = oh * ow;
        let ckk = cin * k * k;
        let img = cin * h * w;
        let macs_per_image = cout * ckk * ohw;
        let g = self.clone();
        let x = input.clone();
        let mut gw = pool::take(cout * ckk);
        let _span = deco_telemetry::span!("tensor.gemm");
        // Accumulates `g_i × cols_iᵀ` over an image range into `dst`
        // (image order within the range).
        let kernel_fn = move |imgs: Range<usize>, dst: &mut [f32]| {
            let mut plane = Plane::new((cin, h, w), (oh, ow), spec);
            for ni in imgs {
                plane.load(&x.data()[ni * img..(ni + 1) * img]);
                let g_img = &g.data()[ni * cout * ohw..(ni + 1) * cout * ohw];
                PreparedA::new(MatRef::new(g_img, cout, ohw), ckk).gemm_epi(
                    dst,
                    &plane.cols_t(),
                    gemm::Epilogue::None,
                );
            }
        };
        // The batch sum is not per-image independent, so serial and
        // parallel execution share one reduction structure: shape-
        // derived image chunks, each accumulated into a zeroed
        // partial, folded into `gw` in chunk order.
        let ipc = (PAR_CHUNK_OPS / macs_per_image.max(1)).clamp(1, n.max(1));
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
}

/// Asserts that a `[c_out, c_in, kh, kw]` weight's kernel is the spec's.
fn check_weight_kernel(op: &str, (kh, kw): (usize, usize), spec: Conv2dSpec) {
    assert!(
        kh == spec.kernel && kw == spec.kernel,
        "{op}: weight kernel {kh}x{kw} vs spec {}",
        spec.kernel
    );
}

/// Asserts that an `oh × ow` output gradient is what `spec` makes of an
/// `h × w` input.
fn check_out_side(op: &str, (h, w): (usize, usize), (oh, ow): (usize, usize), spec: Conv2dSpec) {
    let want = (spec.out_side(h), spec.out_side(w));
    assert!(
        want == (oh, ow),
        "{op}: gradient {oh}x{ow} vs output {}x{} of a {h}x{w} input",
        want.0,
        want.1
    );
}

impl Tensor {
    /// Gradient of [`Tensor::conv2d`] w.r.t. its bias: sum over batch and
    /// spatial axes of the output gradient.
    ///
    /// Bitwise identical to `self.sum_axes(&[0, 2, 3], false)`: each
    /// channel starts at `0.0` and accumulates its elements in ascending
    /// source order (image, then spatial position).
    pub fn conv2d_bias_grad(&self) -> Tensor {
        let (n, cout, oh, ow) = dims4(self);
        let ohw = oh * ow;
        let g = self.data();
        let mut gb = pool::take(cout);
        for ni in 0..n {
            for (ci, acc) in gb.iter_mut().enumerate() {
                let base = (ni * cout + ci) * ohw;
                for &v in &g[base..base + ohw] {
                    *acc += v;
                }
            }
        }
        Tensor::from_pool_buf(gb, [cout])
    }

    /// Non-overlapping average pooling with a square `k × k` window.
    ///
    /// # Panics
    /// Panics unless the input is rank 4, `k ≥ 1` and H, W are divisible
    /// by `k`.
    pub fn avg_pool2d(&self, k: usize) -> Tensor {
        assert_eq!(self.rank(), 4, "avg_pool2d input must be NCHW");
        let (n, c, h, w) = dims4(self);
        check_pool_window(k, h, w);
        // Scratch: every output element is written.
        let mut out = pool::take_scratch(n * c * (h / k) * (w / k));
        pool_rows(&mut out, self.data(), (k, w / k));
        Tensor::from_pool_buf(out, [n, c, h / k, w / k])
    }

    /// Gradient of [`Tensor::avg_pool2d`]: spreads each output gradient
    /// uniformly over its window. `self` is the output gradient.
    ///
    /// The windows tile the input, so each input cell gets exactly one
    /// contribution, assigned as `0.0 + g·(1/k²)` (the `+ 0.0` of
    /// accumulating into a zeroed buffer, which turns `-0.0` into `+0.0`).
    ///
    /// # Panics
    /// Panics unless `self` is rank 4 and `k ≥ 1`.
    pub fn avg_pool2d_grad(&self, k: usize) -> Tensor {
        let (n, c, oh, ow) = dims4(self);
        assert!(k >= 1, "pool window must be at least 1");
        // Scratch: the windows tile the input, so every cell is written.
        let mut gin = pool::take_scratch(n * c * oh * k * ow * k);
        pool_grad_rows(&mut gin, self.data(), (k, ow));
        Tensor::from_pool_buf(gin, [n, c, oh * k, ow * k])
    }
}

/// Outputs per pooling block: one 8-lane vector.
const POOL_LANES: usize = 8;

/// The average-pooling forward of [`Tensor::avg_pool2d`] over whole
/// rows: output `(r, o)` of the `ow`-wide output rows sums its `k × k`
/// window from `0.0` in ascending `(dy, dx)` order, then scales by
/// `1/k²`.
///
/// Each row runs in blocks of [`POOL_LANES`] outputs that take every
/// `(dy, dx)` step together, so a step is one vector add; the outputs
/// past the last whole block (all of them in rows shorter than a block)
/// sum their windows one at a time in the same order. A `k = 2` window
/// runs as a compile-time stride, which the compiler turns into vector
/// loads and shuffles.
fn pool_rows(out: &mut [f32], x: &[f32], (k, ow): (usize, usize)) {
    match k {
        2 => pool_rows_k::<2>(out, x, (k, ow)),
        _ => pool_rows_k::<0>(out, x, (k, ow)),
    }
}

/// [`pool_rows`] for window `K`, or for the run-time `k` when `K` is 0.
#[inline(always)]
fn pool_rows_k<const K: usize>(out: &mut [f32], x: &[f32], (k, ow): (usize, usize)) {
    let k = if K == 0 { k } else { K };
    let inv = 1.0 / (k * k) as f32;
    let w = ow * k;
    for (o_row, x_rows) in out
        .chunks_exact_mut(ow.max(1))
        .zip(x.chunks_exact((k * w).max(1)))
    {
        let (blocks, tail) = o_row.as_chunks_mut::<POOL_LANES>();
        for (b, o) in blocks.iter_mut().enumerate() {
            let mut acc = [0.0f32; POOL_LANES];
            for dy in 0..k {
                let xs = &x_rows[dy * w + b * POOL_LANES * k..][..POOL_LANES * k];
                for dx in 0..k {
                    for (l, a) in acc.iter_mut().enumerate() {
                        *a += xs[l * k + dx];
                    }
                }
            }
            *o = acc.map(|a| a * inv);
        }
        let o0 = ow - tail.len();
        for (l, o) in tail.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for dy in 0..k {
                for &v in &x_rows[dy * w + (o0 + l) * k..][..k] {
                    acc += v;
                }
            }
            *o = acc * inv;
        }
    }
}

/// The average-pooling backward of [`Tensor::avg_pool2d_grad`] over
/// whole rows: every cell of the window of output gradient `g[r, o]` is
/// `0.0 + g[r, o]·(1/k²)`. Blocks and the `k = 2` stride as in
/// [`pool_rows`].
fn pool_grad_rows(gin: &mut [f32], g: &[f32], (k, ow): (usize, usize)) {
    match k {
        2 => pool_grad_rows_k::<2>(gin, g, (k, ow)),
        _ => pool_grad_rows_k::<0>(gin, g, (k, ow)),
    }
}

/// [`pool_grad_rows`] for window `K`, or for the run-time `k` when `K`
/// is 0.
#[inline(always)]
fn pool_grad_rows_k<const K: usize>(gin: &mut [f32], g: &[f32], (k, ow): (usize, usize)) {
    let k = if K == 0 { k } else { K };
    let inv = 1.0 / (k * k) as f32;
    let w = ow * k;
    for (r, g_row) in g.chunks_exact(ow.max(1)).enumerate() {
        let (blocks, tail) = g_row.as_chunks::<POOL_LANES>();
        for dy in 0..k {
            let row = (r * k + dy) * w;
            for (b, gs) in blocks.iter().enumerate() {
                spread(gin, gs, row + b * POOL_LANES * k, (k, inv));
            }
            spread(gin, tail, row + (ow - tail.len()) * k, (k, inv));
        }
    }
}

/// Writes `0.0 + g·inv` over the `k`-wide windows of the consecutive
/// output gradients `gs` in input row segment `at..`. Forced inline, so
/// a whole block's `gs` has a compile-time length.
#[inline(always)]
fn spread(gin: &mut [f32], gs: &[f32], at: usize, (k, inv): (usize, f32)) {
    let d = &mut gin[at..at + gs.len() * k];
    for (l, &gv) in gs.iter().enumerate() {
        for dx in 0..k {
            d[l * k + dx] = 0.0f32 + gv * inv;
        }
    }
}

/// Asserts a `k × k` pooling window is at least 1 wide and tiles an
/// `h × w` input.
fn check_pool_window(k: usize, h: usize, w: usize) {
    assert!(k >= 1, "pool window must be at least 1");
    assert!(
        h.is_multiple_of(k) && w.is_multiple_of(k),
        "pool window {k} must divide {h}x{w}"
    );
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

    use crate::ops::testutil::{assert_bits_eq, pool_operand, specials, POOL_SHAPES};

    /// `(c_in, h, w)` images and conv geometries the ConvNet never runs:
    /// stride 2, padding 0 and 2 (also padding ≥ kernel, where whole rows
    /// and columns are padding), kernels 1 and 5, H ≠ W and 1×1 images.
    fn odd_geometries() -> Vec<((usize, usize, usize), Conv2dSpec)> {
        let mut cases = Vec::new();
        for (cin, h, w) in [(3, 16, 16), (2, 7, 5), (1, 1, 1), (2, 3, 8), (1, 2, 9)] {
            for (k, s, p) in [
                (3, 1, 1),
                (3, 2, 1),
                (3, 1, 0),
                (3, 2, 2),
                (1, 1, 0),
                (1, 2, 2),
                (1, 1, 3),
                (5, 1, 2),
                (5, 2, 2),
                (5, 3, 4),
                (2, 1, 2),
                (2, 2, 0),
            ] {
                if h + 2 * p >= k && w + 2 * p >= k {
                    cases.push(((cin, h, w), Conv2dSpec::new(k, s, p)));
                }
            }
        }
        cases
    }

    /// `(n, c_in, c_out, h, w, spec)` cases that put the implicit GEMM
    /// on both sides of each of its branches, plus every odd geometry.
    fn implicit_gemm_cases() -> Vec<(usize, usize, usize, usize, usize, Conv2dSpec)> {
        let k3 = Conv2dSpec::default();
        let mut cases = vec![
            // The golden micro-pipelines' convs: the naive loop, forward
            // and weight gradient.
            (3, 1, 4, 8, 8, k3),
            (3, 4, 4, 4, 4, k3),
            // c_in·k² = 288 > KC: two forward slabs.
            (2, 32, 8, 6, 6, k3),
            // oh·ow = 289 > KC: two weight-gradient slabs, with five and
            // (in parallel) twelve images per chunk.
            (5, 1, 2, 17, 17, k3),
            (30, 1, 2, 17, 17, k3),
            // c_out 1 (the naive loop) and 12 (a partial A panel).
            (2, 3, 1, 16, 16, k3),
            (2, 3, 12, 16, 16, k3),
            // ow 3, 4 and 5: panels span output rows.
            (2, 3, 8, 3, 3, k3),
            (2, 8, 8, 4, 4, k3),
            (2, 3, 8, 5, 5, k3),
            // The deco_stream layers.
            (3, 3, 8, 16, 16, k3),
            (3, 8, 8, 8, 8, k3),
            // k 9: weight-gradient panels whose eight taps are
            // consecutive plane values, at stride 1 and 2.
            (2, 2, 3, 12, 12, Conv2dSpec::new(9, 1, 4)),
            (2, 2, 3, 13, 11, Conv2dSpec::new(9, 2, 4)),
        ];
        for ((cin, h, w), spec) in odd_geometries() {
            cases.push((2, cin, 5, h, w, spec));
        }
        cases
    }

    /// A `shape` tensor from [`specials`] (±0.0 throughout); `hard` adds
    /// a NaN, `+inf` and `-inf`.
    fn conv_operand(shape: &[usize], hard: bool, rng: &mut crate::Rng) -> Tensor {
        let mut t = specials(shape, hard, rng);
        let v = t.data_mut();
        if hard && v.len() > 3 {
            let last = v.len() - 2;
            v[1] = f32::INFINITY;
            v[last] = f32::NEG_INFINITY;
        }
        t
    }

    #[test]
    fn implicit_gemm_matches_the_im2col_route_bitwise() {
        let mut rng = crate::Rng::new(73);
        for (n, cin, cout, h, w, spec) in implicit_gemm_cases() {
            let k = spec.kernel;
            let (oh, ow) = (spec.out_side(h), spec.out_side(w));
            for hard in [false, true] {
                let what = format!("{n}x{cin}x{h}x{w} -> {cout} {spec:?} hard {hard}");
                let x = conv_operand(&[n, cin, h, w], hard, &mut rng);
                let wt = conv_operand(&[cout, cin, k, k], hard, &mut rng);
                let g = conv_operand(&[n, cout, oh, ow], hard, &mut rng);
                let mut bias = Tensor::randn([cout], &mut rng);
                bias.data_mut()[0] = 0.0; // the epilogue's zero skip
                let fwd = reference::conv2d(&x, &wt, None, spec);
                let fwd_b = reference::conv2d(&x, &wt, Some(&bias), spec);
                let gw = reference::conv2d_weight_grad(&g, &x, spec);
                for threads in [1, 4] {
                    deco_runtime::with_thread_count(threads, || {
                        let at = format!("{what} at {threads} threads");
                        let got = x.conv2d(&wt, None, spec);
                        assert_bits_eq(got.data(), &fwd, &format!("conv2d {at}"));
                        let got = x.conv2d(&wt, Some(&bias), spec);
                        assert_bits_eq(got.data(), &fwd_b, &format!("conv2d bias {at}"));
                        let got = g.conv2d_weight_grad(&x, k, spec);
                        assert_bits_eq(got.data(), &gw, &format!("conv2d_weight_grad {at}"));
                    });
                }
            }
        }
    }

    /// `(n, c_in, c_out, h, w, spec)` cases for the input gradient: the
    /// implicit-GEMM cases (every odd geometry and the `deco_stream`
    /// layers 3→8 at 16×16 and 8→8 at 8×8 and 4×4 among them), plus
    /// c_out 300 > `KC`, once on the packed GEMM (which folds two slab
    /// partials) and once on the naive loop (one chain over all 300).
    fn input_grad_cases() -> Vec<(usize, usize, usize, usize, usize, Conv2dSpec)> {
        let mut cases = implicit_gemm_cases();
        cases.push((3, 8, 8, 4, 4, Conv2dSpec::default()));
        cases.push((2, 2, 300, 6, 6, Conv2dSpec::default()));
        cases.push((2, 1, 300, 5, 5, Conv2dSpec::new(1, 1, 0)));
        cases
    }

    #[test]
    fn input_grad_matches_the_gemm_col2im_route_bitwise() {
        let mut rng = crate::Rng::new(75);
        for (n, cin, cout, h, w, spec) in input_grad_cases() {
            let k = spec.kernel;
            let (oh, ow) = (spec.out_side(h), spec.out_side(w));
            for hard in [false, true] {
                let what = format!("{n}x{cout}x{oh}x{ow} -> {cin}x{h}x{w} {spec:?} hard {hard}");
                let wt = conv_operand(&[cout, cin, k, k], hard, &mut rng);
                let g = conv_operand(&[n, cout, oh, ow], hard, &mut rng);
                let want = reference::conv2d_input_grad(&g, &wt, (h, w), spec);
                for threads in [1, 4] {
                    deco_runtime::with_thread_count(threads, || {
                        let got = g.conv2d_input_grad(&wt, (h, w), spec);
                        let at = format!("conv2d_input_grad {what} at {threads} threads");
                        assert_bits_eq(got.data(), &want, &at);
                    });
                }
            }
        }
    }

    /// Parks four NaN-filled buffers of every power-of-two length up to
    /// `max_len` in this thread's pool, so a kernel that reads pooled
    /// scratch it never wrote picks a NaN up.
    fn poison_pool(max_len: usize) {
        let mut held = Vec::new();
        let mut len = 1;
        while len <= max_len {
            for _ in 0..4 {
                let mut buf = pool::take_scratch(len);
                buf.fill(f32::NAN);
                held.push(buf);
            }
            len *= 2;
        }
        for buf in held {
            pool::give(buf);
        }
    }

    /// The input gradient's lanes whose tap row falls outside the output
    /// read the strip's guards unmasked, so the strip must come zeroed
    /// from a pool whose buffers hold NaN.
    #[test]
    fn input_grad_reads_no_stale_scratch() {
        let mut rng = crate::Rng::new(77);
        for (n, cin, cout, h, w, spec) in [
            (2, 3, 8, 16, 16, Conv2dSpec::default()),
            (2, 2, 5, 7, 5, Conv2dSpec::new(5, 1, 2)),
            (2, 2, 5, 7, 5, Conv2dSpec::new(3, 2, 1)),
        ] {
            let k = spec.kernel;
            let (oh, ow) = (spec.out_side(h), spec.out_side(w));
            let wt = conv_operand(&[cout, cin, k, k], false, &mut rng);
            let g = conv_operand(&[n, cout, oh, ow], false, &mut rng);
            let want = reference::conv2d_input_grad(&g, &wt, (h, w), spec);
            deco_runtime::with_thread_count(1, || {
                poison_pool(1 << 16);
                let got = g.conv2d_input_grad(&wt, (h, w), spec);
                let what =
                    format!("conv2d_input_grad {n}x{cout}x{oh}x{ow} {spec:?} after NaN scratch");
                assert_bits_eq(got.data(), &want, &what);
            });
        }
    }

    #[test]
    fn avg_pool_matches_the_reference_loop_bitwise() {
        let mut rng = crate::Rng::new(76);
        for (n, c, oh, ow, k) in POOL_SHAPES {
            let what = format!("{n}x{c}x{oh}x{ow} k{k}");
            let x = pool_operand(&[n, c, oh * k, ow * k], &mut rng);
            let (got, want) = (x.avg_pool2d(k), reference::avg_pool2d(&x, k));
            assert_eq!(got.shape(), want.shape(), "{what}");
            assert_bits_eq(got.data(), want.data(), &format!("avg_pool2d {what}"));
        }
    }

    #[test]
    fn avg_pool_grad_matches_the_reference_loop_bitwise() {
        let mut rng = crate::Rng::new(72);
        for (n, c, oh, ow, k) in POOL_SHAPES {
            let what = format!("{n}x{c}x{oh}x{ow} k{k}");
            let g = pool_operand(&[n, c, oh, ow], &mut rng);
            let (got, want) = (g.avg_pool2d_grad(k), reference::avg_pool2d_grad(&g, k));
            assert_eq!(got.shape(), want.shape(), "{what}");
            assert_bits_eq(got.data(), want.data(), &format!("avg_pool2d_grad {what}"));
        }
    }

    #[test]
    #[should_panic(expected = "conv stride must be at least 1")]
    fn zero_stride_is_rejected() {
        Conv2dSpec::new(3, 0, 1).out_side(8);
    }

    #[test]
    #[should_panic(expected = "conv kernel side must be at least 1")]
    fn zero_kernel_is_rejected() {
        Conv2dSpec::new(0, 1, 1).out_side(8);
    }

    #[test]
    #[should_panic(expected = "conv stride must be at least 1")]
    fn zero_stride_input_grad_is_rejected() {
        let g = Tensor::zeros([1, 1, 2, 2]);
        g.conv2d_input_grad(
            &Tensor::zeros([1, 1, 1, 1]),
            (2, 2),
            Conv2dSpec::new(1, 0, 0),
        );
    }

    /// An output gradient of the default k3 s1 p1 spec over 8×8 inputs:
    /// `2×4×8×8`.
    fn probe() -> (Tensor, Conv2dSpec) {
        (Tensor::zeros([2, 4, 8, 8]), Conv2dSpec::default())
    }

    #[test]
    #[should_panic(expected = "conv2d_weight_grad: kernel 2 vs spec 3")]
    fn weight_grad_rejects_a_kernel_other_than_the_specs() {
        let (g, spec) = probe();
        g.conv2d_weight_grad(&Tensor::zeros([2, 3, 8, 8]), 2, spec);
    }

    #[test]
    #[should_panic(expected = "conv2d_weight_grad: gradient 8x8 vs output 10x10 of a 10x10 input")]
    fn weight_grad_rejects_an_input_of_another_size() {
        let (g, spec) = probe();
        g.conv2d_weight_grad(&Tensor::zeros([2, 3, 10, 10]), 3, spec);
    }

    #[test]
    #[should_panic(expected = "conv2d_input_grad: gradient 8x8 vs output 6x6 of a 6x6 input")]
    fn input_grad_rejects_a_smaller_input() {
        let (g, spec) = probe();
        g.conv2d_input_grad(&Tensor::zeros([4, 3, 3, 3]), (6, 6), spec);
    }

    #[test]
    #[should_panic(expected = "conv2d_input_grad: gradient 8x8 vs output 12x12 of a 12x12 input")]
    fn input_grad_rejects_a_larger_input() {
        let (g, spec) = probe();
        g.conv2d_input_grad(&Tensor::zeros([4, 3, 3, 3]), (12, 12), spec);
    }

    #[test]
    #[should_panic(expected = "conv2d_input_grad: weight kernel 5x5 vs spec 3")]
    fn input_grad_rejects_a_weight_kernel_other_than_the_specs() {
        let (g, spec) = probe();
        g.conv2d_input_grad(&Tensor::zeros([4, 3, 5, 5]), (8, 8), spec);
    }

    #[test]
    #[should_panic(expected = "conv2d_input_grad channel mismatch: gradient 4, weight 3")]
    fn input_grad_rejects_a_channel_mismatch() {
        let (g, spec) = probe();
        g.conv2d_input_grad(&Tensor::zeros([3, 3, 3, 3]), (8, 8), spec);
    }

    #[test]
    #[should_panic(expected = "pool window must be at least 1")]
    fn zero_avg_pool_window_is_rejected() {
        Tensor::zeros([1, 1, 2, 2]).avg_pool2d(0);
    }

    #[test]
    #[should_panic(expected = "pool window must be at least 1")]
    fn zero_avg_pool_grad_window_is_rejected() {
        Tensor::zeros([1, 1, 2, 2]).avg_pool2d_grad(0);
    }

    #[test]
    fn empty_batches_pass_through_every_kernel() {
        let x = Tensor::zeros([0, 2, 4, 4]);
        let w = Tensor::zeros([3, 2, 3, 3]);
        let spec = Conv2dSpec::default();
        let y = x.conv2d(&w, None, spec);
        assert_eq!(y.shape().dims(), &[0, 3, 4, 4]);
        assert_eq!(
            y.conv2d_input_grad(&w, (4, 4), spec).shape().dims(),
            &[0, 2, 4, 4]
        );
        assert_eq!(y.conv2d_weight_grad(&x, 3, spec).data(), &[0.0; 54]);
        assert_eq!(x.avg_pool2d(2).shape().dims(), &[0, 2, 2, 2]);
        assert_eq!(
            x.avg_pool2d(2).avg_pool2d_grad(2).shape().dims(),
            &[0, 2, 4, 4]
        );
    }

    /// The loops the row-run kernels replaced, kept verbatim as the
    /// references the rewritten kernels are held to bit for bit, and the
    /// im2col route the implicit GEMM replaced, which lowers through
    /// this module's `im2col`.
    mod reference {
        use super::super::{dims4, Conv2dSpec, PAR_CHUNK_OPS};
        use crate::ops::gemm::{self, MatRef};
        use crate::pool;
        use crate::tensor::Tensor;

        /// [`Tensor::conv2d`] before the implicit GEMM and the bias
        /// epilogue: each image lowered by [`im2col`] into a column matrix,
        /// `out_i = W × cols_i`, then the unfused bias pass (a zero bias
        /// entry adds nothing, so `-0.0` outputs stay `-0.0`).
        pub fn conv2d(x: &Tensor, w: &Tensor, b: Option<&Tensor>, spec: Conv2dSpec) -> Vec<f32> {
            let (n, cin, h, wd) = dims4(x);
            let cout = w.shape().dim(0);
            let (oh, ow) = (spec.out_side(h), spec.out_side(wd));
            let (ckk, ohw, img) = (cin * spec.kernel * spec.kernel, oh * ow, cin * h * wd);
            let mut out = vec![0.0; n * cout * ohw];
            let mut cols = vec![0.0; ckk * ohw];
            for ni in 0..n {
                let x_img = &x.data()[ni * img..(ni + 1) * img];
                im2col(&mut cols, x_img, (cin, h, wd), (oh, ow), spec);
                gemm::gemm_into(
                    &mut out[ni * cout * ohw..(ni + 1) * cout * ohw],
                    &MatRef::new(w.data(), cout, ckk),
                    &MatRef::new(&cols, ckk, ohw),
                );
            }
            if let Some(b) = b {
                for (row, &bv) in out.chunks_exact_mut(ohw).zip(b.data().iter().cycle()) {
                    if bv != 0.0 {
                        for v in row {
                            *v += bv;
                        }
                    }
                }
            }
            out
        }

        /// [`Tensor::conv2d_weight_grad`] as it was: per shape-derived
        /// image chunk, `partial += g_i × cols_iᵀ` from a zeroed partial,
        /// folded into `gw` in chunk order.
        pub fn conv2d_weight_grad(g: &Tensor, x: &Tensor, spec: Conv2dSpec) -> Vec<f32> {
            let (n, cout, oh, ow) = dims4(g);
            let (_, cin, h, w) = dims4(x);
            let (ckk, ohw, img) = (cin * spec.kernel * spec.kernel, oh * ow, cin * h * w);
            let ipc = (PAR_CHUNK_OPS / (cout * ckk * ohw).max(1)).clamp(1, n.max(1));
            let mut gw = vec![0.0f32; cout * ckk];
            let mut cols = vec![0.0; ckk * ohw];
            for start in (0..n).step_by(ipc) {
                let mut partial = vec![0.0f32; cout * ckk];
                for ni in start..(start + ipc).min(n) {
                    let x_img = &x.data()[ni * img..(ni + 1) * img];
                    im2col(&mut cols, x_img, (cin, h, w), (oh, ow), spec);
                    let cols_t = transpose(&cols, ckk, ohw);
                    gemm::gemm_into(
                        &mut partial,
                        &MatRef::new(&g.data()[ni * cout * ohw..(ni + 1) * cout * ohw], cout, ohw),
                        &MatRef::new(&cols_t, ohw, ckk),
                    );
                }
                for (d, s) in gw.iter_mut().zip(&partial) {
                    *d += s;
                }
            }
            gw
        }

        /// [`Tensor::conv2d_input_grad`] as it was: per image, a zeroed
        /// column matrix, `cols = Wᵀ × g_i`, then [`col2im_add`] into the
        /// zeroed image gradient.
        pub fn conv2d_input_grad(
            g: &Tensor,
            w: &Tensor,
            (h, wd): (usize, usize),
            spec: Conv2dSpec,
        ) -> Vec<f32> {
            let (n, cout, oh, ow) = dims4(g);
            let cin = w.shape().dim(1);
            let (ckk, ohw, img) = (cin * spec.kernel * spec.kernel, oh * ow, cin * h * wd);
            let w_t = transpose(w.data(), cout, ckk);
            let mut gin = vec![0.0f32; n * img];
            let mut cols = vec![0.0f32; ckk * ohw];
            for ni in 0..n {
                cols.fill(0.0);
                gemm::gemm_into(
                    &mut cols,
                    &MatRef::new(&w_t, ckk, cout),
                    &MatRef::new(&g.data()[ni * cout * ohw..(ni + 1) * cout * ohw], cout, ohw),
                );
                let dst = &mut gin[ni * img..(ni + 1) * img];
                col2im_add(dst, &cols, (cin, h, wd), (oh, ow), spec);
            }
            gin
        }

        /// The transpose of row-major `rows × cols` storage.
        fn transpose(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
            let mut t = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    t[c * rows + r] = data[r * cols + c];
                }
            }
            t
        }

        pub fn im2col(
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

        pub fn col2im_add(
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

        pub fn avg_pool2d(t: &Tensor, k: usize) -> Tensor {
            let (n, c, h, w) = dims4(t);
            let (oh, ow) = (h / k, w / k);
            let x = t.data();
            let inv = 1.0 / (k * k) as f32;
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

        pub fn avg_pool2d_grad(t: &Tensor, k: usize) -> Tensor {
            let (n, c, oh, ow) = dims4(t);
            let (h, w) = (oh * k, ow * k);
            let g = t.data();
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
        // H ≠ W with stride 2 + padding: exercises the padded-plane and
        // col2im geometry handling.
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
