//! Bitwise-preserving fused kernels for the ConvNet block hot path.
//!
//! Each kernel here collapses a chain of tape ops — `group-norm → relu`,
//! `relu → avg-pool`, `log-softmax → nll` — into a single pass (or a
//! fixed small number of passes) over the data, while replicating the
//! **exact per-element f32 operation and accumulation order** of the
//! unfused graph. That invariant is what makes fusion safe: a fused op
//! produces the bits of the chain it replaces, so golden files never
//! need re-blessing and the conformance fuzzer can assert `==` on raw
//! bit patterns against the chains, which `deco-conformance` keeps as
//! reference implementations (see `crates/conformance/src/unfused.rs`).
//!
//! The contract per kernel is documented inline as "replicates": the
//! sequence of unfused ops whose arithmetic it reproduces. Three
//! properties recur:
//!
//! * reductions accumulate in **source-linear ascending order** starting
//!   from `0.0`, exactly like `sum_axes` / `sum_to`;
//! * the relu backward masks on `x > 0.0`, which is equivalent to
//!   masking on the saved output (`max(x, 0.0) > 0.0 ⟺ x > 0.0`, also
//!   for NaN inputs where `max` returns `0.0`);
//! * writes that the unfused graph expresses as `0.0 += v` are spelled
//!   `0.0f32 + v` so a `-0.0` contribution canonicalizes to `+0.0`
//!   exactly as it would have.
//!
//! All outputs are drawn from the buffer pool ([`crate::pool`]), so in
//! steady state these kernels allocate nothing.

use super::conv::{check_pool_window, pool_grad_rows, pool_rows};
use crate::pool;
use crate::tensor::Tensor;

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.rank(), 4, "expected rank-4 tensor, got {}", t.shape());
    (
        t.shape().dim(0),
        t.shape().dim(1),
        t.shape().dim(2),
        t.shape().dim(3),
    )
}

/// Adds row `r` of `data` (rows of `len` floats) into `accs[r]` for
/// every row, each accumulator folding its row in ascending order — the
/// serial order. Rows run up to eight at a time in lockstep
/// ([`add_rows_lockstep`]), so their independent dependency chains
/// overlap instead of waiting on each other.
fn add_row_sums(accs: &mut [f32], data: &[f32], len: usize) {
    debug_assert_eq!(data.len(), accs.len() * len);
    let mut r = 0;
    while r < accs.len() {
        let lanes = match accs.len() - r {
            8.. => 8,
            4..=7 => 4,
            _ => 1,
        };
        let (a, d) = (&mut accs[r..r + lanes], &data[r * len..(r + lanes) * len]);
        match lanes {
            8 => add_rows_lockstep::<8>(a, d, len),
            4 => add_rows_lockstep::<4>(a, d, len),
            _ => add_rows_lockstep::<1>(a, d, len),
        }
        r += lanes;
    }
}

/// [`add_row_sums`] over exactly `L` rows, stepping every row's
/// accumulator once per element position.
fn add_rows_lockstep<const L: usize>(accs: &mut [f32], data: &[f32], len: usize) {
    let rows: [&[f32]; L] = std::array::from_fn(|r| &data[r * len..(r + 1) * len]);
    let mut s: [f32; L] = std::array::from_fn(|r| accs[r]);
    for j in 0..len {
        for (acc, row) in s.iter_mut().zip(&rows) {
            *acc += row[j];
        }
    }
    accs.copy_from_slice(&s);
}

/// Fused group-norm + relu forward.
///
/// Replicates `x.reshape([n, groups, L]).mean/sub/square/mean/add_scalar/
/// sqrt/div` followed by the `[1, c, 1, 1]`-broadcast affine transform and
/// `relu`, per `(n, group)` block:
///
/// * `m = (Σ v) * (1/L)` with the sum in ascending order from `0.0`;
/// * `var = (Σ (v − m)²) * (1/L)`, same order;
/// * `sd = (var + eps).sqrt()`;
/// * `out = ((((v − m) / sd) * γ[ch]) + β[ch]).max(0.0)`.
///
/// Each image runs its sums ([`add_row_sums`], the blocks of an image
/// interleaved), the element-wise squares into pooled scratch between
/// them, and then the element-wise divide-and-affine pass.
///
/// Returns `(out [n,c,h,w], mean [n,groups], std [n,groups])`; the two
/// per-block statistics are saved for [`group_norm_relu_bwd`].
pub fn group_norm_relu_fwd(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    groups: usize,
    eps: f32,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = dims4(x);
    assert!(
        groups > 0 && c % groups == 0,
        "channels {c} not divisible by groups {groups}"
    );
    assert_eq!(gamma.numel(), c, "gamma must have {c} elements");
    assert_eq!(beta.numel(), c, "beta must have {c} elements");
    let cpg = c / groups;
    let l = cpg * h * w;
    let inv = 1.0 / (l as f32);
    let hw = h * w;
    let chw = c * hw;
    let gam = gamma.data();
    let bet = beta.data();
    // Scratch: every element of `out` is written below. `mean` and `std`
    // are zeroed: they hold the running sums from 0.0.
    let mut out = pool::take_scratch(n * chw);
    let mut mean = pool::take(n * groups);
    let mut std = pool::take(n * groups);
    let mut sq = pool::take_scratch(chw);
    for ni in 0..n {
        let x_img = &x.data()[ni * chw..(ni + 1) * chw];
        let means = &mut mean[ni * groups..(ni + 1) * groups];
        add_row_sums(means, x_img, l);
        for m in means.iter_mut() {
            *m *= inv;
        }
        for (blk, &m) in means.iter().enumerate() {
            let b = blk * l..(blk + 1) * l;
            for (q, &v) in sq[b.clone()].iter_mut().zip(&x_img[b]) {
                let cent = v - m;
                *q = cent * cent;
            }
        }
        let stds = &mut std[ni * groups..(ni + 1) * groups];
        add_row_sums(stds, &sq, l);
        for sd in stds.iter_mut() {
            let var = *sd * inv;
            *sd = (var + eps).sqrt();
        }
        let o_img = &mut out[ni * chw..(ni + 1) * chw];
        for ch in 0..c {
            let (m, sd) = (means[ch / cpg], stds[ch / cpg]);
            let (ga, be) = (gam[ch], bet[ch]);
            let r = ch * hw..(ch + 1) * hw;
            for (o, &v) in o_img[r.clone()].iter_mut().zip(&x_img[r]) {
                *o = ((((v - m) / sd) * ga) + be).max(0.0);
            }
        }
    }
    pool::give(sq);
    (
        Tensor::from_pool_buf(out, [n, c, h, w]),
        Tensor::from_pool_buf(mean, [n, groups]),
        Tensor::from_pool_buf(std, [n, groups]),
    )
}

/// Fused group-norm + relu backward.
///
/// Replicates the reverse sweep of the unfused chain — relu mask, affine
/// `mul`/`add` with their `sum_to` scatters into `γ`/`β`, the `div` node,
/// the `sqrt ∘ (+eps) ∘ mean ∘ square` variance chain, and the `sub ∘
/// mean` centering chain. Per element, with `gy = mask(g)` and
/// `cent = x − m`:
///
/// 1. `gβ[ch] += gy`, `gγ[ch] += gy·(cent/sd)`, `gn = gy·γ[ch]`,
///    `gx = gn/sd`, `gstd += ((−gn)·cent)/sd²`;
/// 2. with `t2 = (gstd·(0.5/sd))·(1/L)·2`: `gcent = gx + t2·cent`,
///    `gmean += −gcent`, `gx = gcent`;
/// 3. `gx += gmean·(1/L)`.
///
/// Each image runs every step as an element-wise pass into pooled
/// scratch (the products and quotients) followed by the sums over that
/// scratch ([`add_row_sums`]), each sum in its existing order: `γ`/`β`
/// per channel in global source-linear order, exactly like the unfused
/// `sum_to`; `gstd` and `gmean` per block in ascending element order.
///
/// `live` names the gradients to form, in `[x, γ, β]` order; the others
/// are skipped and come back `None`. Returns `[gx, gγ [1,c,1,1],
/// gβ [1,c,1,1]]`.
#[allow(clippy::too_many_arguments)]
pub fn group_norm_relu_bwd(
    g: &Tensor,
    x: &Tensor,
    out: &Tensor,
    mean: &Tensor,
    std: &Tensor,
    gamma: &Tensor,
    groups: usize,
    live: [bool; 3],
) -> [Option<Tensor>; 3] {
    let (n, c, h, w) = dims4(x);
    assert_eq!(g.numel(), x.numel(), "grad/input element count mismatch");
    assert_eq!(
        out.numel(),
        x.numel(),
        "saved output element count mismatch"
    );
    let [need_x, need_gamma, need_beta] = live;
    let cpg = c / groups;
    let l = cpg * h * w;
    let inv = 1.0 / (l as f32);
    let hw = h * w;
    let chw = c * hw;
    let gam = gamma.data();
    // gx: the `gn / sd` pass writes every element. gγ/gβ: zero-filled
    // accumulators, exactly like the unfused `sum_to` scatter target.
    let mut gx = need_x.then(|| pool::take_scratch(n * chw));
    let mut ggamma = need_gamma.then(|| pool::take(c));
    let mut gbeta = need_beta.then(|| pool::take(c));
    // One image's element-wise terms, and its per-block sums.
    let mut terms = pool::take_scratch(chw);
    let mut block_sums = pool::take_scratch(groups);
    // When the grad already has the `[1, c, 1, 1]` parameter shape the
    // unfused `sum_to` is an identity *copy*, which preserves a `-0.0`
    // product bit-for-bit; accumulating `0.0 += -0.0` would canonicalize
    // it to `+0.0`. Assign instead of accumulate in that case.
    let copy_scatter = n == 1 && hw == 1;
    // The relu backward, masked on the saved output.
    let relu_grad = |gv: f32, ov: f32| if ov > 0.0 { gv } else { 0.0 };
    let scatter = |acc: &mut [f32], terms: &[f32]| {
        if copy_scatter {
            acc.copy_from_slice(terms);
        } else {
            add_row_sums(acc, terms, hw);
        }
    };
    for ni in 0..n {
        let img = ni * chw..(ni + 1) * chw;
        let x_img = &x.data()[img.clone()];
        let (g_img, o_img) = (&g.data()[img.clone()], &out.data()[img]);
        let stats = ni * groups..(ni + 1) * groups;
        let (means, stds) = (&mean.data()[stats.clone()], &std.data()[stats]);
        // Channel `ch`'s slices of the image's grad, input and output,
        // with its block's mean and std.
        let channel = |ch: usize| {
            let r = ch * hw..(ch + 1) * hw;
            let blk = ch / cpg;
            (
                &g_img[r.clone()],
                &x_img[r.clone()],
                &o_img[r],
                means[blk],
                stds[blk],
            )
        };
        if let Some(gbeta) = gbeta.as_mut() {
            for ch in 0..c {
                let (gc, _, oc, _, _) = channel(ch);
                for ((t, &gv), &ov) in terms[ch * hw..].iter_mut().zip(gc).zip(oc) {
                    *t = relu_grad(gv, ov);
                }
            }
            scatter(gbeta, &terms);
        }
        if let Some(ggamma) = ggamma.as_mut() {
            for ch in 0..c {
                let (gc, xc, oc, m, s) = channel(ch);
                let dst = terms[ch * hw..].iter_mut();
                for (((t, &gv), &xv), &ov) in dst.zip(gc).zip(xc).zip(oc) {
                    *t = relu_grad(gv, ov) * ((xv - m) / s);
                }
            }
            scatter(ggamma, &terms);
        }
        let Some(gx) = gx.as_mut() else {
            continue;
        };
        let gx_img = &mut gx[ni * chw..(ni + 1) * chw];
        for ch in 0..c {
            let (gc, xc, oc, m, s) = channel(ch);
            let (ga, ss) = (gam[ch], s * s);
            let dst = gx_img[ch * hw..].iter_mut().zip(&mut terms[ch * hw..]);
            for (((d, t), &gv), (&xv, &ov)) in dst.zip(gc).zip(xc.iter().zip(oc)) {
                let gn = relu_grad(gv, ov) * ga;
                *d = gn / s;
                *t = ((-gn) * (xv - m)) / ss;
            }
        }
        // gstd per block, then the centering terms into `terms`.
        block_sums.fill(0.0);
        add_row_sums(&mut block_sums, &terms, l);
        for (blk, &gstd) in block_sums.iter().enumerate() {
            let (m, s) = (means[blk], stds[blk]);
            let gvs = gstd * (0.5 / s);
            let gs2 = gvs * inv;
            let t2 = gs2 * 2.0;
            let b = blk * l..(blk + 1) * l;
            let dst = gx_img[b.clone()].iter_mut().zip(&mut terms[b.clone()]);
            for ((d, t), &xv) in dst.zip(&x_img[b]) {
                let gcent = *d + (t2 * (xv - m));
                *t = -gcent;
                *d = gcent;
            }
        }
        // gmean per block, spread back over the block.
        block_sums.fill(0.0);
        add_row_sums(&mut block_sums, &terms, l);
        for (blk, &gmean) in block_sums.iter().enumerate() {
            let gm_b = gmean * inv;
            for d in &mut gx_img[blk * l..(blk + 1) * l] {
                *d += gm_b;
            }
        }
    }
    pool::give(terms);
    pool::give(block_sums);
    [
        gx.map(|v| Tensor::from_pool_buf(v, [n, c, h, w])),
        ggamma.map(|v| Tensor::from_pool_buf(v, [1, c, 1, 1])),
        gbeta.map(|v| Tensor::from_pool_buf(v, [1, c, 1, 1])),
    ]
}

/// Fused relu + average-pool forward.
///
/// Replicates `x.relu().avg_pool2d(k)`: per output cell the window sum
/// accumulates `x.max(0.0)` in the unfused `(dy, dx)` ascending order
/// from `0.0`, then scales by `1/k²` — the row loop of
/// [`Tensor::avg_pool2d`] with the relu applied to each read.
pub fn relu_avg_pool2d_fwd(x: &Tensor, k: usize) -> Tensor {
    let (n, c, h, w) = dims4(x);
    check_pool_window(k, h, w);
    // Scratch: every output element is written.
    let mut out = pool::take_scratch(n * c * (h / k) * (w / k));
    pool_rows(&mut out, x.data(), (k, w / k), |v| v.max(0.0));
    Tensor::from_pool_buf(out, [n, c, h / k, w / k])
}

/// Fused relu + average-pool backward.
///
/// Replicates `g.avg_pool2d_grad(k)` followed by the relu mask. The
/// pool windows never overlap, so each input cell receives exactly one
/// contribution `gv = g[o]·(1/k²)`, written by the unfused graph as
/// `0.0 + gv` — reproduced as `0.0f32 + gv` so a `-0.0` contribution
/// canonicalizes identically. The relu mask then zeroes cells with
/// `x ≤ 0.0`. The row loop of [`Tensor::avg_pool2d_grad`].
pub fn relu_avg_pool2d_bwd(g: &Tensor, x: &Tensor, k: usize) -> Tensor {
    let (n, c, h, w) = dims4(x);
    check_pool_window(k, h, w);
    assert_eq!(
        g.numel(),
        n * c * (h / k) * (w / k),
        "grad shape does not match pooled output"
    );
    // Scratch: the windows tile the input exactly (divisibility asserted
    // above), so every input cell is written.
    let mut gx = pool::take_scratch(n * c * h * w);
    pool_grad_rows(&mut gx, g.data(), Some(x.data()), (k, w / k));
    Tensor::from_pool_buf(gx, [n, c, h, w])
}

/// Fused log-softmax + weighted NLL forward.
///
/// Replicates `logits.log_softmax()` followed by `nll(labels, weights,
/// reduction)` without materializing the `[n, c]` log-probability
/// matrix: per row `m = max(row)` (via the same `NEG_INFINITY` fold),
/// `lse = m + ln(Σ exp(v − m))`, and the loss accumulates
/// `-(wᵢ · (row[yᵢ] − lse))` into an `f64` total in row order, scaled by
/// `scale` (`1` for sum reduction, `1/n` for mean — computed by the
/// caller exactly as the unfused `nll` does).
///
/// Returns `(loss scalar, lse [n])`; the per-row log-sum-exp is saved
/// for [`log_softmax_ce_bwd`].
pub fn log_softmax_ce_fwd(
    logits: &Tensor,
    labels: &[usize],
    weights: Option<&[f32]>,
    scale: f32,
) -> (Tensor, Tensor) {
    assert_eq!(logits.rank(), 2, "logits must be [n, classes]");
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(labels.len(), n, "one label per row");
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "one weight per row");
    }
    let xd = logits.data();
    let mut lse = pool::take_scratch(n);
    let mut total = 0.0f64;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range for {c} classes");
        let row = &xd[i * c..(i + 1) * c];
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let l = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
        lse[i] = l;
        let wi = weights.map_or(1.0, |w| w[i]);
        total -= f64::from(wi * (row[y] - l));
    }
    (
        Tensor::scalar(total as f32 * scale),
        Tensor::from_pool_buf(lse, [n]),
    )
}

/// Fused log-softmax + weighted NLL backward.
///
/// Replicates the unfused `nll` backward (`t = −wᵢ·(g·scale)` at column
/// `yᵢ`, zero elsewhere) chained through the `log_softmax` backward
/// (`gx = gd − exp(lp)·Σ gd`). The row sum `Σ gd` is reproduced by the
/// same ascending-order fold over the mostly-zero row — including the
/// `0.0 + (−0.0) = 0.0` canonicalization when `t` is a negative zero
/// (possible with a zero row weight) — and `exp(lp)` is recomputed as
/// `exp(row[j] − lse)`, bit-identical to exponentiating the saved
/// log-probabilities.
pub fn log_softmax_ce_bwd(
    g: &Tensor,
    logits: &Tensor,
    lse: &Tensor,
    labels: &[usize],
    weights: Option<&[f32]>,
    scale: f32,
) -> Tensor {
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(labels.len(), n, "one label per row");
    let xd = logits.data();
    let ld = lse.data();
    let gv = g.item() * scale;
    let mut gx = pool::take_scratch(n * c);
    for (i, &y) in labels.iter().enumerate() {
        let wi = weights.map_or(1.0, |w| w[i]);
        let t = -wi * gv;
        // Row sum of the one-hot nll gradient, in the same ascending
        // order as the unfused fold over the materialized row.
        let mut gsum = 0.0f32;
        for j in 0..c {
            gsum += if j == y { t } else { 0.0 };
        }
        let l = ld[i];
        for j in 0..c {
            let gd = if j == y { t } else { 0.0 };
            gx[i * c + j] = gd - (xd[i * c + j] - l).exp() * gsum;
        }
    }
    Tensor::from_pool_buf(gx, [n, c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{assert_bits_eq, pool_operand, specials, POOL_SHAPES};
    use crate::rng::Rng;

    /// `(n, c, h, w, groups)` GroupNorm shapes: the ConvNet's instance
    /// norm plus `c / groups > 1`, a single group, a group count that
    /// leaves a remainder after the four-block interleave, H ≠ W, and
    /// the `n = 1, h = w = 1` copy-scatter case.
    const GN_SHAPES: [(usize, usize, usize, usize, usize); 8] = [
        (2, 8, 16, 16, 8),
        (3, 6, 3, 5, 2),
        (1, 4, 1, 1, 2),
        (1, 6, 1, 1, 6),
        (2, 5, 1, 1, 5),
        (1, 7, 2, 3, 1),
        (4, 12, 4, 4, 4),
        (2, 6, 2, 2, 6),
    ];

    #[test]
    fn group_norm_relu_matches_the_reference_loops_bitwise() {
        let mut rng = Rng::new(73);
        for (n, c, h, w, groups) in GN_SHAPES {
            for nan in [false, true] {
                let what = format!("{n}x{c}x{h}x{w} groups {groups} nan {nan}");
                let x = specials(&[n, c, h, w], nan, &mut rng);
                let gamma = specials(&[1, c, 1, 1], false, &mut rng);
                let beta = specials(&[1, c, 1, 1], false, &mut rng);
                let (out, mean, std) = group_norm_relu_fwd(&x, &gamma, &beta, groups, 1e-5);
                let (r_out, r_mean, r_std) =
                    reference::group_norm_relu_fwd(&x, &gamma, &beta, groups, 1e-5);
                assert_bits_eq(out.data(), r_out.data(), &format!("out {what}"));
                assert_bits_eq(mean.data(), r_mean.data(), &format!("mean {what}"));
                assert_bits_eq(std.data(), r_std.data(), &format!("std {what}"));

                let g = specials(&[n, c, h, w], nan, &mut rng);
                let want =
                    reference::group_norm_relu_bwd(&g, &x, &out, &mean, &std, &gamma, groups);
                let want = [want.0, want.1, want.2];
                // Every live subset forms exactly its gradients, each with
                // the reference's bits.
                for mask in 0..8usize {
                    let live = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
                    let got = group_norm_relu_bwd(&g, &x, &out, &mean, &std, &gamma, groups, live);
                    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                        let what = format!("gradient {i} live {live:?} {what}");
                        match got {
                            Some(t) => {
                                assert!(live[i], "{what}: formed a skipped gradient");
                                assert_eq!(t.shape(), want.shape(), "{what}");
                                assert_bits_eq(t.data(), want.data(), &what);
                            }
                            None => assert!(!live[i], "{what}: missing"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn relu_avg_pool_fwd_matches_the_reference_loop_bitwise() {
        let mut rng = Rng::new(77);
        for (n, c, oh, ow, k) in POOL_SHAPES {
            let what = format!("{n}x{c}x{oh}x{ow} k{k}");
            let x = pool_operand(&[n, c, oh * k, ow * k], &mut rng);
            let (got, want) = (
                relu_avg_pool2d_fwd(&x, k),
                reference::relu_avg_pool2d_fwd(&x, k),
            );
            assert_eq!(got.shape(), want.shape(), "{what}");
            assert_bits_eq(got.data(), want.data(), &format!("fwd {what}"));
        }
    }

    #[test]
    fn relu_avg_pool_bwd_matches_the_reference_loop_bitwise() {
        let mut rng = Rng::new(74);
        for (n, c, oh, ow, k) in POOL_SHAPES {
            let what = format!("{n}x{c}x{oh}x{ow} k{k}");
            let x = pool_operand(&[n, c, oh * k, ow * k], &mut rng);
            let g = pool_operand(&[n, c, oh, ow], &mut rng);
            let (got, want) = (
                relu_avg_pool2d_bwd(&g, &x, k),
                reference::relu_avg_pool2d_bwd(&g, &x, k),
            );
            assert_eq!(got.shape(), want.shape(), "{what}");
            assert_bits_eq(got.data(), want.data(), &format!("bwd {what}"));
        }
    }

    #[test]
    #[should_panic(expected = "pool window must be at least 1")]
    fn zero_relu_pool_window_is_rejected() {
        relu_avg_pool2d_fwd(&Tensor::zeros([1, 1, 2, 2]), 0);
    }

    #[test]
    fn empty_batches_pass_through() {
        let x = Tensor::zeros([0, 4, 2, 2]);
        let p = Tensor::ones([1, 4, 1, 1]);
        let (out, mean, std) = group_norm_relu_fwd(&x, &p, &p, 2, 1e-5);
        assert_eq!(out.shape().dims(), &[0, 4, 2, 2]);
        let [gx, gg, gb] = group_norm_relu_bwd(&x, &x, &out, &mean, &std, &p, 2, [true; 3]);
        assert_eq!(gx.expect("gx").shape().dims(), &[0, 4, 2, 2]);
        assert_eq!(gg.expect("gγ").data(), &[0.0; 4]);
        assert_eq!(gb.expect("gβ").data(), &[0.0; 4]);
        let pooled = relu_avg_pool2d_fwd(&x, 2);
        assert_eq!(pooled.shape().dims(), &[0, 4, 1, 1]);
        assert_eq!(
            relu_avg_pool2d_bwd(&pooled, &x, 2).shape().dims(),
            &[0, 4, 2, 2]
        );
    }

    /// The loops the streamed kernels replaced, kept verbatim as the
    /// references the rewritten kernels are held to bit for bit.
    mod reference {
        use super::super::dims4;
        use crate::pool;
        use crate::tensor::Tensor;

        pub fn group_norm_relu_fwd(
            x: &Tensor,
            gamma: &Tensor,
            beta: &Tensor,
            groups: usize,
            eps: f32,
        ) -> (Tensor, Tensor, Tensor) {
            let (n, c, h, w) = dims4(x);
            assert!(
                groups > 0 && c % groups == 0,
                "channels {c} not divisible by groups {groups}"
            );
            assert_eq!(gamma.numel(), c, "gamma must have {c} elements");
            assert_eq!(beta.numel(), c, "beta must have {c} elements");
            let cpg = c / groups;
            let l = cpg * h * w;
            let inv = 1.0 / (l as f32);
            let hw = h * w;
            let xd = x.data();
            let gam = gamma.data();
            let bet = beta.data();
            // Scratch: every element of all three outputs is written below.
            let mut out = pool::take_scratch(n * c * hw);
            let mut mean = pool::take_scratch(n * groups);
            let mut std = pool::take_scratch(n * groups);
            for ni in 0..n {
                for gi in 0..groups {
                    let base = (ni * groups + gi) * l;
                    let block = &xd[base..base + l];
                    let mut acc = 0.0f32;
                    for &v in block {
                        acc += v;
                    }
                    let m = acc * inv;
                    let mut vacc = 0.0f32;
                    for &v in block {
                        let cent = v - m;
                        vacc += cent * cent;
                    }
                    let var = vacc * inv;
                    let sd = (var + eps).sqrt();
                    mean[ni * groups + gi] = m;
                    std[ni * groups + gi] = sd;
                    for ci in 0..cpg {
                        let ch = gi * cpg + ci;
                        let (ga, be) = (gam[ch], bet[ch]);
                        let start = base + ci * hw;
                        for (o, &v) in out[start..start + hw]
                            .iter_mut()
                            .zip(&xd[start..start + hw])
                        {
                            *o = ((((v - m) / sd) * ga) + be).max(0.0);
                        }
                    }
                }
            }
            (
                Tensor::from_pool_buf(out, [n, c, h, w]),
                Tensor::from_pool_buf(mean, [n, groups]),
                Tensor::from_pool_buf(std, [n, groups]),
            )
        }

        pub fn group_norm_relu_bwd(
            g: &Tensor,
            x: &Tensor,
            out: &Tensor,
            mean: &Tensor,
            std: &Tensor,
            gamma: &Tensor,
            groups: usize,
        ) -> (Tensor, Tensor, Tensor) {
            let (n, c, h, w) = dims4(x);
            assert_eq!(g.numel(), x.numel(), "grad/input element count mismatch");
            assert_eq!(
                out.numel(),
                x.numel(),
                "saved output element count mismatch"
            );
            let cpg = c / groups;
            let l = cpg * h * w;
            let inv = 1.0 / (l as f32);
            let hw = h * w;
            let gd = g.data();
            let xd = x.data();
            let od = out.data();
            let md = mean.data();
            let sd_all = std.data();
            let gam = gamma.data();
            // gx: pass 1 writes every element. gγ/gβ: zero-filled accumulators,
            // exactly like the unfused `sum_to` scatter target.
            let mut gx = pool::take_scratch(n * c * hw);
            let mut ggamma = pool::take(c);
            let mut gbeta = pool::take(c);
            // When the grad already has the `[1, c, 1, 1]` parameter shape the
            // unfused `sum_to` is an identity *copy*, which preserves a `-0.0`
            // product bit-for-bit; accumulating `0.0 += -0.0` would canonicalize
            // it to `+0.0`. Assign instead of accumulate in that case.
            let copy_scatter = n == 1 && hw == 1;
            for ni in 0..n {
                for gi in 0..groups {
                    let base = (ni * groups + gi) * l;
                    let m = md[ni * groups + gi];
                    let s = sd_all[ni * groups + gi];
                    let ss = s * s;
                    let mut gstd = 0.0f32;
                    for ci in 0..cpg {
                        let ch = gi * cpg + ci;
                        let ga = gam[ch];
                        let (mut gb, mut gg) = (gbeta[ch], ggamma[ch]);
                        let start = base + ci * hw;
                        for i in start..start + hw {
                            let gy = if od[i] > 0.0 { gd[i] } else { 0.0 };
                            let cent = xd[i] - m;
                            let normed = cent / s;
                            if copy_scatter {
                                gb = gy;
                                gg = gy * normed;
                            } else {
                                gb += gy;
                                gg += gy * normed;
                            }
                            let gn = gy * ga;
                            gx[i] = gn / s;
                            gstd += ((-gn) * cent) / ss;
                        }
                        gbeta[ch] = gb;
                        ggamma[ch] = gg;
                    }
                    let gvs = gstd * (0.5 / s);
                    let gs2 = gvs * inv;
                    let t2 = gs2 * 2.0;
                    let mut gmean = 0.0f32;
                    for j in 0..l {
                        let i = base + j;
                        let cent = xd[i] - m;
                        let gcent = gx[i] + (t2 * cent);
                        gmean += -gcent;
                        gx[i] = gcent;
                    }
                    let gm_b = gmean * inv;
                    for j in 0..l {
                        gx[base + j] += gm_b;
                    }
                }
            }
            (
                Tensor::from_pool_buf(gx, [n, c, h, w]),
                Tensor::from_pool_buf(ggamma, [1, c, 1, 1]),
                Tensor::from_pool_buf(gbeta, [1, c, 1, 1]),
            )
        }

        pub fn relu_avg_pool2d_fwd(x: &Tensor, k: usize) -> Tensor {
            let (n, c, h, w) = dims4(x);
            let (oh, ow) = (h / k, w / k);
            let xd = x.data();
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
                                acc += xd[row + dx].max(0.0);
                            }
                        }
                        out[o_base + ohi * ow + owi] = acc * inv;
                    }
                }
            }
            Tensor::from_pool_buf(out, [n, c, oh, ow])
        }

        pub fn relu_avg_pool2d_bwd(g: &Tensor, x: &Tensor, k: usize) -> Tensor {
            let (n, c, h, w) = dims4(x);
            assert!(
                k > 0 && h % k == 0 && w % k == 0,
                "pool window {k} must divide {h}x{w}"
            );
            let (oh, ow) = (h / k, w / k);
            assert_eq!(
                g.numel(),
                n * c * oh * ow,
                "grad shape does not match pooled output"
            );
            let gd = g.data();
            let xd = x.data();
            let inv = 1.0 / (k * k) as f32;
            // Scratch: the windows tile the input exactly (divisibility asserted
            // above), so every input cell is written below.
            let mut gx = pool::take_scratch(n * c * h * w);
            for nc in 0..n * c {
                let g_base = nc * oh * ow;
                let x_base = nc * h * w;
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let gv = gd[g_base + ohi * ow + owi] * inv;
                        // `0.0 += gv` in the unfused scatter: -0.0 becomes +0.0.
                        let gvz = 0.0f32 + gv;
                        for dy in 0..k {
                            let row = x_base + (ohi * k + dy) * w + owi * k;
                            for dx in 0..k {
                                gx[row + dx] = if xd[row + dx] > 0.0 { gvz } else { 0.0 };
                            }
                        }
                    }
                }
            }
            Tensor::from_pool_buf(gx, [n, c, h, w])
        }
    }

    // The fused-vs-unfused bitwise equivalences are asserted end-to-end
    // (through the Var graph) in the autograd tests and the conformance
    // fuzzer; here we pin the raw kernels against hand-computed values.

    #[test]
    fn group_norm_relu_fwd_matches_manual() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 5.0, -1.0, 0.0, 2.0, 2.0], [1, 2, 2, 2]);
        let gamma = Tensor::from_vec(vec![2.0, 0.5], [1, 2, 1, 1]);
        let beta = Tensor::from_vec(vec![0.1, -0.2], [1, 2, 1, 1]);
        let (out, mean, std) = group_norm_relu_fwd(&x, &gamma, &beta, 2, 1e-5);
        // Block 0: mean 2.75, block 1: mean 0.75.
        assert_eq!(mean.data(), &[2.75, 0.75]);
        for (i, &v) in x.data().iter().enumerate() {
            let (m, s, g, b) = if i < 4 {
                (mean.data()[0], std.data()[0], 2.0f32, 0.1f32)
            } else {
                (mean.data()[1], std.data()[1], 0.5f32, -0.2f32)
            };
            let expect = ((((v - m) / s) * g) + b).max(0.0);
            assert_eq!(out.data()[i].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn relu_avg_pool_fwd_matches_manual() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], [1, 1, 2, 2]);
        let out = relu_avg_pool2d_fwd(&x, 2);
        assert_eq!(out.data(), &[(1.0f32 + 0.0 + 3.0 + 0.0) * 0.25]);
    }

    #[test]
    fn relu_avg_pool_bwd_masks_and_spreads() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], [1, 1, 2, 2]);
        let g = Tensor::from_vec(vec![8.0], [1, 1, 1, 1]);
        let gx = relu_avg_pool2d_bwd(&g, &x, 2);
        assert_eq!(gx.data(), &[2.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_avg_pool_bwd_negative_zero_canonicalizes() {
        // gv = -0.0: the unfused scatter writes 0.0 += -0.0 == +0.0.
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], [1, 1, 2, 2]);
        let g = Tensor::from_vec(vec![-0.0], [1, 1, 1, 1]);
        let gx = relu_avg_pool2d_bwd(&g, &x, 2);
        for &v in gx.data() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn log_softmax_ce_matches_composed_ops() {
        let mut rng = Rng::new(7);
        let logits = Tensor::randn([3, 5], &mut rng);
        let labels = [4usize, 0, 2];
        let weights = [0.5f32, 2.0, 0.0];
        let (loss, lse) = log_softmax_ce_fwd(&logits, &labels, Some(&weights), 1.0);
        // Manual recomputation of the same f32 arithmetic.
        let xd = logits.data();
        let mut total = 0.0f64;
        for (i, &y) in labels.iter().enumerate() {
            let row = &xd[i * 5..(i + 1) * 5];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let l = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
            assert_eq!(lse.data()[i].to_bits(), l.to_bits());
            total -= f64::from(weights[i] * (row[y] - l));
        }
        assert_eq!(loss.item().to_bits(), (total as f32).to_bits());
        // Backward: a zero row weight gives t = -0.0 at the label column
        // (preserved, as the unfused first-contribution move does) and a
        // canonicalized +0.0 row sum, so the label column keeps -0.0
        // (-0.0 - 0.0 = -0.0) and every other column is +0.0.
        let g = Tensor::scalar(1.0);
        let gx = log_softmax_ce_bwd(&g, &logits, &lse, &labels, Some(&weights), 1.0);
        for j in 0..5 {
            let expect = if j == 2 { -0.0f32 } else { 0.0f32 };
            assert_eq!(gx.data()[2 * 5 + j].to_bits(), expect.to_bits());
        }
    }
}
