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

/// Fused group-norm + relu forward.
///
/// Replicates `x.reshape([n, groups, L]).mean/sub/square/mean/add_scalar/
/// sqrt/div` followed by the `[1, c, 1, 1]`-broadcast affine transform and
/// `relu`, in one pass structure per `(n, group)` block:
///
/// * `m = (Σ v) * (1/L)` with the sum in ascending order from `0.0`;
/// * `var = (Σ (v − m)²) * (1/L)`, same order;
/// * `sd = (var + eps).sqrt()`;
/// * `out = ((((v − m) / sd) * γ[ch]) + β[ch]).max(0.0)`.
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

/// Fused group-norm + relu backward.
///
/// Replicates the reverse sweep of the unfused chain — relu mask, affine
/// `mul`/`add` with their `sum_to` scatters into `γ`/`β`, the `div` node,
/// the `sqrt ∘ (+eps) ∘ mean ∘ square` variance chain, and the `sub ∘
/// mean` centering chain — in three passes per `(n, group)` block:
///
/// 1. ascending `j`: `gy = mask(g)`, `gβ[ch] += gy`,
///    `gγ[ch] += gy·(cent/sd)`, `gn = gy·γ[ch]`, `gx = gn/sd`,
///    `gstd += ((−gn)·cent)/sd²`;
/// 2. with `t2 = (gstd·(0.5/sd))·(1/L)·2`: `gcent = gx + t2·cent`,
///    `gmean += −gcent`, `gx = gcent`;
/// 3. `gx += gmean·(1/L)`.
///
/// The `γ`/`β` scatters accumulate in global source-linear order, exactly
/// like the unfused `sum_to`. Returns `(gx, gγ [1,c,1,1], gβ [1,c,1,1])`.
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

/// Fused relu + average-pool forward.
///
/// Replicates `x.relu().avg_pool2d(k)`: per output cell the window sum
/// accumulates `x.max(0.0)` in the unfused `(dy, dx)` ascending order
/// from `0.0`, then scales by `1/k²`.
pub fn relu_avg_pool2d_fwd(x: &Tensor, k: usize) -> Tensor {
    let (n, c, h, w) = dims4(x);
    assert!(
        k > 0 && h % k == 0 && w % k == 0,
        "pool window {k} must divide {h}x{w}"
    );
    let (oh, ow) = (h / k, w / k);
    let xd = x.data();
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
                        acc += xd[row + dx].max(0.0);
                    }
                }
                out[o_base + ohi * ow + owi] = acc * inv;
            }
        }
    }
    Tensor::from_pool_buf(out, [n, c, oh, ow])
}

/// Fused relu + average-pool backward.
///
/// Replicates `g.avg_pool2d_grad(k)` followed by the relu mask. The
/// pool windows never overlap, so each input cell receives exactly one
/// contribution `gv = g[o]·(1/k²)`, written by the unfused graph as
/// `0.0 += gv` into a zeroed buffer — reproduced here as `0.0f32 + gv`
/// so a `-0.0` contribution canonicalizes identically. The relu mask
/// then zeroes cells with `x ≤ 0.0`.
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
    use crate::rng::Rng;

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
