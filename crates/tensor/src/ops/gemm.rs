//! Cache-blocked, panel-packed f32 matrix multiply.
//!
//! This is the single GEMM core underneath [`Tensor::matmul`] and the
//! implicit-GEMM convolution kernels in [`super::conv`]. It follows the
//! classic BLIS/GotoBLAS decomposition in safe Rust:
//!
//! * the `k` dimension is split into `KC`-deep slabs, each packed once;
//! * within a slab, `A` rows are packed into `MR`-row panels
//!   (column-major inside a panel) and `B` columns into `NR`-column
//!   panels (row-major inside a panel), both zero-padded to full
//!   panels, so the microkernel always runs fixed-size loops the
//!   compiler unrolls and autovectorizes;
//! * an `MR × NR` register-tile microkernel accumulates over the slab
//!   and adds into `C` — no `if x == 0.0` branches in the inner loop.
//!
//! ## Determinism contract
//!
//! Every output element is accumulated in a fixed order that depends
//! only on the operand shapes: `k`-slabs in ascending order, each summed
//! from `0.0` sequentially over `k` and then added into `C`. Panel and
//! slab boundaries never depend on the thread count, so a caller that
//! fans independent products out across `deco-runtime` (the
//! convolutions, one image per product) still gets bitwise-identical
//! results at any `DECO_THREADS`. Zero-padded panel lanes contribute
//! exactly `+0.0` per step, which cannot change any partial sum.
//!
//! One driver runs the microkernel: [`PreparedA`] packs `A` once for
//! any number of products and packs each `B` one panel at a time from
//! any [`PanelSource`]. [`gemm_into`], under [`Tensor::matmul`], reads a
//! stored `B`; the convolutions read their column matrices straight
//! from a padded image, image after image against one packed weight
//! (EXPERIMENTS.md, "Implicit-GEMM convolution").
//!
//! All scratch (packed panels) comes from the thread-local
//! [`crate::pool`], so steady-state calls allocate nothing.
//!
//! [`Tensor::matmul`]: crate::Tensor::matmul

use crate::pool;

/// Microkernel tile rows (register-blocked rows of `A`).
pub(crate) const MR: usize = 8;
/// Microkernel tile columns (one or two SIMD vectors of `B`).
pub(crate) const NR: usize = 8;
/// Depth (`k`) per packed slab.
pub(crate) const KC: usize = 256;

/// Below this flop count (`2·m·k·n`) the packed path's pack/zero
/// overhead beats its cache wins and [`gemm_into`] falls back to a
/// naive ikj loop. Chosen conservatively; the conformance fuzzer covers
/// both sides of the boundary.
pub(crate) const PACKED_MIN_FLOPS: usize = 1 << 13;

/// A rank-2 operand view: `data` interpreted as row-major `rows × cols`.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major `rows × cols` view.
    pub(crate) fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        MatRef { data, rows, cols }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }
}

/// Packs `A[0..m, k0..k0+kc]` into `MR`-row panels: panel `p` holds
/// rows `p·MR ..`, stored column-major within the panel
/// (`apack[panel][depth][lane]`), zero-padded to a full `MR` lanes.
fn pack_a(apack: &mut [f32], a: &MatRef<'_>, k0: usize, kc: usize) {
    let panels = a.rows.div_ceil(MR);
    debug_assert!(apack.len() >= panels * kc * MR);
    for panel in 0..panels {
        let base = panel * kc * MR;
        let r0 = panel * MR;
        let lanes = MR.min(a.rows - r0);
        let dst = &mut apack[base..base + kc * MR];
        if lanes == MR {
            // Each lane's depth run is contiguous: read rows
            // sequentially, scatter into the panel stride.
            for lane in 0..MR {
                let src = &a.data[(r0 + lane) * a.cols + k0..][..kc];
                for (chunk, &v) in dst.chunks_exact_mut(MR).zip(src) {
                    chunk[lane] = v;
                }
            }
        } else {
            for p in 0..kc {
                let dst = &mut dst[p * MR..p * MR + MR];
                for (lane, d) in dst.iter_mut().enumerate() {
                    *d = if lane < lanes {
                        a.at(r0 + lane, k0 + p)
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// The right operand `B` (`k × n`) of a product `C += A · B`, as the two
/// kernels read it: one `NR`-column panel at a time (the packed kernel)
/// or one row at a time (the naive loop). A [`MatRef`] reads stored
/// values; the convolutions read their column matrices from a padded
/// image, so no column matrix is ever materialized.
pub(crate) trait PanelSource {
    /// Logical row count `k`.
    fn rows(&self) -> usize;
    /// Logical column count `n`.
    fn cols(&self) -> usize;
    /// Writes `B[k0..k0+kc, c0..c0+NR]` into `dst` (`kc · NR` floats,
    /// row-major: `dst[depth][lane]`), with `0.0` in the lanes past
    /// `cols()`.
    fn pack_panel(&self, dst: &mut [f32], k0: usize, kc: usize, c0: usize);
    /// `c_row[j] += a · B[p, j]` for every column `j`: one step of the
    /// naive loop.
    fn axpy_row(&self, c_row: &mut [f32], a: f32, p: usize);
}

impl PanelSource for MatRef<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn pack_panel(&self, dst: &mut [f32], k0: usize, kc: usize, c0: usize) {
        let lanes = NR.min(self.cols - c0);
        let dst = &mut dst[..kc * NR];
        if lanes == NR {
            // A panel's `NR` lanes are contiguous per depth step:
            // straight `NR`-wide copies.
            for (p, chunk) in dst.chunks_exact_mut(NR).enumerate() {
                let src = (k0 + p) * self.cols + c0;
                chunk.copy_from_slice(&self.data[src..src + NR]);
            }
        } else {
            for p in 0..kc {
                let dst = &mut dst[p * NR..p * NR + NR];
                for (lane, d) in dst.iter_mut().enumerate() {
                    *d = if lane < lanes {
                        self.at(k0 + p, c0 + lane)
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    fn axpy_row(&self, c_row: &mut [f32], a: f32, p: usize) {
        let b_row = &self.data[p * self.cols..(p + 1) * self.cols];
        for (slot, &bv) in c_row.iter_mut().zip(b_row) {
            *slot += a * bv;
        }
    }
}

/// `MR × NR` register-tile microkernel: accumulates
/// `apanel (kc × MR) · bpanel (kc × NR)` into a local tile, then adds
/// the valid `mr × nr` corner into `C` (`c_row0` is relative to the
/// start of the output slice). The fixed-size `acc` array is what the
/// compiler keeps in vector registers.
///
/// This is the only GEMM kernel and the **bitwise-determinism
/// reference**: separate multiply and add per step (rustc never
/// contracts `a*b + c` to FMA), so results are identical across vector
/// widths and hosts of one architecture. Keep its arithmetic verbatim —
/// every committed f32 golden is pinned to it.
///
/// Both panels are sliced to exactly `kc` depth steps so the zipped
/// loop has a single exit. It is forced inline: its one caller,
/// [`PreparedA::gemm_epi`], is instantiated once per [`PanelSource`],
/// and with more than one call site LLVM emitted it out of line,
/// re-zeroing `acc` through the stack on every call. Inlined, the loop
/// must keep the `acc` tile in registers with no per-step copies: check
/// the disassembly after changing this loop or its caller
/// (EXPERIMENTS.md, "One GEMM kernel", "Implicit-GEMM convolution" and
/// "One GEMM driver and one task queue").
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel(
    apanel: &[f32],
    bpanel: &[f32],
    kc: usize,
    c: &mut [f32],
    c_row0: usize,
    c_col0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in apanel[..kc * MR]
        .chunks_exact(MR)
        .zip(bpanel[..kc * NR].chunks_exact(NR))
    {
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = a[i];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot += ai * b[j];
            }
        }
    }
    for i in 0..mr {
        let row = &mut c[(c_row0 + i) * n + c_col0..(c_row0 + i) * n + c_col0 + nr];
        for (j, slot) in row.iter_mut().enumerate() {
            *slot += acc[i][j];
        }
    }
}

/// Number of `KC`-deep slabs of a depth-`k` product (one when `k = 0`).
fn slabs(k: usize) -> usize {
    k.div_ceil(KC).max(1)
}

/// Start of slab `s` in a packed operand whose panels span `width`
/// lanes in all (`panels · MR` or `panels · NR`). Every slab before the
/// last has full `KC` depth, so the offset is closed-form — no per-call
/// offset table, which keeps steady-state packing allocation-free.
fn slab_offset(width: usize, s: usize) -> usize {
    width * KC * s
}

/// Writeback fusion applied to each output tile immediately after its
/// final `k`-slab (so the `C` region is touched once, while it is
/// still cache-hot).
///
/// ## Bitwise contract
///
/// The bias replicates the exact per-element operation order of the
/// historical separate pass over the finished GEMM output: it is
/// indexed by output row and added with the same
/// `if bv != 0.0 { c += bv }` skip the unfused conv bias pass uses (the
/// skip is itself bitwise-relevant: `0.0 + (-0.0)` would canonicalize
/// `-0.0` outputs).
///
/// A tile's epilogue only runs once every one of its `k`-slabs has
/// accumulated, so per-element results are identical to running the
/// full GEMM first and the bias pass second.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// Plain accumulate — the historical behavior.
    None,
    /// Per-output-row bias add (`bias.len() == m`, row = out channel).
    Bias(&'a [f32]),
}

/// Applies `epi` to the finalized `mr × cols` tile at
/// (`c_row0`, `c_col0`) of the `n`-column output `c`.
fn apply_epilogue(
    epi: Epilogue<'_>,
    c: &mut [f32],
    c_row0: usize,
    c_col0: usize,
    n: usize,
    mr: usize,
    cols: usize,
) {
    let Epilogue::Bias(bias) = epi else {
        return;
    };
    for i in 0..mr {
        let bv = bias[c_row0 + i];
        if bv != 0.0 {
            let row = &mut c[(c_row0 + i) * n + c_col0..(c_row0 + i) * n + c_col0 + cols];
            for slot in row.iter_mut() {
                *slot += bv;
            }
        }
    }
}

/// A left operand `A` (`m × k`) prepared once for any number of products
/// `C += A · B` with `n`-column right operands. When [`use_packed`]
/// picks the packed kernel for `(m, k, n)`, `A` is packed here into
/// `KC`-deep slabs of `MR`-row panels (slab `s` at
/// [`slab_offset`]`(panels_m · MR, s)`); otherwise the naive loop reads it
/// in place. The convolutions prepare their weight once per call and
/// multiply it against every image.
pub(crate) struct PreparedA<'a> {
    a: MatRef<'a>,
    n: usize,
    packed: Option<Vec<f32>>,
}

impl<'a> PreparedA<'a> {
    /// Prepares `a` for products with `n`-column right operands.
    pub(crate) fn new(a: MatRef<'a>, n: usize) -> Self {
        let (m, k) = (a.rows, a.cols);
        let packed = use_packed(m, k, n).then(|| {
            let panels_m = m.div_ceil(MR);
            // Scratch: pack_a overwrites every element.
            let mut buf = pool::take_scratch(panels_m * MR * k);
            for s in 0..slabs(k) {
                let kc = KC.min(k - s * KC);
                pack_a(&mut buf[slab_offset(panels_m * MR, s)..], &a, s * KC, kc);
            }
            buf
        });
        PreparedA { a, n, packed }
    }

    /// `C += A · B` plus a fused writeback [`Epilogue`], with the kernel
    /// and the per-element order of [`gemm_into`]. On the packed path
    /// each `B` panel is packed once per `KC` slab (ascending) into pooled
    /// scratch and multiplied against every row panel of `A`, each tile's
    /// epilogue running right after its last slab. The naive path runs
    /// the whole product, then the epilogue row by row.
    pub(crate) fn gemm_epi(&self, c: &mut [f32], b: &impl PanelSource, epi: Epilogue<'_>) {
        let (m, k, n) = (self.a.rows, self.a.cols, self.n);
        debug_assert_eq!((b.rows(), b.cols()), (k, n), "gemm operand shapes");
        debug_assert_eq!(c.len(), m * n, "gemm output size");
        let Some(apack) = &self.packed else {
            gemm_naive(c, &self.a, b);
            for r in 0..m {
                apply_epilogue(epi, c, r, 0, n, 1, n);
            }
            return;
        };
        let panels_m = m.div_ceil(MR);
        // Scratch: pack_panel writes every element the microkernel reads.
        let mut bpanel = pool::take_scratch(KC.min(k) * NR);
        for s in 0..slabs(k) {
            let (k0, kc) = (s * KC, KC.min(k - s * KC));
            let a_slab = &apack[slab_offset(panels_m * MR, s)..];
            for c0 in (0..n).step_by(NR) {
                let nr = NR.min(n - c0);
                b.pack_panel(&mut bpanel, k0, kc, c0);
                for (pm, apanel) in a_slab.chunks(kc * MR).take(panels_m).enumerate() {
                    let mr = MR.min(m - pm * MR);
                    microkernel(apanel, &bpanel, kc, c, pm * MR, c0, n, mr, nr);
                    if k0 + kc == k {
                        apply_epilogue(epi, c, pm * MR, c0, n, mr, nr);
                    }
                }
            }
        }
        pool::give(bpanel);
    }
}

impl Drop for PreparedA<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.packed.take() {
            pool::give(buf);
        }
    }
}

/// Naive ikj fallback for problems too small to amortize packing.
/// Accumulates into `c` like the packed path.
fn gemm_naive(c: &mut [f32], a: &MatRef<'_>, b: &impl PanelSource) {
    let (m, k, n) = (a.rows, a.cols, b.cols());
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            b.axpy_row(c_row, a.at(i, p), p);
        }
    }
}

/// `C += A · B` for logical `m × k` and `k × n` operands, choosing the
/// packed-blocked or naive kernel from the shapes alone. `c` must
/// already hold the desired initial values (zeros for a plain product).
pub(crate) fn gemm_into(c: &mut [f32], a: &MatRef<'_>, b: &MatRef<'_>) {
    let _span = use_packed(a.rows, a.cols, b.cols).then(|| deco_telemetry::span!("tensor.gemm"));
    PreparedA::new(*a, b.cols).gemm_epi(c, b, Epilogue::None);
}

/// Shape-only heuristic for the packed path.
pub(crate) fn use_packed(m: usize, k: usize, n: usize) -> bool {
    2 * m * k * n >= PACKED_MIN_FLOPS && m >= 2 && n >= NR / 2 && k >= 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
                }
                out[i * n + j] = acc as f32;
            }
        }
        out
    }

    fn randv(len: usize, rng: &mut crate::Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal()).collect()
    }

    #[test]
    fn packed_matches_reference_over_shapes() {
        let mut rng = crate::Rng::new(11);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (8, 8, 8),
            (7, 13, 9),
            (64, 64, 64),
            (65, 257, 33),
            (128, 30, 70),
            (3, 300, 3),
        ] {
            let a = randv(m * k, &mut rng);
            let b = randv(k * n, &mut rng);
            let mut c = vec![0.0f32; m * n];
            gemm_into(&mut c, &MatRef::new(&a, m, k), &MatRef::new(&b, k, n));
            let r = reference(&a, &b, m, k, n);
            for (i, (&x, &y)) in c.iter().zip(&r).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-3 * y.abs().max(1.0),
                    "({m},{k},{n}) elem {i}: {x} vs {y}"
                );
            }
        }
    }

    /// The per-element order contract as a scalar loop: the packed
    /// kernel sums each `KC`-deep slab from `0.0` in `k` order and adds
    /// the slab sums into `c` in ascending slab order; the naive loop
    /// adds each product straight into `c` in `k` order.
    fn contract_order(c: &mut [f32], a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) {
        for i in 0..m {
            for j in 0..n {
                let term = |p: usize| a[i * k + p] * b[p * n + j];
                let slot = &mut c[i * n + j];
                if use_packed(m, k, n) {
                    for k0 in (0..k).step_by(KC) {
                        *slot += (k0..(k0 + KC).min(k)).fold(0.0f32, |acc, p| acc + term(p));
                    }
                } else {
                    for p in 0..k {
                        *slot += term(p);
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_a_matches_the_order_contract_and_a_separate_bias_pass_bitwise() {
        let mut rng = crate::Rng::new(14);
        for &(m, k, n) in &[
            (1usize, 3usize, 2usize),
            (8, 8, 8),
            (7, 13, 9),
            (65, 257, 33),
            (16, 300, 20),
        ] {
            let a = randv(m * k, &mut rng);
            let b = randv(k * n, &mut rng);
            // A nonzero start, so the slab sums are seen to land in `c`.
            let c0 = randv(m * n, &mut rng);
            let mut bias = randv(m, &mut rng);
            bias[0] = 0.0; // exercise the zero-skip
            let (av, bv) = (MatRef::new(&a, m, k), MatRef::new(&b, k, n));
            let prepared = PreparedA::new(av, n);
            let mut plain = c0.clone();
            prepared.gemm_epi(&mut plain, &bv, Epilogue::None);
            let mut fused = c0.clone();
            prepared.gemm_epi(&mut fused, &bv, Epilogue::Bias(&bias));
            let mut expect = c0;
            contract_order(&mut expect, &a, &b, (m, k, n));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&plain), bits(&expect), "({m},{k},{n}) no epilogue");
            for r in 0..m {
                let bv = bias[r];
                if bv != 0.0 {
                    for slot in expect[r * n..(r + 1) * n].iter_mut() {
                        *slot += bv;
                    }
                }
            }
            assert_eq!(bits(&fused), bits(&expect), "({m},{k},{n}) bias");
        }
    }

    #[test]
    fn accumulates_into_nonzero_c() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = [10.0f32];
        gemm_into(&mut c, &MatRef::new(&a, 1, 2), &MatRef::new(&b, 2, 1));
        assert_eq!(c[0], 10.0 + 3.0 + 8.0);
    }
}
