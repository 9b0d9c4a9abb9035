//! Cache-blocked, panel-packed f32 matrix multiply.
//!
//! This is the single GEMM core underneath [`Tensor::matmul`] and the
//! im2col convolution kernels in [`super::conv`]. It follows the
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
//! only on the operand shapes: `k`-slabs in ascending order, and within
//! a slab sequentially over `k`. Panel and slab boundaries never depend
//! on the thread count, so callers may fan row-panel ranges out across
//! `deco-runtime` and still get bitwise-identical results at any
//! `DECO_THREADS` (see [`Tensor::matmul`]). Zero-padded panel lanes
//! contribute exactly `+0.0` per step, which cannot change any partial
//! sum.
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
/// Rows of `A` per packed block — the parallel fan-out granularity.
pub(crate) const MC: usize = 64;
/// Depth (`k`) per packed slab.
pub(crate) const KC: usize = 256;

/// Below this flop count (`2·m·k·n`) the packed path's pack/zero
/// overhead beats its cache wins and [`gemm_into`] falls back to a
/// naive ikj loop. Chosen conservatively; the conformance fuzzer covers
/// both sides of the boundary.
pub(crate) const PACKED_MIN_FLOPS: usize = 1 << 13;

/// A rank-2 operand view: `data` interpreted as row-major
/// `rows × cols`, or its transpose when `trans` is set (so the logical
/// matrix is `cols × rows` read column-major). Lets the convolution
/// kernels multiply by `Wᵀ` and `colsᵀ` without materializing
/// transposes.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    /// Logical row count (after any transposition).
    pub rows: usize,
    /// Logical column count (after any transposition).
    pub cols: usize,
    trans: bool,
}

impl<'a> MatRef<'a> {
    /// Row-major `rows × cols` view.
    pub(crate) fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        MatRef {
            data,
            rows,
            cols,
            trans: false,
        }
    }

    /// Transposed view of row-major `rows × cols` storage: the logical
    /// matrix is `cols × rows`.
    pub(crate) fn transposed(data: &'a [f32], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        MatRef {
            data,
            rows: cols,
            cols: rows,
            trans: true,
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        if self.trans {
            self.data[c * self.rows + r]
        } else {
            self.data[r * self.cols + c]
        }
    }
}

/// Packs `A[rows.start..rows.end, k0..k0+kc]` into `MR`-row panels:
/// panel `p` holds rows `rows.start + p·MR ..`, stored column-major
/// within the panel (`apack[panel][depth][lane]`), zero-padded to a
/// full `MR` lanes.
fn pack_a(apack: &mut [f32], a: &MatRef<'_>, rows: std::ops::Range<usize>, k0: usize, kc: usize) {
    let nrows = rows.len();
    let panels = nrows.div_ceil(MR);
    debug_assert!(apack.len() >= panels * kc * MR);
    for panel in 0..panels {
        let base = panel * kc * MR;
        let r0 = rows.start + panel * MR;
        let lanes = MR.min(rows.end - r0);
        let dst = &mut apack[base..base + kc * MR];
        if a.trans && lanes == MR {
            // Transposed storage keeps a panel's `MR` lanes contiguous
            // per depth step: straight `MR`-wide copies.
            for (p, chunk) in dst.chunks_exact_mut(MR).enumerate() {
                let src = (k0 + p) * a.rows + r0;
                chunk.copy_from_slice(&a.data[src..src + MR]);
            }
        } else if !a.trans && lanes == MR {
            // Row-major storage: each lane's depth run is contiguous;
            // read rows sequentially, scatter into the panel stride.
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

/// Packs `B[k0..k0+kc, 0..n]` into `NR`-column panels: panel `q` holds
/// columns `q·NR ..`, stored row-major within the panel
/// (`bpack[panel][depth][lane]`), zero-padded to a full `NR` lanes.
fn pack_b(bpack: &mut [f32], b: &MatRef<'_>, k0: usize, kc: usize, n: usize) {
    let panels = n.div_ceil(NR);
    debug_assert!(bpack.len() >= panels * kc * NR);
    for panel in 0..panels {
        let base = panel * kc * NR;
        let c0 = panel * NR;
        let lanes = NR.min(n - c0);
        let dst = &mut bpack[base..base + kc * NR];
        if !b.trans && lanes == NR {
            // Row-major storage keeps a panel's `NR` lanes contiguous
            // per depth step: straight `NR`-wide copies.
            for (p, chunk) in dst.chunks_exact_mut(NR).enumerate() {
                let src = (k0 + p) * b.cols + c0;
                chunk.copy_from_slice(&b.data[src..src + NR]);
            }
        } else if b.trans && lanes == NR {
            // Transposed storage: each lane's depth run is contiguous;
            // read columns sequentially, scatter into the panel stride.
            for lane in 0..NR {
                let src = &b.data[(c0 + lane) * b.rows + k0..][..kc];
                for (chunk, &v) in dst.chunks_exact_mut(NR).zip(src) {
                    chunk[lane] = v;
                }
            }
        } else {
            for p in 0..kc {
                let dst = &mut dst[p * NR..p * NR + NR];
                for (lane, d) in dst.iter_mut().enumerate() {
                    *d = if lane < lanes {
                        b.at(k0 + p, c0 + lane)
                    } else {
                        0.0
                    };
                }
            }
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
/// loop has a single exit. Once inlined into [`gemm_rows_packed_epi`],
/// the loop must keep the `acc` tile in registers with no per-step
/// copies: check the disassembly after changing this loop or its caller
/// (EXPERIMENTS.md, "One GEMM kernel").
#[inline]
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

/// A `k × n` operand packed into `KC`-deep slabs of `NR`-column panels,
/// reusable across row-panel tasks. Every slab before the last has full
/// `KC` depth, so slab `s` starts at the closed-form offset
/// `panels_n · NR · KC · s` — no per-call offset table, which keeps
/// steady-state packing allocation-free.
pub(crate) struct PackedB {
    buf: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs all of `b` into pooled scratch; callers should call
    /// [`PackedB::recycle`] when done.
    pub(crate) fn pack(b: &MatRef<'_>) -> PackedB {
        let (k, n) = (b.rows, b.cols);
        let panels_n = n.div_ceil(NR);
        let slabs = k.div_ceil(KC).max(1);
        let last_kc = k - (slabs - 1) * KC;
        let total = panels_n * NR * ((slabs - 1) * KC + last_kc);
        // Scratch: pack_b overwrites every element below `total`.
        let mut buf = pool::take_scratch(total);
        for s in 0..slabs {
            let kc = KC.min(k - s * KC);
            pack_b(&mut buf[Self::offset_for(panels_n, s)..], b, s * KC, kc, n);
        }
        PackedB { buf, k, n }
    }

    /// Number of `KC`-deep slabs.
    fn slabs(&self) -> usize {
        self.k.div_ceil(KC).max(1)
    }

    /// Start of slab `s` in `buf`.
    fn offset_for(panels_n: usize, s: usize) -> usize {
        panels_n * NR * KC * s
    }

    /// Returns the scratch buffer to the pool.
    pub(crate) fn recycle(self) {
        pool::give(self.buf);
    }
}

/// Writeback fusion applied to each output tile immediately after its
/// final `k`-slab (so the `C` region is touched once, while it is
/// still cache-hot).
///
/// ## Bitwise contract
///
/// The bias replicates the exact per-element operation order of the
/// historical separate pass over the finished GEMM output: it is
/// indexed by **absolute output row** and added with the same
/// `if bv != 0.0 { c += bv }` skip the unfused conv bias pass uses (the
/// skip is itself bitwise-relevant: `0.0 + (-0.0)` would canonicalize
/// `-0.0` outputs).
///
/// A tile's epilogue only runs once every one of its `k`-slabs has
/// accumulated, so per-element results are identical to running the
/// full GEMM first and the bias pass second, at any row-range split.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// Plain accumulate — the historical behavior.
    None,
    /// Per-output-row bias add (`bias.len() == m`, row = out channel).
    Bias(&'a [f32]),
}

/// Applies `epi` to the finalized `mr × cols` tile at
/// (`c_row0`, `c_col0`) of the rows-relative output slice `c`.
/// `rows_start` maps tile rows back to absolute output rows for the
/// bias lookup.
#[allow(clippy::too_many_arguments)]
fn apply_epilogue(
    epi: Epilogue<'_>,
    c: &mut [f32],
    rows_start: usize,
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
        let bv = bias[rows_start + c_row0 + i];
        if bv != 0.0 {
            let row = &mut c[(c_row0 + i) * n + c_col0..(c_row0 + i) * n + c_col0 + cols];
            for slot in row.iter_mut() {
                *slot += bv;
            }
        }
    }
}

/// Multiplies rows `rows` of `a` (`m × k`) with pre-packed `b`
/// (`k × n`), **adding** into `c`, which holds exactly those output
/// rows (`rows.len() × n`, rows-relative). Accumulation order per
/// element: slabs ascending, sequential within a slab — a pure function
/// of the shapes, so any row-range split of the same product is bitwise
/// identical to the unsplit run.
pub(crate) fn gemm_rows_packed(
    c: &mut [f32],
    a: &MatRef<'_>,
    bp: &PackedB,
    rows: std::ops::Range<usize>,
) {
    gemm_rows_packed_epi(c, a, bp, rows, Epilogue::None)
}

/// [`gemm_rows_packed`] plus a fused writeback [`Epilogue`]: each tile
/// gets its bias applied right after its last `k`-slab (see the
/// [`Epilogue`] bitwise contract).
pub(crate) fn gemm_rows_packed_epi(
    c: &mut [f32],
    a: &MatRef<'_>,
    bp: &PackedB,
    rows: std::ops::Range<usize>,
    epi: Epilogue<'_>,
) {
    let (k, n) = (bp.k, bp.n);
    debug_assert_eq!(a.cols, k);
    debug_assert_eq!(c.len(), rows.len() * n);
    let panels_n = n.div_ceil(NR);
    let last_slab = bp.slabs() - 1;
    // Scratch: every microkernel read is preceded by a pack_a write of
    // the same region (panels × kc × MR), so skip the zero-fill.
    let mut apack = pool::take_scratch(MC.div_ceil(MR) * MR * KC);
    let mut r0 = rows.start;
    while r0 < rows.end {
        let mc = MC.min(rows.end - r0);
        let panels_m = mc.div_ceil(MR);
        for s in 0..bp.slabs() {
            let slab_off = PackedB::offset_for(panels_n, s);
            let k0 = s * KC;
            let kc = KC.min(k - k0);
            pack_a(&mut apack, a, r0..r0 + mc, k0, kc);
            for pm in 0..panels_m {
                let apanel = &apack[pm * kc * MR..(pm + 1) * kc * MR];
                let mr = MR.min(mc - pm * MR);
                let c_row0 = r0 + pm * MR - rows.start;
                for pn in 0..panels_n {
                    let nr = NR.min(n - pn * NR);
                    let off = slab_off + pn * kc * NR;
                    let bpanel = &bp.buf[off..off + kc * NR];
                    microkernel(apanel, bpanel, kc, c, c_row0, pn * NR, n, mr, nr);
                    if s == last_slab {
                        apply_epilogue(epi, c, rows.start, c_row0, pn * NR, n, mr, nr);
                    }
                }
            }
        }
        r0 += mc;
    }
    pool::give(apack);
}

/// Naive ikj fallback for problems too small to amortize packing.
/// Accumulates into `c` like the packed path.
fn gemm_naive(c: &mut [f32], a: &MatRef<'_>, b: &MatRef<'_>) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = a.at(i, p);
            if !b.trans {
                let b_row = &b.data[p * n..(p + 1) * n];
                for (slot, &bv) in c_row.iter_mut().zip(b_row) {
                    *slot += aip * bv;
                }
            } else {
                for (j, slot) in c_row.iter_mut().enumerate() {
                    *slot += aip * b.at(p, j);
                }
            }
        }
    }
}

/// `C += A · B` for logical `m × k` and `k × n` operands, choosing the
/// packed-blocked or naive kernel from the shapes alone. `c` must
/// already hold the desired initial values (zeros for a plain product).
pub(crate) fn gemm_into(c: &mut [f32], a: &MatRef<'_>, b: &MatRef<'_>) {
    gemm_into_epi(c, a, b, Epilogue::None)
}

/// [`gemm_into`] plus a fused writeback [`Epilogue`]. The packed path
/// applies the epilogue per finalized tile; the naive path runs the
/// full product first and then one bias pass over the rows — the two
/// orders are bitwise identical per element (every element's GEMM
/// accumulation completes before its epilogue op either way).
pub(crate) fn gemm_into_epi(c: &mut [f32], a: &MatRef<'_>, b: &MatRef<'_>, epi: Epilogue<'_>) {
    debug_assert_eq!(a.cols, b.rows, "gemm inner dimension");
    debug_assert_eq!(c.len(), a.rows * b.cols, "gemm output size");
    if use_packed(a.rows, a.cols, b.cols) {
        let _span = deco_telemetry::span!("tensor.gemm");
        let bp = PackedB::pack(b);
        gemm_rows_packed_epi(c, a, &bp, 0..a.rows, epi);
        bp.recycle();
    } else {
        gemm_naive(c, a, b);
        let n = b.cols;
        for r in 0..a.rows {
            apply_epilogue(epi, c, 0, r, 0, n, 1, n);
        }
    }
}

/// Shape-only heuristic for the packed path (shared with
/// [`Tensor::matmul`]'s parallel dispatch so serial and parallel runs
/// agree on the kernel).
///
/// [`Tensor::matmul`]: crate::Tensor::matmul
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

    #[test]
    fn transposed_views_agree_with_materialized_transpose() {
        let mut rng = crate::Rng::new(12);
        let (m, k, n) = (17, 23, 11);
        // A stored as kᵗʰ-major (k × m), B stored as n × k.
        let a_t = randv(k * m, &mut rng);
        let b_t = randv(n * k, &mut rng);
        let mut a = vec![0.0f32; m * k];
        for r in 0..m {
            for c in 0..k {
                a[r * k + c] = a_t[c * m + r];
            }
        }
        let mut b = vec![0.0f32; k * n];
        for r in 0..k {
            for c in 0..n {
                b[r * n + c] = b_t[c * k + r];
            }
        }
        let mut c1 = vec![0.0f32; m * n];
        gemm_into(&mut c1, &MatRef::new(&a, m, k), &MatRef::new(&b, k, n));
        let mut c2 = vec![0.0f32; m * n];
        gemm_into(
            &mut c2,
            &MatRef::transposed(&a_t, k, m),
            &MatRef::transposed(&b_t, n, k),
        );
        assert_eq!(c1, c2, "views must select identical elements");
    }

    #[test]
    fn row_range_split_is_bitwise_equal_to_full_run() {
        let mut rng = crate::Rng::new(13);
        let (m, k, n) = (150, 90, 40);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let av = MatRef::new(&a, m, k);
        let bp = PackedB::pack(&MatRef::new(&b, k, n));
        let mut full = vec![0.0f32; m * n];
        gemm_rows_packed(&mut full, &av, &bp, 0..m);
        let mut split = vec![0.0f32; m * n];
        // Split at MC boundaries — the parallel fan-out granularity.
        gemm_rows_packed(&mut split[..MC * n], &av, &bp, 0..MC);
        gemm_rows_packed(&mut split[MC * n..2 * MC * n], &av, &bp, MC..2 * MC);
        gemm_rows_packed(&mut split[2 * MC * n..], &av, &bp, 2 * MC..m);
        bp.recycle();
        assert!(full
            .iter()
            .zip(&split)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn epilogue_is_bitwise_equal_to_separate_pass() {
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
            let mut bias = randv(m, &mut rng);
            bias[0] = 0.0; // exercise the zero-skip
            let mut fused = vec![0.0f32; m * n];
            gemm_into_epi(
                &mut fused,
                &MatRef::new(&a, m, k),
                &MatRef::new(&b, k, n),
                Epilogue::Bias(&bias),
            );
            let mut unfused = vec![0.0f32; m * n];
            gemm_into(&mut unfused, &MatRef::new(&a, m, k), &MatRef::new(&b, k, n));
            for r in 0..m {
                let bv = bias[r];
                if bv != 0.0 {
                    for slot in unfused[r * n..(r + 1) * n].iter_mut() {
                        *slot += bv;
                    }
                }
            }
            assert!(
                fused
                    .iter()
                    .zip(&unfused)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn epilogue_row_range_split_matches_full_run() {
        // The bias lookup must use absolute output rows, so a row-range
        // split sees the same per-row bias as the unsplit run.
        let mut rng = crate::Rng::new(15);
        let (m, k, n) = (150, 90, 40);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let bias = randv(m, &mut rng);
        let av = MatRef::new(&a, m, k);
        let bp = PackedB::pack(&MatRef::new(&b, k, n));
        let epi = Epilogue::Bias(&bias);
        let mut full = vec![0.0f32; m * n];
        gemm_rows_packed_epi(&mut full, &av, &bp, 0..m, epi);
        let mut split = vec![0.0f32; m * n];
        gemm_rows_packed_epi(&mut split[..MC * n], &av, &bp, 0..MC, epi);
        gemm_rows_packed_epi(&mut split[MC * n..2 * MC * n], &av, &bp, MC..2 * MC, epi);
        gemm_rows_packed_epi(&mut split[2 * MC * n..], &av, &bp, 2 * MC..m, epi);
        bp.recycle();
        assert!(full
            .iter()
            .zip(&split)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
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
