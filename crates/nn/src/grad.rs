//! Gradient lists and the cosine matching distance.
//!
//! Gradient matching compares the model gradient computed on real data with
//! the one computed on synthetic data. A [`GradList`] holds one tensor per
//! parameter (in [`crate::ConvNet::params`] order); [`cosine_distance`]
//! implements the paper's distance `D` as a per-parameter-tensor cosine
//! distance sum, and [`cosine_distance_grad`] its closed-form derivative
//! w.r.t. the synthetic gradient — the `∇_{g_syn} D` term of Eq. 6 that the
//! finite-difference trick (Eq. 7) then pushes back into the images.

use deco_tensor::Tensor;

use crate::param::Param;

/// Norm threshold below which a gradient block is treated as zero.
///
/// This is deliberately far above machine noise: parameters that are
/// normalized away (e.g. a conv bias feeding an instance norm) receive
/// gradients of ~1e-7 that are pure floating-point residue. The cosine
/// between two such noise vectors is arbitrary and jumps O(1) under any
/// perturbation, which would make the matching distance non-smooth — so
/// blocks below this floor are excluded from the distance and its gradient.
const NORM_EPS: f64 = 1e-6;

/// One gradient tensor per model parameter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GradList(pub Vec<Tensor>);

impl GradList {
    /// Collects the most recent gradients of `params`, substituting zeros
    /// for parameters that received none, and releases each parameter's
    /// binding: after this, [`Param::grad`] reads `None` until the next
    /// forward pass binds it again.
    pub fn from_params(params: &[&Param]) -> Self {
        GradList(
            params
                .iter()
                .map(|p| {
                    p.take_grad()
                        .unwrap_or_else(|| Tensor::zeros(p.tensor().shape().clone()))
                })
                .collect(),
        )
    }

    /// Number of parameter blocks.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the list holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Total scalar count.
    pub fn numel(&self) -> usize {
        self.0.iter().map(Tensor::numel).sum()
    }

    /// Flattened dot product across all blocks.
    ///
    /// # Panics
    /// Panics on block count or shape mismatch.
    pub fn dot(&self, other: &GradList) -> f32 {
        assert_eq!(self.len(), other.len(), "gradient list length mismatch");
        self.0.iter().zip(&other.0).map(|(a, b)| a.dot(b)).sum()
    }

    /// Flattened Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.0
            .iter()
            .map(|t| {
                let n = t.l2_norm() as f64;
                n * n
            })
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Scales every block in place.
    pub fn scale_mut(&mut self, alpha: f32) {
        for t in &mut self.0 {
            t.scale_mut(alpha);
        }
    }

    /// In-place `self += alpha · other`.
    ///
    /// # Panics
    /// Panics on block count or shape mismatch.
    pub fn add_scaled(&mut self, other: &GradList, alpha: f32) {
        assert_eq!(self.len(), other.len(), "gradient list length mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.add_scaled(b, alpha);
        }
    }

    /// The underlying tensors.
    pub fn tensors(&self) -> &[Tensor] {
        &self.0
    }
}

impl FromIterator<Tensor> for GradList {
    fn from_iter<I: IntoIterator<Item = Tensor>>(iter: I) -> Self {
        GradList(iter.into_iter().collect())
    }
}

/// The gradient-matching distance `D`: the sum over parameter blocks of
/// `1 − cos(g_syn_b, g_real_b)`.
///
/// Blocks where either side has (near-)zero norm contribute `0` — a zero
/// gradient carries no direction to match and this keeps the distance and
/// its derivative finite.
///
/// # Panics
/// Panics on block count mismatch.
pub fn cosine_distance(g_syn: &GradList, g_real: &GradList) -> f32 {
    assert_eq!(g_syn.len(), g_real.len(), "gradient list length mismatch");
    let mut total = 0.0f64;
    for (a, b) in g_syn.0.iter().zip(&g_real.0) {
        let na = a.l2_norm() as f64;
        let nb = b.l2_norm() as f64;
        if na < NORM_EPS || nb < NORM_EPS {
            continue;
        }
        total += 1.0 - (a.dot(b) as f64) / (na * nb);
    }
    total as f32
}

/// Closed-form gradient of [`cosine_distance`] w.r.t. `g_syn`:
///
/// `∂D/∂g = −r/(‖g‖‖r‖) + (g·r)·g/(‖g‖³‖r‖)` per block.
///
/// Blocks skipped by the zero-norm rule get a zero gradient.
///
/// # Panics
/// Panics on block count mismatch.
pub fn cosine_distance_grad(g_syn: &GradList, g_real: &GradList) -> GradList {
    assert_eq!(g_syn.len(), g_real.len(), "gradient list length mismatch");
    let mut out = Vec::with_capacity(g_syn.len());
    for (g, r) in g_syn.0.iter().zip(&g_real.0) {
        let ng = g.l2_norm() as f64;
        let nr = r.l2_norm() as f64;
        if ng < NORM_EPS || nr < NORM_EPS {
            out.push(Tensor::zeros(g.shape().clone()));
            continue;
        }
        let dotgr = g.dot(r) as f64;
        let c1 = (-1.0 / (ng * nr)) as f32;
        let c2 = (dotgr / (ng * ng * ng * nr)) as f32;
        let mut block = r * c1;
        block.add_scaled(g, c2);
        out.push(block);
    }
    GradList(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_tensor::Rng;

    fn glist(rng: &mut Rng, shapes: &[&[usize]]) -> GradList {
        shapes
            .iter()
            .map(|s| Tensor::randn(s.to_vec(), rng))
            .collect()
    }

    #[test]
    fn distance_zero_for_identical_direction() {
        let mut rng = Rng::new(1);
        let g = glist(&mut rng, &[&[4], &[2, 2]]);
        let mut scaled = g.clone();
        scaled.scale_mut(3.0); // cosine is scale-invariant
        assert!(cosine_distance(&g, &scaled).abs() < 1e-5);
    }

    #[test]
    fn distance_two_per_block_for_opposite() {
        let mut rng = Rng::new(2);
        let g = glist(&mut rng, &[&[8]]);
        let mut opp = g.clone();
        opp.scale_mut(-1.0);
        assert!((cosine_distance(&g, &opp) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn distance_bounded_by_two_per_block() {
        let mut rng = Rng::new(3);
        for _ in 0..20 {
            let a = glist(&mut rng, &[&[5], &[3, 3]]);
            let b = glist(&mut rng, &[&[5], &[3, 3]]);
            let d = cosine_distance(&a, &b);
            assert!((0.0..=4.0 + 1e-5).contains(&d), "distance {d}");
        }
    }

    #[test]
    fn zero_blocks_are_skipped() {
        let mut rng = Rng::new(4);
        let a = GradList(vec![Tensor::zeros([4]), Tensor::randn([4], &mut rng)]);
        let b = glist(&mut rng, &[&[4], &[4]]);
        let d = cosine_distance(&a, &b);
        assert!(d.is_finite());
        let g = cosine_distance_grad(&a, &b);
        assert_eq!(g.0[0], Tensor::zeros([4]));
    }

    #[test]
    fn grad_matches_finite_difference() {
        let mut rng = Rng::new(5);
        let g = glist(&mut rng, &[&[6]]);
        let r = glist(&mut rng, &[&[6]]);
        let analytic = cosine_distance_grad(&g, &r);
        let eps = 1e-3;
        for i in 0..6 {
            let mut gp = g.clone();
            gp.0[0].data_mut()[i] += eps;
            let mut gm = g.clone();
            gm.0[0].data_mut()[i] -= eps;
            let num = (cosine_distance(&gp, &r) - cosine_distance(&gm, &r)) / (2.0 * eps);
            let ana = analytic.0[0].data()[i];
            assert!((num - ana).abs() < 1e-3, "elem {i}: {num} vs {ana}");
        }
    }

    #[test]
    fn grad_is_orthogonal_to_g() {
        // Cosine distance is scale-invariant in g, so ∇_g D ⟂ g.
        let mut rng = Rng::new(6);
        let g = glist(&mut rng, &[&[10]]);
        let r = glist(&mut rng, &[&[10]]);
        let grad = cosine_distance_grad(&g, &r);
        let inner = g.dot(&grad);
        assert!(inner.abs() < 1e-4, "g·∇D = {inner}");
    }

    #[test]
    fn gradlist_algebra() {
        let mut rng = Rng::new(7);
        let mut a = glist(&mut rng, &[&[3], &[2, 2]]);
        let b = a.clone();
        assert_eq!(a.numel(), 7);
        let n = a.norm();
        assert!((a.dot(&b) - n * n).abs() < 1e-3);
        a.add_scaled(&b, -1.0);
        assert!(a.norm() < 1e-6);
    }
}
