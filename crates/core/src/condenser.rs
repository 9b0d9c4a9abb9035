//! The DECO condenser (paper §III-C–E, Algorithm 1 inner loop).
//!
//! Per condensation iteration:
//! 1. re-randomize the scratch model `θ̃`;
//! 2. for every active class, run one-step gradient matching (Eqs. 5–7):
//!    match `∇_θ̃ L(S_c)` against the confidence-weighted `∇_θ̃ L(I_c)` and
//!    obtain `∇_X D` through the finite-difference trick;
//! 3. compute the feature-discrimination gradient (Eq. 8) through the
//!    *deployed* model's encoder;
//! 4. apply the combined update (Eq. 9): `opt_S(∇_S D + α ∇_S L_disc)`.

use deco_condense::{
    class_match_job, match_classes_parallel, ClassMatchJob, CondenseContext, Condenser,
    MatchResult, SegmentData, SyntheticBuffer,
};
use deco_nn::{feature_discrimination_loss, DiscriminationSpec, Sgd};
use deco_tensor::{Rng, Tensor, Var};

use crate::config::DecoConfig;

/// The paper's efficient on-device condenser.
///
/// Implements [`Condenser`], so it plugs into the same on-device learning
/// loop as the DC/DSA/DM baselines.
pub struct DecoCondenser {
    config: DecoConfig,
    opt_s: Sgd,
    last_distances: Vec<f32>,
}

impl std::fmt::Debug for DecoCondenser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecoCondenser")
            .field("config", &self.config)
            .finish()
    }
}

impl DecoCondenser {
    /// Creates the condenser.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(config: DecoConfig) -> Self {
        config.validate();
        DecoCondenser {
            config,
            opt_s: Sgd::new(config.image_lr).with_momentum(0.5),
            last_distances: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DecoConfig {
        &self.config
    }

    /// Snapshot of the synthetic-image optimizer's momentum state, for
    /// session persistence. `opt_S` carries velocity across segments, so a
    /// bit-exact resume must round-trip it.
    pub fn opt_state(&self) -> Vec<Option<Tensor>> {
        self.opt_s.velocity_snapshot()
    }

    /// Restores a previously captured [`DecoCondenser::opt_state`].
    pub fn restore_opt_state(&mut self, velocity: Vec<Option<Tensor>>) {
        self.opt_s.set_velocity(velocity);
    }

    /// Begins a condensation pass over one segment: clears the distance
    /// diagnostics and resolves the buffer rows the pass may touch.
    /// Returns `None` when there is nothing to condense (no active rows),
    /// in which case the pass is over — exactly the early return of
    /// [`Condenser::condense`]. Consumes no RNG.
    pub fn begin_segment(
        &mut self,
        buffer: &SyntheticBuffer,
        active_classes: &[usize],
    ) -> Option<Vec<usize>> {
        self.last_distances.clear();
        let active_rows = buffer.rows_for_classes(active_classes);
        if active_rows.is_empty() {
            None
        } else {
            Some(active_rows)
        }
    }

    /// Builds one iteration's matching jobs: re-randomizes the scratch
    /// model (consuming RNG exactly as the monolithic loop does) and
    /// packages one [`ClassMatchJob`] per active class with data. Returns
    /// the per-job buffer rows alongside the jobs; feed the match results
    /// to [`DecoCondenser::apply_iteration`] in the same order.
    pub fn build_iteration(
        &self,
        buffer: &SyntheticBuffer,
        segment: &SegmentData<'_>,
        ctx: &mut CondenseContext<'_>,
    ) -> (Vec<Vec<usize>>, Vec<ClassMatchJob>) {
        // Fresh random model for this one-step match.
        ctx.scratch.reinit(ctx.rng);
        segment
            .active_classes
            .iter()
            .filter_map(|&class| class_match_job(buffer, segment, class, None))
            .unzip()
    }

    /// Applies one iteration's match results: scatters the per-class image
    /// gradients, records distances, adds the feature-discrimination term
    /// (consuming RNG in the same order as the monolithic loop), and takes
    /// the `opt_S` step (Eq. 9).
    ///
    /// # Panics
    /// Panics if `results` and `rows_list` lengths differ.
    pub fn apply_iteration(
        &mut self,
        buffer: &mut SyntheticBuffer,
        active_rows: &[usize],
        rows_list: &[Vec<usize>],
        results: &[MatchResult],
        ctx: &mut CondenseContext<'_>,
    ) {
        assert_eq!(rows_list.len(), results.len(), "result/row count mismatch");
        let frame_numel = buffer.images().numel() / buffer.len();
        let mut total_grad = Tensor::zeros(buffer.images().shape().dims().to_vec());
        for (rows, res) in rows_list.iter().zip(results) {
            self.last_distances.push(res.distance);
            // Scatter the class gradient into the full-buffer gradient.
            let dst = total_grad.data_mut();
            for (r, &row) in rows.iter().enumerate() {
                let src = &res.image_grad.data()[r * frame_numel..(r + 1) * frame_numel];
                dst[row * frame_numel..(row + 1) * frame_numel].copy_from_slice(src);
            }
        }

        // Feature-discrimination term (Eq. 8), weighted by α (Eq. 9).
        if let Some(disc) = self.discrimination_grad(buffer, active_rows, ctx) {
            total_grad.add_scaled(&disc, self.config.alpha);
        }

        // opt_S update (Eq. 9).
        let mut images = buffer.images().clone();
        self.opt_s.step_slot(0, &mut images, &total_grad);
        buffer.set_images(images);
    }

    /// The matching distances observed on the last condensed segment (one
    /// per iteration × active class) — useful for diagnostics and the
    /// ablation benches.
    pub fn last_distances(&self) -> &[f32] {
        &self.last_distances
    }

    /// Draws a negative class different from `own` (requires ≥ 2 classes).
    fn negative_class(own: usize, num_classes: usize, rng: &mut Rng) -> usize {
        debug_assert!(num_classes >= 2);
        loop {
            let c = rng.below(num_classes);
            if c != own {
                return c;
            }
        }
    }

    /// The feature-discrimination gradient w.r.t. all buffer images
    /// (Eq. 8), computed through the deployed encoder. Returns `None` when
    /// disabled (α = 0) or not applicable (a single class).
    fn discrimination_grad(
        &self,
        buffer: &SyntheticBuffer,
        active_rows: &[usize],
        ctx: &mut CondenseContext<'_>,
    ) -> Option<Tensor> {
        if self.config.alpha == 0.0 || buffer.num_classes() < 2 {
            return None;
        }
        let labels = buffer.labels();
        let spec = DiscriminationSpec {
            active: active_rows.to_vec(),
            negative_class: active_rows
                .iter()
                .map(|&i| Self::negative_class(labels[i], buffer.num_classes(), ctx.rng))
                .collect(),
        };
        let leaf = Var::leaf(buffer.images().clone(), true);
        let z = ctx.deployed.features(&leaf, true);
        let loss = feature_discrimination_loss(&z, labels, &spec, self.config.tau);
        loss.backward();
        leaf.grad()
    }
}

impl Condenser for DecoCondenser {
    fn name(&self) -> &'static str {
        "DECO"
    }

    fn condense(
        &mut self,
        buffer: &mut SyntheticBuffer,
        segment: &SegmentData<'_>,
        ctx: &mut CondenseContext<'_>,
    ) {
        let Some(active_rows) = self.begin_segment(buffer, segment.active_classes) else {
            return;
        };
        for _ in 0..self.config.iterations {
            let _outer = deco_telemetry::span!("condense.deco.outer");
            // Gradient-matching term, per active class (Eq. 5–7), fanned
            // out across the deco-runtime pool. Results return in class
            // order, so distances and the gradient scatter are identical
            // at any thread count.
            let (rows_list, jobs) = self.build_iteration(buffer, segment, ctx);
            let results = match_classes_parallel(
                *ctx.scratch.config(),
                ctx.scratch.get_params(),
                jobs,
                self.config.epsilon_scale,
            );
            self.apply_iteration(buffer, &active_rows, &rows_list, &results, ctx);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use deco_nn::{ConvNet, ConvNetConfig};

    fn tiny_net(rng: &mut Rng, classes: usize) -> ConvNet {
        ConvNet::new(
            ConvNetConfig {
                in_channels: 1,
                image_side: 8,
                width: 4,
                depth: 2,
                num_classes: classes,
                norm: true,
            },
            rng,
        )
    }

    fn class_structured_segment(
        rng: &mut Rng,
        classes: usize,
        per_class: usize,
    ) -> (Tensor, Vec<usize>, Vec<f32>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for class in 0..classes {
            for _ in 0..per_class {
                for p in 0..64usize {
                    let base = (((class * 29 + p * 7) % 11) as f32) / 5.0 - 1.0;
                    data.push(base + 0.2 * rng.normal());
                }
                labels.push(class);
            }
        }
        let n = classes * per_class;
        (
            Tensor::from_vec(data, [n, 1, 8, 8]),
            labels.clone(),
            vec![1.0; n],
        )
    }

    fn smoke_config() -> DecoConfig {
        DecoConfig::default().with_iterations(4)
    }

    #[test]
    fn deco_modifies_only_reachable_rows_and_stays_finite() {
        let mut rng = Rng::new(1);
        let scratch = tiny_net(&mut rng, 3);
        let deployed = tiny_net(&mut rng, 3);
        let (images, labels, weights) = class_structured_segment(&mut rng, 3, 5);
        let mut buffer = SyntheticBuffer::new_random(2, 3, [1, 8, 8], &mut rng);
        let seg = SegmentData {
            images: &images,
            labels: &labels,
            weights: &weights,
            active_classes: &[0, 2],
        };
        let mut deco = DecoCondenser::new(smoke_config());
        let mut ctx = CondenseContext {
            scratch: &scratch,
            deployed: &deployed,
            rng: &mut rng,
        };
        deco.condense(&mut buffer, &seg, &mut ctx);
        buffer.check_invariants();
        assert!(buffer.images().is_finite());
        assert!(!deco.last_distances().is_empty());
    }

    #[test]
    fn matching_distance_reflects_buffer_quality() {
        // A buffer initialized from real class data must match the real
        // gradients far better (lower mean distance across the random
        // matching models) than a noise-initialized buffer. This is the
        // signal DECO optimizes; per-iteration distances under freshly
        // randomized nets are individually noisy, so compare the means.
        let mut rng = Rng::new(2);
        let scratch = tiny_net(&mut rng, 2);
        let deployed = tiny_net(&mut rng, 2);
        let (images, labels, weights) = class_structured_segment(&mut rng, 2, 8);
        let seg = SegmentData {
            images: &images,
            labels: &labels,
            weights: &weights,
            active_classes: &[0, 1],
        };
        let mean_distance = |buffer: &mut SyntheticBuffer, seed: u64| -> f32 {
            let mut rng = Rng::new(seed);
            let mut deco = DecoCondenser::new(DecoConfig::default().with_iterations(15));
            let mut ctx = CondenseContext {
                scratch: &scratch,
                deployed: &deployed,
                rng: &mut rng,
            };
            deco.condense(buffer, &seg, &mut ctx);
            let ds = deco.last_distances();
            ds.iter().sum::<f32>() / ds.len() as f32
        };
        // Noise-initialized buffer.
        let mut noise_buf = SyntheticBuffer::new_random(2, 2, [1, 8, 8], &mut rng);
        // Buffer holding real samples of each class.
        let mut real_buf = noise_buf.clone();
        let real_rows = images.select_rows(&[0, 1, 8, 9]);
        real_buf.set_images(real_rows);
        let d_noise = mean_distance(&mut noise_buf, 99);
        let d_real = mean_distance(&mut real_buf, 99);
        assert!(
            d_real < d_noise * 0.8,
            "real-data buffer should match much better: real {d_real} vs noise {d_noise}"
        );
    }

    #[test]
    fn alpha_zero_disables_discrimination() {
        // With α = 0 and no matchable data (empty active set), nothing moves.
        let mut rng = Rng::new(3);
        let scratch = tiny_net(&mut rng, 2);
        let deployed = tiny_net(&mut rng, 2);
        let (images, labels, weights) = class_structured_segment(&mut rng, 2, 2);
        let mut buffer = SyntheticBuffer::new_random(1, 2, [1, 8, 8], &mut rng);
        let before = buffer.clone();
        let seg = SegmentData {
            images: &images,
            labels: &labels,
            weights: &weights,
            active_classes: &[],
        };
        let mut deco = DecoCondenser::new(smoke_config().with_alpha(0.0));
        let mut ctx = CondenseContext {
            scratch: &scratch,
            deployed: &deployed,
            rng: &mut rng,
        };
        deco.condense(&mut buffer, &seg, &mut ctx);
        assert_eq!(before.images().data(), buffer.images().data());
    }

    #[test]
    fn discrimination_touches_negative_rows_too() {
        // With matching suppressed (no real data of the active class in the
        // segment, α > 0), the contrastive term must still move features —
        // and its gradient reaches rows outside the active set (negatives).
        let mut rng = Rng::new(4);
        let scratch = tiny_net(&mut rng, 3);
        let deployed = tiny_net(&mut rng, 3);
        let (images, _, weights) = class_structured_segment(&mut rng, 3, 2);
        let wrong_labels = vec![0usize; 6]; // nothing labeled 1 or 2
        let mut buffer = SyntheticBuffer::new_random(2, 3, [1, 8, 8], &mut rng);
        let before = buffer.clone();
        let seg = SegmentData {
            images: &images,
            labels: &wrong_labels,
            weights: &weights,
            active_classes: &[1], // active but with zero matching data
        };
        let mut deco = DecoCondenser::new(smoke_config().with_alpha(1.0));
        let mut ctx = CondenseContext {
            scratch: &scratch,
            deployed: &deployed,
            rng: &mut rng,
        };
        deco.condense(&mut buffer, &seg, &mut ctx);
        // Active class rows moved…
        let rows1: Vec<usize> = buffer.class_rows(1).collect();
        assert_ne!(
            buffer.images().select_rows(&rows1).data(),
            before.images().select_rows(&rows1).data()
        );
        // …and at least one other row moved as a positive/negative partner.
        let other_rows: Vec<usize> = buffer.class_rows(0).chain(buffer.class_rows(2)).collect();
        assert_ne!(
            buffer.images().select_rows(&other_rows).data(),
            before.images().select_rows(&other_rows).data()
        );
    }

    #[test]
    fn empty_segment_is_a_noop() {
        let mut rng = Rng::new(5);
        let scratch = tiny_net(&mut rng, 2);
        let deployed = tiny_net(&mut rng, 2);
        let images = Tensor::zeros([0, 1, 8, 8]);
        let mut buffer = SyntheticBuffer::new_random(1, 2, [1, 8, 8], &mut rng);
        let before = buffer.clone();
        let seg = SegmentData {
            images: &images,
            labels: &[],
            weights: &[],
            active_classes: &[],
        };
        let mut deco = DecoCondenser::new(smoke_config());
        let mut ctx = CondenseContext {
            scratch: &scratch,
            deployed: &deployed,
            rng: &mut rng,
        };
        deco.condense(&mut buffer, &seg, &mut ctx);
        assert_eq!(before.images().data(), buffer.images().data());
    }
}
