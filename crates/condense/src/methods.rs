//! The condensation baselines of Table II: DC (vanilla bilevel gradient
//! matching), DSA (DC + differentiable siamese augmentation) and DM
//! (distribution matching). DECO itself lives in the `deco` crate and
//! shares the same [`Condenser`] interface.

use deco_nn::{weighted_cross_entropy, ConvNet, Sgd};
use deco_tensor::{Reduction, Rng, Tensor, Var};

use crate::augment::Augmentation;
use crate::buffer::SyntheticBuffer;
use crate::matcher::{match_classes_parallel, ClassMatchJob};

/// A labeled, filtered stream segment ready for condensation.
#[derive(Debug, Clone, Copy)]
pub struct SegmentData<'a> {
    /// `[b, c, h, w]` images of the segment that survived filtering.
    pub images: &'a Tensor,
    /// Their pseudo-labels.
    pub labels: &'a [usize],
    /// Their pseudo-label confidences (Eq. 4 weights).
    pub weights: &'a [f32],
    /// The active classes `C_t^A` of this segment.
    pub active_classes: &'a [usize],
}

impl SegmentData<'_> {
    /// Indices of segment items pseudo-labeled `class`.
    pub fn indices_of_class(&self, class: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &y)| (y == class).then_some(i))
            .collect()
    }
}

/// Models and randomness available to a condensation step.
#[derive(Debug)]
pub struct CondenseContext<'a> {
    /// A matching-only scratch network the condenser may re-initialize and
    /// train freely; *not* the deployed on-device model.
    pub scratch: &'a ConvNet,
    /// The deployed on-device model (DECO's feature-discrimination encoder
    /// `f_θ`; untouched by the baseline condensers).
    pub deployed: &'a ConvNet,
    /// Deterministic randomness for the step.
    pub rng: &'a mut Rng,
}

/// A buffer-condensation method: distills one stream segment into the
/// synthetic buffer.
pub trait Condenser {
    /// Display name used in reports (e.g. `"DC"`).
    fn name(&self) -> &'static str;

    /// Condenses `segment` into `buffer`.
    fn condense(
        &mut self,
        buffer: &mut SyntheticBuffer,
        segment: &SegmentData<'_>,
        ctx: &mut CondenseContext<'_>,
    );

    /// Downcast hook for condensers with method-specific extensions (the
    /// phased DECO API used by the serving scheduler, persistence of
    /// optimizer state). Baselines keep the default `None`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Shared-reference counterpart of [`Condenser::as_any_mut`].
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Trains `net` on the buffer for `steps` SGD steps (the inner loop of the
/// bilevel methods). Returns the last loss.
pub fn train_on_buffer(
    net: &ConvNet,
    buffer: &SyntheticBuffer,
    steps: usize,
    opt: &mut Sgd,
) -> f32 {
    let (images, labels) = buffer.as_training_batch();
    let mut last = 0.0;
    for _ in 0..steps {
        let logits = net.forward(&Var::constant(images.clone()), false);
        let loss = weighted_cross_entropy(&logits, &labels, None, Reduction::Mean);
        loss.backward();
        opt.step(&net.params());
        last = loss.value().item();
    }
    last
}

/// Packages the matching inputs of `class` as a pool-dispatchable job, or
/// `None` when the segment holds no samples of it. The returned `rows` are
/// the buffer rows the job's image gradient applies to.
pub fn class_match_job(
    buffer: &SyntheticBuffer,
    segment: &SegmentData<'_>,
    class: usize,
    aug: Option<Augmentation>,
) -> Option<(Vec<usize>, ClassMatchJob)> {
    let idx = segment.indices_of_class(class);
    if idx.is_empty() {
        return None;
    }
    let rows: Vec<usize> = buffer.class_rows(class).collect();
    let job = ClassMatchJob {
        syn_images: buffer.images().select_rows(&rows),
        syn_labels: vec![class; rows.len()],
        real_images: segment.images.select_rows(&idx),
        real_labels: vec![class; idx.len()],
        real_weights: Some(idx.iter().map(|&i| segment.weights[i]).collect()),
        aug,
    };
    Some((rows, job))
}

/// One matching round shared by DC and DSA: evaluates every active class
/// across the `deco-runtime` pool, then applies the image updates in class
/// order. Per-class buffer rows are disjoint, so evaluate-then-apply
/// computes exactly what the old class-by-class loop did.
fn match_round_and_update(
    buffer: &mut SyntheticBuffer,
    segment: &SegmentData<'_>,
    scratch: &ConvNet,
    augs: &mut dyn FnMut(&mut Rng) -> Option<Augmentation>,
    rng: &mut Rng,
    image_lr: f32,
    epsilon_scale: f32,
) {
    let (rows, jobs): (Vec<_>, Vec<_>) = segment
        .active_classes
        .iter()
        .filter_map(|&class| {
            // Draw the augmentation before the empty-class check so the
            // RNG stream matches the historical per-class loop exactly.
            let aug = augs(rng);
            class_match_job(buffer, segment, class, aug)
        })
        .unzip();
    let results =
        match_classes_parallel(*scratch.config(), scratch.get_params(), jobs, epsilon_scale);
    for (rows, res) in rows.iter().zip(&results) {
        buffer.add_scaled_rows(rows, &res.image_grad, -image_lr);
    }
}

/// Configuration of the vanilla DC condenser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcConfig {
    /// Outer random model initializations (`K`).
    pub outer_inits: usize,
    /// Matching epochs per initialization (`T`).
    pub matching_rounds: usize,
    /// Inner model-training steps on `S` after each matching epoch.
    pub model_steps_per_round: usize,
    /// Learning rate for the synthetic images.
    pub image_lr: f32,
    /// Learning rate for the inner model updates.
    pub model_lr: f32,
    /// The finite-difference scale `ε` numerator.
    pub epsilon_scale: f32,
}

impl Default for DcConfig {
    fn default() -> Self {
        DcConfig {
            outer_inits: 6,
            matching_rounds: 8,
            model_steps_per_round: 2,
            image_lr: 0.2,
            model_lr: 0.01,
            epsilon_scale: 0.01,
        }
    }
}

/// Vanilla gradient matching (Zhao et al., “Dataset Condensation with
/// Gradient Matching”): a bilevel loop that alternates per-class matching
/// updates with inner model training on the synthetic set — faithful in
/// structure and therefore ~an order of magnitude more passes per segment
/// than DECO's one-step strategy (Table II).
#[derive(Debug, Clone, Default)]
pub struct DcCondenser {
    config: DcConfig,
}

impl DcCondenser {
    /// Creates the condenser.
    pub fn new(config: DcConfig) -> Self {
        DcCondenser { config }
    }
}

impl Condenser for DcCondenser {
    fn name(&self) -> &'static str {
        "DC"
    }

    fn condense(
        &mut self,
        buffer: &mut SyntheticBuffer,
        segment: &SegmentData<'_>,
        ctx: &mut CondenseContext<'_>,
    ) {
        let cfg = &self.config;
        for _ in 0..cfg.outer_inits {
            let _outer = deco_telemetry::span!("condense.dc.outer");
            ctx.scratch.reinit(ctx.rng);
            let mut model_opt = Sgd::new(cfg.model_lr).with_momentum(0.5);
            for _ in 0..cfg.matching_rounds {
                match_round_and_update(
                    buffer,
                    segment,
                    ctx.scratch,
                    &mut |_| None,
                    ctx.rng,
                    cfg.image_lr,
                    cfg.epsilon_scale,
                );
                train_on_buffer(
                    ctx.scratch,
                    buffer,
                    cfg.model_steps_per_round,
                    &mut model_opt,
                );
            }
        }
    }
}

/// DSA: DC plus differentiable siamese augmentation — one transform drawn
/// per matching step and applied to both real and synthetic batches.
#[derive(Debug, Clone, Default)]
pub struct DsaCondenser {
    config: DcConfig,
}

impl DsaCondenser {
    /// Creates the condenser (shares [`DcConfig`]).
    pub fn new(config: DcConfig) -> Self {
        DsaCondenser { config }
    }
}

impl Condenser for DsaCondenser {
    fn name(&self) -> &'static str {
        "DSA"
    }

    fn condense(
        &mut self,
        buffer: &mut SyntheticBuffer,
        segment: &SegmentData<'_>,
        ctx: &mut CondenseContext<'_>,
    ) {
        let cfg = &self.config;
        let side = segment.images.shape().dim(2);
        for _ in 0..cfg.outer_inits {
            let _outer = deco_telemetry::span!("condense.dsa.outer");
            ctx.scratch.reinit(ctx.rng);
            let mut model_opt = Sgd::new(cfg.model_lr).with_momentum(0.5);
            for _ in 0..cfg.matching_rounds {
                match_round_and_update(
                    buffer,
                    segment,
                    ctx.scratch,
                    &mut |rng| Some(Augmentation::sample(side, rng)),
                    ctx.rng,
                    cfg.image_lr,
                    cfg.epsilon_scale,
                );
                train_on_buffer(
                    ctx.scratch,
                    buffer,
                    cfg.model_steps_per_round,
                    &mut model_opt,
                );
            }
        }
    }
}

/// Configuration of the DM condenser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmConfig {
    /// Random embedding networks per segment.
    pub rounds: usize,
    /// Learning rate for the synthetic images.
    pub image_lr: f32,
}

impl Default for DmConfig {
    fn default() -> Self {
        DmConfig {
            rounds: 8,
            image_lr: 1.0,
        }
    }
}

/// Distribution matching (Zhao & Bilen): aligns the mean embedding of the
/// synthetic class images with the mean embedding of the real class data
/// under randomly initialized networks. First-order only — the fastest
/// method in Table II, at some accuracy cost.
#[derive(Debug, Clone, Default)]
pub struct DmCondenser {
    config: DmConfig,
}

impl DmCondenser {
    /// Creates the condenser.
    pub fn new(config: DmConfig) -> Self {
        DmCondenser { config }
    }
}

impl Condenser for DmCondenser {
    fn name(&self) -> &'static str {
        "DM"
    }

    fn condense(
        &mut self,
        buffer: &mut SyntheticBuffer,
        segment: &SegmentData<'_>,
        ctx: &mut CondenseContext<'_>,
    ) {
        let cfg = &self.config;
        for _ in 0..cfg.rounds {
            let _outer = deco_telemetry::span!("condense.dm.outer");
            ctx.scratch.reinit(ctx.rng);
            let config = *ctx.scratch.config();
            let params = std::sync::Arc::new(ctx.scratch.get_params());
            // Per-class (real, syn) batches ship to the pool; the buffer
            // rows they map back to stay on the caller. Embedding nets are
            // rebuilt per job from the snapshot (not `Send` otherwise),
            // which reproduces the serial forward passes bitwise.
            let mut rows_list = Vec::new();
            let mut inputs = Vec::new();
            for &class in segment.active_classes {
                let idx = segment.indices_of_class(class);
                if idx.is_empty() {
                    continue;
                }
                let rows: Vec<usize> = buffer.class_rows(class).collect();
                inputs.push((
                    segment.images.select_rows(&idx),
                    buffer.images().select_rows(&rows),
                ));
                rows_list.push(rows);
            }
            let grads = deco_runtime::parallel_map(inputs, move |_, (real, syn)| {
                let net = ConvNet::from_params(config, &params);
                // Real mean embedding (no gradient needed).
                let real_feats = net.features(&Var::constant(real), true);
                let real_mean = Var::constant(real_feats.value().mean_axes(&[0], true));
                // Synthetic mean embedding, differentiable w.r.t. images.
                let syn_leaf = Var::leaf(syn, true);
                let syn_feats = net.features(&syn_leaf, true);
                let syn_mean = syn_feats.mean_axes_keepdim(&[0]);
                let loss = syn_mean.sub(&real_mean).square().sum();
                loss.backward();
                syn_leaf.grad()
            });
            for (rows, grad) in rows_list.iter().zip(grads) {
                if let Some(grad) = grad {
                    buffer.add_scaled_rows(rows, &grad, -cfg.image_lr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_nn::ConvNetConfig;

    fn tiny_net(rng: &mut Rng) -> ConvNet {
        ConvNet::new(
            ConvNetConfig {
                in_channels: 1,
                image_side: 8,
                width: 4,
                depth: 2,
                num_classes: 3,
                norm: true,
            },
            rng,
        )
    }

    fn segment(rng: &mut Rng) -> (Tensor, Vec<usize>, Vec<f32>) {
        // Class-structured "real" data: class mean + noise.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for _ in 0..6 {
                for p in 0..64 {
                    let base = ((class * 13 + p) % 7) as f32 / 3.0 - 1.0;
                    data.push(base + 0.2 * rng.normal());
                }
                labels.push(class);
            }
        }
        let weights = vec![1.0; labels.len()];
        (Tensor::from_vec(data, [18, 1, 8, 8]), labels, weights)
    }

    fn run_condenser(c: &mut dyn Condenser) -> (SyntheticBuffer, SyntheticBuffer) {
        let mut rng = Rng::new(42);
        let net = tiny_net(&mut rng);
        let (images, labels, weights) = segment(&mut rng);
        let mut buffer = SyntheticBuffer::new_random(2, 3, [1, 8, 8], &mut rng);
        let before = buffer.clone();
        let seg = SegmentData {
            images: &images,
            labels: &labels,
            weights: &weights,
            active_classes: &[0, 1, 2],
        };
        let deployed = tiny_net(&mut rng);
        let mut ctx = CondenseContext {
            scratch: &net,
            deployed: &deployed,
            rng: &mut rng,
        };
        c.condense(&mut buffer, &seg, &mut ctx);
        buffer.check_invariants();
        (before, buffer)
    }

    #[test]
    fn dc_modifies_buffer_images() {
        let mut c = DcCondenser::new(DcConfig {
            outer_inits: 1,
            matching_rounds: 2,
            ..DcConfig::default()
        });
        let (before, after) = run_condenser(&mut c);
        assert_ne!(before.images().data(), after.images().data());
        assert!(after.images().is_finite());
    }

    #[test]
    fn dsa_modifies_buffer_images() {
        let mut c = DsaCondenser::new(DcConfig {
            outer_inits: 1,
            matching_rounds: 2,
            ..DcConfig::default()
        });
        let (before, after) = run_condenser(&mut c);
        assert_ne!(before.images().data(), after.images().data());
        assert!(after.images().is_finite());
    }

    #[test]
    fn dm_modifies_buffer_images() {
        let mut c = DmCondenser::new(DmConfig {
            rounds: 2,
            image_lr: 0.5,
        });
        let (before, after) = run_condenser(&mut c);
        assert_ne!(before.images().data(), after.images().data());
        assert!(after.images().is_finite());
    }

    #[test]
    fn dm_pulls_synthetic_means_toward_real_means() {
        let mut rng = Rng::new(7);
        let net = tiny_net(&mut rng);
        let (images, labels, weights) = segment(&mut rng);
        let mut buffer = SyntheticBuffer::new_random(2, 3, [1, 8, 8], &mut rng);
        let seg = SegmentData {
            images: &images,
            labels: &labels,
            weights: &weights,
            active_classes: &[0, 1, 2],
        };
        let mean_gap = |buf: &SyntheticBuffer| -> f32 {
            let mut total = 0.0;
            for class in 0..3 {
                let idx = seg.indices_of_class(class);
                let real = images.select_rows(&idx).mean_axes(&[0], false);
                let rows: Vec<usize> = buf.class_rows(class).collect();
                let syn = buf.images().select_rows(&rows).mean_axes(&[0], false);
                let d = &real - &syn;
                total += d.dot(&d);
            }
            total
        };
        let gap0 = mean_gap(&buffer);
        let mut c = DmCondenser::new(DmConfig {
            rounds: 6,
            image_lr: 0.5,
        });
        let deployed = tiny_net(&mut rng);
        let mut ctx = CondenseContext {
            scratch: &net,
            deployed: &deployed,
            rng: &mut rng,
        };
        c.condense(&mut buffer, &seg, &mut ctx);
        // DM matches means in *feature* space; for this near-linear tiny net
        // the pixel-space gap should still shrink.
        let gap1 = mean_gap(&buffer);
        assert!(gap1 < gap0, "gap {gap0} -> {gap1}");
    }

    #[test]
    fn condensers_ignore_inactive_classes() {
        let mut rng = Rng::new(9);
        let net = tiny_net(&mut rng);
        let (images, labels, weights) = segment(&mut rng);
        let mut buffer = SyntheticBuffer::new_random(2, 3, [1, 8, 8], &mut rng);
        let before = buffer.clone();
        let seg = SegmentData {
            images: &images,
            labels: &labels,
            weights: &weights,
            active_classes: &[1], // only class 1 active
        };
        let mut c = DcCondenser::new(DcConfig {
            outer_inits: 1,
            matching_rounds: 1,
            model_steps_per_round: 0,
            ..DcConfig::default()
        });
        let deployed = tiny_net(&mut rng);
        let mut ctx = CondenseContext {
            scratch: &net,
            deployed: &deployed,
            rng: &mut rng,
        };
        c.condense(&mut buffer, &seg, &mut ctx);
        for class in [0usize, 2] {
            let rows: Vec<usize> = buffer.class_rows(class).collect();
            assert_eq!(
                buffer.images().select_rows(&rows).data(),
                before.images().select_rows(&rows).data(),
                "inactive class {class} was modified"
            );
        }
    }

    #[test]
    fn train_on_buffer_reduces_loss() {
        let mut rng = Rng::new(11);
        let net = tiny_net(&mut rng);
        // A learnable buffer: distinct constant patterns per class.
        let mut buffer = SyntheticBuffer::new_random(2, 3, [1, 8, 8], &mut rng);
        let imgs = buffer.images().clone();
        let shifted = imgs
            .data()
            .iter()
            .enumerate()
            .map(|(i, &v)| v + (i / 128) as f32)
            .collect();
        buffer.set_images(Tensor::from_vec(shifted, [6, 1, 8, 8]));
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        let first = train_on_buffer(&net, &buffer, 1, &mut opt);
        let last = train_on_buffer(&net, &buffer, 30, &mut opt);
        assert!(last < first, "loss {first} -> {last}");
    }
}
