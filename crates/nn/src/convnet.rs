//! The ConvNet backbone used by all experiments — the standard dataset-
//! condensation architecture: `depth` blocks of conv → group-norm → ReLU →
//! avg-pool, followed by a linear classifier head.

use deco_tensor::{Conv2dSpec, Rng, Tensor, Var};

use crate::layers::{Conv2d, GroupNorm, Linear};
use crate::param::Param;

/// Architecture hyper-parameters for [`ConvNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvNetConfig {
    /// Input channels (3 for the RGB-like synthetic datasets).
    pub in_channels: usize,
    /// Square input side in pixels. Must be divisible by `2^depth`.
    pub image_side: usize,
    /// Channel width of every conv block.
    pub width: usize,
    /// Number of conv blocks; each halves the spatial side.
    pub depth: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Whether blocks include group (instance) normalization.
    pub norm: bool,
}

impl ConvNetConfig {
    /// A small default suitable for CPU-scale experiments.
    pub fn small(num_classes: usize) -> Self {
        ConvNetConfig {
            in_channels: 3,
            image_side: 16,
            width: 16,
            depth: 3,
            num_classes,
            norm: true,
        }
    }

    /// Flattened feature dimension after the conv blocks.
    pub fn feature_dim(&self) -> usize {
        let side = self.image_side >> self.depth;
        self.width * side * side
    }

    /// Validates divisibility constraints.
    ///
    /// # Panics
    /// Panics if `image_side` is not divisible by `2^depth` or any field is
    /// zero.
    pub fn validate(&self) {
        assert!(self.in_channels > 0 && self.width > 0 && self.depth > 0 && self.num_classes > 0);
        assert!(
            self.image_side.is_multiple_of(1 << self.depth),
            "image side {} not divisible by 2^{}",
            self.image_side,
            self.depth
        );
    }
}

/// The convolutional classifier used as the on-device model, the
/// condensation matching network and the feature encoder.
///
/// ```
/// use deco_nn::{ConvNet, ConvNetConfig};
/// use deco_tensor::{Rng, Tensor, Var};
///
/// let mut rng = Rng::new(0);
/// let net = ConvNet::new(ConvNetConfig::small(10), &mut rng);
/// let images = Var::constant(Tensor::randn([4, 3, 16, 16], &mut rng));
/// let logits = net.forward(&images, false);
/// assert_eq!(logits.shape().dims(), &[4, 10]);
/// ```
#[derive(Debug)]
pub struct ConvNet {
    config: ConvNetConfig,
    blocks: Vec<(Conv2d, Option<GroupNorm>)>,
    head: Linear,
}

impl ConvNet {
    /// Builds and Kaiming-initializes the network.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see [`ConvNetConfig::validate`]).
    pub fn new(config: ConvNetConfig, rng: &mut Rng) -> Self {
        config.validate();
        let spec = Conv2dSpec::new(3, 1, 1);
        let mut blocks = Vec::with_capacity(config.depth);
        let mut c_in = config.in_channels;
        for _ in 0..config.depth {
            let conv = Conv2d::new(c_in, config.width, spec, rng);
            let norm = config.norm.then(|| GroupNorm::instance(config.width));
            blocks.push((conv, norm));
            c_in = config.width;
        }
        let head = Linear::new(config.feature_dim(), config.num_classes, rng);
        ConvNet {
            config,
            blocks,
            head,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ConvNetConfig {
        &self.config
    }

    /// Flattened penultimate features `[n, feature_dim]` — the encoder
    /// `f_θ` of the paper's feature-discrimination loss.
    pub fn features(&self, x: &Var, frozen: bool) -> Var {
        let n = x.shape().dim(0);
        let mut h = x.clone();
        for (conv, norm) in &self.blocks {
            h = conv.forward(&h, frozen);
            // Fused norm tail (bitwise identical to the gn → relu
            // chain; see Var::group_norm_relu).
            h = match norm {
                Some(gn) => gn.forward_relu(&h, frozen),
                None => h.relu(),
            }
            .avg_pool2d(2);
        }
        h.reshape([n, self.config.feature_dim()])
    }

    /// Class logits `[n, num_classes]`.
    pub fn forward(&self, x: &Var, frozen: bool) -> Var {
        let feats = self.features(x, frozen);
        self.head.forward(&feats, frozen)
    }

    /// Greedy predictions and their softmax confidences for an image batch.
    pub fn predict(&self, images: &Tensor) -> Vec<Prediction> {
        let logits = self.forward(&Var::constant(images.clone()), true);
        let logp = logits.log_softmax();
        let preds = logp.value().argmax_rows();
        preds
            .into_iter()
            .enumerate()
            .map(|(i, class)| Prediction {
                class,
                confidence: logp.value().at(&[i, class]).exp(),
            })
            .collect()
    }

    /// All parameters, in a stable order.
    pub fn params(&self) -> Vec<&Param> {
        let per_block = if self.config.norm { 4 } else { 2 };
        let mut ps = Vec::with_capacity(per_block * self.blocks.len() + 2);
        for (conv, norm) in &self.blocks {
            ps.extend(conv.param_pair());
            if let Some(gn) = norm {
                ps.extend(gn.param_pair());
            }
        }
        ps.extend(self.head.param_pair());
        ps
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Re-randomizes every parameter (fresh Kaiming draw). Used by the
    /// condensers, which match gradients under freshly initialized models.
    pub fn reinit(&self, rng: &mut Rng) {
        for (conv, norm) in &self.blocks {
            conv.reinit(rng);
            if let Some(gn) = norm {
                gn.reinit();
            }
        }
        self.head.reinit(rng);
    }

    /// Snapshot of all parameter tensors (same order as [`ConvNet::params`]).
    pub fn get_params(&self) -> Vec<Tensor> {
        self.params().iter().map(|p| p.tensor()).collect()
    }

    /// Builds a network directly from a parameter snapshot (as returned
    /// by [`ConvNet::get_params`]). Used by the parallel condensation
    /// path to reconstruct a matching network on a worker thread —
    /// network internals are `Rc`-based and cannot be sent across
    /// threads, but a `(config, params)` pair can.
    ///
    /// # Panics
    /// Panics on an invalid configuration or a mismatched snapshot.
    pub fn from_params(config: ConvNetConfig, params: &[Tensor]) -> Self {
        let net = ConvNet::new(config, &mut Rng::new(0));
        net.set_params(params);
        net
    }

    /// Restores parameters from a snapshot.
    ///
    /// # Panics
    /// Panics on length or shape mismatch.
    pub fn set_params(&self, values: &[Tensor]) {
        let params = self.params();
        assert_eq!(params.len(), values.len(), "parameter count mismatch");
        for (p, v) in params.iter().zip(values) {
            p.set(v.clone());
        }
    }

    /// In-place perturbation `θ += alpha · direction` (used for the finite-
    /// difference passes of efficient condensation).
    ///
    /// # Panics
    /// Panics on length or shape mismatch.
    pub fn perturb(&self, direction: &[Tensor], alpha: f32) {
        let params = self.params();
        assert_eq!(params.len(), direction.len(), "direction count mismatch");
        for (p, d) in params.iter().zip(direction) {
            p.add_scaled(d, alpha);
        }
    }
}

/// A single model prediction: class index plus softmax confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted class.
    pub class: usize,
    /// Softmax probability of the predicted class.
    pub confidence: f32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_tensor::Reduction;

    fn tiny() -> ConvNetConfig {
        ConvNetConfig {
            in_channels: 3,
            image_side: 8,
            width: 4,
            depth: 2,
            num_classes: 5,
            norm: true,
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::new(1);
        let net = ConvNet::new(tiny(), &mut rng);
        let x = Var::constant(Tensor::randn([3, 3, 8, 8], &mut rng));
        assert_eq!(
            net.features(&x, true).shape().dims(),
            &[3, tiny().feature_dim()]
        );
        assert_eq!(net.forward(&x, true).shape().dims(), &[3, 5]);
    }

    #[test]
    fn feature_dim_formula() {
        let cfg = tiny();
        // 8px, depth 2 → 2px side, width 4 → 4·2·2 = 16.
        assert_eq!(cfg.feature_dim(), 16);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn config_rejects_bad_side() {
        let mut cfg = tiny();
        cfg.image_side = 6;
        cfg.validate();
    }

    #[test]
    fn all_params_receive_gradients() {
        let mut rng = Rng::new(2);
        let net = ConvNet::new(tiny(), &mut rng);
        let x = Var::constant(Tensor::randn([2, 3, 8, 8], &mut rng));
        let loss = net
            .forward(&x, false)
            .log_softmax()
            .nll(&[0, 1], None, Reduction::Mean);
        loss.backward();
        for (i, p) in net.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing gradient");
        }
    }

    #[test]
    fn frozen_forward_produces_same_values() {
        let mut rng = Rng::new(3);
        let net = ConvNet::new(tiny(), &mut rng);
        let x = Var::constant(Tensor::randn([2, 3, 8, 8], &mut rng));
        let a = net.forward(&x, false);
        let b = net.forward(&x, true);
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn snapshot_roundtrip_restores_outputs() {
        let mut rng = Rng::new(4);
        let net = ConvNet::new(tiny(), &mut rng);
        let x = Var::constant(Tensor::randn([1, 3, 8, 8], &mut rng));
        let before = net.forward(&x, true).value().clone();
        let snap = net.get_params();
        net.reinit(&mut rng);
        assert_ne!(net.forward(&x, true).value(), &before);
        net.set_params(&snap);
        assert_eq!(net.forward(&x, true).value(), &before);
    }

    #[test]
    fn perturb_is_reversible() {
        let mut rng = Rng::new(5);
        let net = ConvNet::new(tiny(), &mut rng);
        let before = net.get_params();
        let direction: Vec<Tensor> = before
            .iter()
            .map(|t| Tensor::randn(t.shape().dims().to_vec(), &mut rng))
            .collect();
        net.perturb(&direction, 0.1);
        net.perturb(&direction, -0.1);
        for (a, b) in net.get_params().iter().zip(&before) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn predictions_have_valid_confidences() {
        let mut rng = Rng::new(6);
        let net = ConvNet::new(tiny(), &mut rng);
        let images = Tensor::randn([4, 3, 8, 8], &mut rng);
        let preds = net.predict(&images);
        assert_eq!(preds.len(), 4);
        for p in preds {
            assert!(p.class < 5);
            assert!(p.confidence > 0.0 && p.confidence <= 1.0);
        }
    }

    #[test]
    fn reinit_with_same_seed_is_deterministic() {
        let mut r1 = Rng::new(7);
        let mut r2 = Rng::new(7);
        let n1 = ConvNet::new(tiny(), &mut r1);
        let n2 = ConvNet::new(tiny(), &mut r2);
        for (a, b) in n1.get_params().iter().zip(n2.get_params().iter()) {
            assert_eq!(a, b);
        }
    }
}
