//! Network layers: convolution, linear, group normalization.
//!
//! Each layer owns its [`Param`]s and exposes a `forward` that builds onto
//! the caller's autograd graph. `frozen = true` binds parameters as
//! constants, which is how the θ± perturbation passes of efficient
//! condensation differentiate the input alone. Conv, linear and
//! group-norm layers then skip their parameter-gradient work (weight
//! GEMM, bias reduction, per-channel γ/β sums), since the tape computes
//! gradients only for parents that require one.

use deco_tensor::{Conv2dSpec, Rng, Tensor, Var};

use crate::init;
use crate::param::Param;

/// A 2-D convolution layer with bias.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: Conv2dSpec,
    c_in: usize,
    c_out: usize,
}

impl Conv2d {
    /// Creates a Kaiming-initialized conv layer.
    pub fn new(c_in: usize, c_out: usize, spec: Conv2dSpec, rng: &mut Rng) -> Self {
        Conv2d {
            weight: Param::new(init::kaiming_conv(c_out, c_in, spec.kernel, rng)),
            bias: Param::new(Tensor::zeros([c_out])),
            spec,
            c_in,
            c_out,
        }
    }

    /// Applies the convolution.
    pub fn forward(&self, x: &Var, frozen: bool) -> Var {
        let (w, b) = if frozen {
            (self.weight.frozen_var(), self.bias.frozen_var())
        } else {
            (self.weight.var(), self.bias.var())
        };
        // Bias broadcasting: conv2d takes the bias directly.
        x.conv2d(&w, Some(&b), self.spec)
    }

    /// Re-randomizes the weights (bias reset to zero).
    pub fn reinit(&self, rng: &mut Rng) {
        self.weight.set(init::kaiming_conv(
            self.c_out,
            self.c_in,
            self.spec.kernel,
            rng,
        ));
        self.bias.set(Tensor::zeros([self.c_out]));
    }

    /// The layer's parameters (weight, bias).
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    /// Borrowed (weight, bias) pair without a heap allocation.
    pub(crate) fn param_pair(&self) -> [&Param; 2] {
        [&self.weight, &self.bias]
    }
}

/// A fully-connected layer computing `x·W + b` for `[n, in]` inputs.
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    fan_in: usize,
    fan_out: usize,
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Self {
        Linear {
            weight: Param::new(init::kaiming_linear(fan_in, fan_out, rng)),
            bias: Param::new(Tensor::zeros([fan_out])),
            fan_in,
            fan_out,
        }
    }

    /// Applies the affine map.
    pub fn forward(&self, x: &Var, frozen: bool) -> Var {
        let (w, b) = if frozen {
            (self.weight.frozen_var(), self.bias.frozen_var())
        } else {
            (self.weight.var(), self.bias.var())
        };
        x.matmul(&w).add(&b)
    }

    /// Re-randomizes the weights (bias reset to zero).
    pub fn reinit(&self, rng: &mut Rng) {
        self.weight
            .set(init::kaiming_linear(self.fan_in, self.fan_out, rng));
        self.bias.set(Tensor::zeros([self.fan_out]));
    }

    /// The layer's parameters (weight, bias).
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    /// Borrowed (weight, bias) pair without a heap allocation.
    pub(crate) fn param_pair(&self) -> [&Param; 2] {
        [&self.weight, &self.bias]
    }
}

/// Group normalization over NCHW inputs.
///
/// With `groups == channels` this is instance normalization — the
/// configuration the DC-style ConvNet backbone uses.
#[derive(Debug)]
pub struct GroupNorm {
    gamma: Param,
    beta: Param,
    groups: usize,
    channels: usize,
    eps: f32,
}

impl GroupNorm {
    /// Creates a group-norm layer with unit scale and zero shift.
    ///
    /// # Panics
    /// Panics unless `groups` divides `channels`.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert!(
            groups > 0 && channels.is_multiple_of(groups),
            "groups {groups} must divide channels {channels}"
        );
        GroupNorm {
            gamma: Param::new(Tensor::ones([1, channels, 1, 1])),
            beta: Param::new(Tensor::zeros([1, channels, 1, 1])),
            groups,
            channels,
            eps: 1e-5,
        }
    }

    /// Instance normalization (one group per channel).
    pub fn instance(channels: usize) -> Self {
        Self::new(channels, channels)
    }

    /// Normalizes per (sample, group) and applies the affine transform.
    ///
    /// # Panics
    /// Panics unless `x` is NCHW with the configured channel count.
    pub fn forward(&self, x: &Var, frozen: bool) -> Var {
        assert_eq!(x.shape().rank(), 4, "GroupNorm expects NCHW");
        let (n, c, h, w) = (
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
        );
        assert_eq!(
            c, self.channels,
            "channel mismatch: {c} vs {}",
            self.channels
        );
        let grouped = x.reshape([n, self.groups, (c / self.groups) * h * w]);
        let mean = grouped.mean_axes_keepdim(&[2]);
        let centered = grouped.sub(&mean);
        let var = centered.square().mean_axes_keepdim(&[2]);
        let std = var.add_scalar(self.eps).sqrt();
        let normed = centered.div(&std).reshape([n, c, h, w]);
        let (g, b) = if frozen {
            (self.gamma.frozen_var(), self.beta.frozen_var())
        } else {
            (self.gamma.var(), self.beta.var())
        };
        normed.mul(&g).add(&b)
    }

    /// [`GroupNorm::forward`] followed by relu, routed through the fused
    /// `group_norm_relu` tape op — bitwise identical to
    /// `self.forward(x, frozen).relu()`.
    ///
    /// # Panics
    /// Panics unless `x` is NCHW with the configured channel count.
    pub fn forward_relu(&self, x: &Var, frozen: bool) -> Var {
        assert_eq!(x.shape().rank(), 4, "GroupNorm expects NCHW");
        assert_eq!(
            x.shape().dim(1),
            self.channels,
            "channel mismatch: {} vs {}",
            x.shape().dim(1),
            self.channels
        );
        let (g, b) = if frozen {
            (self.gamma.frozen_var(), self.beta.frozen_var())
        } else {
            (self.gamma.var(), self.beta.var())
        };
        x.group_norm_relu(&g, &b, self.groups, self.eps)
    }

    /// Resets scale to one and shift to zero.
    pub fn reinit(&self) {
        self.gamma.set(Tensor::ones([1, self.channels, 1, 1]));
        self.beta.set(Tensor::zeros([1, self.channels, 1, 1]));
    }

    /// The layer's parameters (gamma, beta).
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    /// Borrowed (gamma, beta) pair without a heap allocation.
    pub(crate) fn param_pair(&self) -> [&Param; 2] {
        [&self.gamma, &self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_layer_output_shape() {
        let mut rng = Rng::new(1);
        let layer = Conv2d::new(3, 8, Conv2dSpec::default(), &mut rng);
        let x = Var::constant(Tensor::randn([2, 3, 8, 8], &mut rng));
        let y = layer.forward(&x, false);
        assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_layer_gradients_reach_params() {
        let mut rng = Rng::new(2);
        let layer = Conv2d::new(1, 2, Conv2dSpec::default(), &mut rng);
        let x = Var::constant(Tensor::randn([1, 1, 4, 4], &mut rng));
        layer.forward(&x, false).sum().backward();
        for p in layer.params() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn frozen_forward_skips_param_grads_but_passes_input_grads() {
        let mut rng = Rng::new(3);
        let layer = Conv2d::new(1, 2, Conv2dSpec::default(), &mut rng);
        let x = Var::leaf(Tensor::randn([1, 1, 4, 4], &mut rng), true);
        layer.forward(&x, true).sum().backward();
        assert!(layer.params().iter().all(|p| p.grad().is_none()));
        assert!(x.grad().is_some());
    }

    #[test]
    fn linear_matches_manual_affine() {
        let mut rng = Rng::new(4);
        let layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn([5, 3], &mut rng);
        let y = layer.forward(&Var::constant(x.clone()), false);
        let manual = &x.matmul(&layer.params()[0].tensor()) + &layer.params()[1].tensor();
        assert_eq!(y.value(), &manual);
    }

    #[test]
    fn group_norm_zero_mean_unit_var() {
        let mut rng = Rng::new(5);
        let gn = GroupNorm::instance(4);
        let x = Var::constant(&Tensor::randn([2, 4, 6, 6], &mut rng) * 3.0 + 5.0);
        let y = gn.forward(&x, false);
        // Per (sample, channel) mean ≈ 0 and var ≈ 1.
        let v = y.value();
        for n in 0..2 {
            for c in 0..4 {
                let mut vals = Vec::new();
                for h in 0..6 {
                    for w in 0..6 {
                        vals.push(v.at(&[n, c, h, w]));
                    }
                }
                let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
                let var: f32 =
                    vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / vals.len() as f32;
                assert!(mean.abs() < 1e-3, "mean {mean}");
                assert!((var - 1.0).abs() < 1e-2, "var {var}");
            }
        }
    }

    #[test]
    fn group_norm_grouped_stats_differ_from_instance() {
        let mut rng = Rng::new(6);
        let x = Tensor::randn([1, 4, 4, 4], &mut rng);
        let inst = GroupNorm::instance(4).forward(&Var::constant(x.clone()), false);
        let grouped = GroupNorm::new(4, 2).forward(&Var::constant(x), false);
        assert_ne!(inst.value(), grouped.value());
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn group_norm_rejects_bad_groups() {
        let _ = GroupNorm::new(6, 4);
    }

    #[test]
    fn reinit_changes_conv_weights() {
        let mut rng = Rng::new(7);
        let layer = Conv2d::new(2, 2, Conv2dSpec::default(), &mut rng);
        let before = layer.params()[0].tensor();
        layer.reinit(&mut rng);
        assert_ne!(before, layer.params()[0].tensor());
    }

    #[test]
    fn group_norm_gradcheck() {
        let mut rng = Rng::new(8);
        let x0 = Tensor::randn([2, 2, 2, 2], &mut rng);
        let gn = GroupNorm::instance(2);
        let dev = deco_tensor::gradcheck::max_grad_deviation(&[x0], 1e-2, 1, |v| {
            gn.forward(&v[0], true).square().sum()
        });
        assert!(dev < 5e-2, "deviation {dev}");
    }
}
