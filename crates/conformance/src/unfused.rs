//! Reference implementations of the fused ops.
//!
//! Each fused tape op in `deco-tensor` — `Var::group_norm_relu`,
//! `Var::relu_avg_pool2d`, `Var::log_softmax_cross_entropy` and the
//! bias epilogue of `Var::conv2d` — stands in for a chain of public `Var`
//! ops, and the functions here build exactly that chain. The fused
//! kernels replicate each chain's per-element f32 operations and
//! accumulation order, so the fuzzer, the gradient audit and the
//! end-to-end matcher tests hold them to these chains **bitwise**.
//!
//! [`convnet_features`], [`convnet_logits`] and [`one_step_match`] lift
//! the chains to the whole `deco_nn::ConvNet` and the paper's matching
//! step (Eqs. 5–7), so a production `one_step_match` can be compared with
//! an unfused one built from the same parameter snapshot.

use deco_condense::{MatchBatch, MatchResult};
use deco_nn::{cosine_distance, cosine_distance_grad, ConvNetConfig, GradList};
use deco_tensor::{Conv2dSpec, Reduction, Tensor, Var};

/// Epsilon of the ConvNet's instance norm (`deco_nn::GroupNorm::new`).
const GROUP_NORM_EPS: f32 = 1e-5;

/// `reshape → mean → sub → square → mean → add_scalar → sqrt → div →
/// reshape → mul(γ) → add(β) → relu`: the chain `Var::group_norm_relu`
/// fuses (`deco_nn::GroupNorm::forward` followed by relu).
pub fn group_norm_relu(x: &Var, gamma: &Var, beta: &Var, groups: usize, eps: f32) -> Var {
    let (n, c) = (x.shape().dim(0), x.shape().dim(1));
    let (h, w) = (x.shape().dim(2), x.shape().dim(3));
    let grouped = x.reshape([n, groups, (c / groups) * h * w]);
    let mean = grouped.mean_axes_keepdim(&[2]);
    let centered = grouped.sub(&mean);
    let var = centered.square().mean_axes_keepdim(&[2]);
    let std = var.add_scalar(eps).sqrt();
    let normed = centered.div(&std).reshape([n, c, h, w]);
    normed.mul(gamma).add(beta).relu()
}

/// `relu → avg_pool2d`: the chain `Var::relu_avg_pool2d` fuses.
pub fn relu_avg_pool2d(x: &Var, k: usize) -> Var {
    x.relu().avg_pool2d(k)
}

/// `log_softmax → nll`: the chain `Var::log_softmax_cross_entropy`
/// fuses.
pub fn log_softmax_cross_entropy(
    logits: &Var,
    labels: &[usize],
    weights: Option<&[f32]>,
    reduction: Reduction,
) -> Var {
    logits.log_softmax().nll(labels, weights, reduction)
}

/// A bias-free convolution followed by a broadcast add of the `[c_out]`
/// bias: what the convolution GEMM's bias epilogue fuses.
pub fn conv2d_bias(x: &Var, weight: &Var, bias: &Var, spec: Conv2dSpec) -> Var {
    let c_out = bias.shape().numel();
    x.conv2d(weight, None, spec)
        .add(&bias.reshape([1, c_out, 1, 1]))
}

/// `ConvNet::features` of a network with `config` and parameters
/// `params` (in `ConvNet::params` order), built from the reference
/// chains.
///
/// # Panics
/// Panics when `params` does not match `config`.
pub fn convnet_features(config: &ConvNetConfig, params: &[Var], x: &Var) -> Var {
    let per_block = if config.norm { 4 } else { 2 };
    assert_eq!(
        params.len(),
        per_block * config.depth + 2,
        "parameter count for {config:?}"
    );
    let spec = Conv2dSpec::new(3, 1, 1);
    let mut h = x.clone();
    for block in params[..per_block * config.depth].chunks(per_block) {
        h = conv2d_bias(&h, &block[0], &block[1], spec);
        h = if config.norm {
            let c = h.shape().dim(1);
            group_norm_relu(&h, &block[2], &block[3], c, GROUP_NORM_EPS).avg_pool2d(2)
        } else {
            relu_avg_pool2d(&h, 2)
        };
    }
    h.reshape([x.shape().dim(0), config.feature_dim()])
}

/// `ConvNet::forward` (class logits) from the reference chains.
///
/// # Panics
/// Panics when `params` does not match `config`.
pub fn convnet_logits(config: &ConvNetConfig, params: &[Var], x: &Var) -> Var {
    let feats = convnet_features(config, params, x);
    let head = &params[params.len() - 2..];
    feats.matmul(&head[0]).add(&head[1])
}

/// Sum-reduced weighted cross-entropy of the reference network on
/// `images`, with parameter leaves built from `params`
/// (`requires_grad` as given) and the images as a leaf whose gradient is
/// wanted when `image_grad` is set. Returns the parameter leaves and the
/// image leaf after the backward pass.
fn backward_pass(
    config: &ConvNetConfig,
    params: &[Tensor],
    param_grads: bool,
    images: &Tensor,
    image_grad: bool,
    labels: &[usize],
    weights: Option<&[f32]>,
) -> (Vec<Var>, Var) {
    let leaves: Vec<Var> = params
        .iter()
        .map(|p| Var::leaf(p.clone(), param_grads))
        .collect();
    let x = Var::leaf(images.clone(), image_grad);
    let logits = convnet_logits(config, &leaves, &x);
    log_softmax_cross_entropy(&logits, labels, weights, Reduction::Sum).backward();
    (leaves, x)
}

/// The model gradient `∇_θ L` on a batch (`deco_condense::model_gradient`
/// without augmentation), from the reference network.
///
/// # Panics
/// Panics when `params` does not match `config`.
pub fn model_gradient(
    config: &ConvNetConfig,
    params: &[Tensor],
    images: &Tensor,
    labels: &[usize],
    weights: Option<&[f32]>,
) -> GradList {
    let (leaves, _) = backward_pass(config, params, true, images, false, labels, weights);
    leaves
        .iter()
        .map(|p| p.grad().expect("every parameter reaches the loss"))
        .collect()
}

/// `deco_condense::one_step_match` without augmentation, on the
/// reference network rebuilt from the parameter snapshot `params`: the
/// same two model-gradient passes, cosine distance, `θ ± ε·v`
/// perturbation sequence and finite-difference image gradient, with
/// every fused op replaced by its reference chain.
///
/// # Panics
/// Panics when `params` does not match `config`.
pub fn one_step_match(
    config: &ConvNetConfig,
    params: &[Tensor],
    batch: &MatchBatch<'_>,
    epsilon_scale: f32,
) -> MatchResult {
    let g_real = model_gradient(
        config,
        params,
        batch.real_images,
        batch.real_labels,
        batch.real_weights,
    );
    let g_syn = model_gradient(config, params, batch.syn_images, batch.syn_labels, None);
    let distance = cosine_distance(&g_syn, &g_real);
    let v = cosine_distance_grad(&g_syn, &g_real);
    let v_norm = v.norm();
    if v_norm < 1e-12 {
        return MatchResult {
            distance,
            image_grad: Tensor::zeros(batch.syn_images.shape().clone()),
        };
    }
    let eps = epsilon_scale / v_norm;
    // θ+ then θ− from θ+, in the order `ConvNet::perturb` applies them.
    let mut theta: Vec<Tensor> = params.to_vec();
    let mut input_gradient = |alpha: f32| {
        for (p, d) in theta.iter_mut().zip(v.tensors()) {
            p.add_scaled(d, alpha);
        }
        let (_, x) = backward_pass(
            config,
            &theta,
            false,
            batch.syn_images,
            true,
            batch.syn_labels,
            None,
        );
        x.grad().expect("image gradient")
    };
    let mut image_grad = input_gradient(eps);
    let grad_minus = input_gradient(-2.0 * eps);
    image_grad.add_scaled(&grad_minus, -1.0);
    image_grad.scale_mut(1.0 / (2.0 * eps));
    MatchResult {
        distance,
        image_grad,
    }
}
