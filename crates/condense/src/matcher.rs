//! One-step gradient matching with the paper's finite-difference trick.
//!
//! The expensive part of gradient matching is Eq. (6): pushing the matching
//! distance `D(g_syn, g_real)` back into the synthetic *images* requires the
//! second-order term `∇_X ∇_θ L`. The paper's Eq. (7) replaces it with two
//! extra first-order passes at perturbed parameters
//! `θ± = θ ± ε·∇_{g_syn} D`:
//!
//! `∇_X D ≈ (∇_X L_{θ+}(X, Y) − ∇_X L_{θ−}(X, Y)) / 2ε`
//!
//! so the whole image update costs **five forward-backward passes**:
//! `g_real`, `g_syn`, the closed-form `∇_{g_syn} D` (cheap), and the two
//! perturbed input-gradient passes. This module implements exactly that.

use deco_nn::{
    cosine_distance, cosine_distance_grad, weighted_cross_entropy, ConvNet, ConvNetConfig, GradList,
};
use deco_tensor::{Reduction, Tensor, Var};

use crate::augment::Augmentation;

/// Result of one matching step.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// The matching distance `D(g_syn, g_real)` before the update.
    pub distance: f32,
    /// `∇_X D` for the synthetic images (same shape as the synthetic batch).
    pub image_grad: Tensor,
}

/// Inputs shared by all matching calls.
#[derive(Debug, Clone, Copy)]
pub struct MatchBatch<'a> {
    /// Synthetic images `[n_s, c, h, w]` (the optimization variable).
    pub syn_images: &'a Tensor,
    /// Their fixed labels.
    pub syn_labels: &'a [usize],
    /// Real images `[n_r, c, h, w]`.
    pub real_images: &'a Tensor,
    /// Their (pseudo-)labels.
    pub real_labels: &'a [usize],
    /// Optional per-sample confidence weights for the real loss (Eq. 4).
    pub real_weights: Option<&'a [f32]>,
}

fn maybe_augment(x: &Var, aug: Option<&Augmentation>) -> Var {
    match aug {
        Some(a) => a.apply(x),
        None => x.clone(),
    }
}

/// The model gradient of the (weighted) cross-entropy loss on a batch.
///
/// # Panics
/// Panics on label/shape mismatches.
pub fn model_gradient(
    net: &ConvNet,
    images: &Tensor,
    labels: &[usize],
    weights: Option<&[f32]>,
    aug: Option<&Augmentation>,
) -> GradList {
    let x = maybe_augment(&Var::constant(images.clone()), aug);
    let logits = net.forward(&x, false);
    let loss = weighted_cross_entropy(&logits, labels, weights, Reduction::Sum);
    loss.backward();
    GradList::from_params(&net.params())
}

/// The matching distance `D` between synthetic and real model gradients
/// under the current parameters of `net` (no update; used by diagnostics
/// and tests).
pub fn gradient_distance(net: &ConvNet, batch: &MatchBatch<'_>, aug: Option<&Augmentation>) -> f32 {
    deco_telemetry::counter!("condense.matcher.distance_evals");
    let g_real = model_gradient(
        net,
        batch.real_images,
        batch.real_labels,
        batch.real_weights,
        aug,
    );
    let g_syn = model_gradient(net, batch.syn_images, batch.syn_labels, None, aug);
    cosine_distance(&g_syn, &g_real)
}

/// Gradient of the synthetic-image loss w.r.t. the images, with parameters
/// frozen at their current values.
fn input_gradient(
    net: &ConvNet,
    images: &Tensor,
    labels: &[usize],
    aug: Option<&Augmentation>,
) -> Tensor {
    let leaf = Var::leaf(images.clone(), true);
    let x = maybe_augment(&leaf, aug);
    let logits = net.forward(&x, true);
    let loss = weighted_cross_entropy(&logits, labels, None, Reduction::Sum);
    loss.backward();
    take_image_gradient(&leaf, images)
}

/// Extracts the image gradient after a backward pass.
///
/// A missing leaf gradient means backward never reached the images —
/// the graph was detached somewhere between leaf and loss. Substituting
/// zeros here (the old behavior) would silently turn every matching
/// step into a no-op image update, so this is a hard error.
///
/// # Panics
/// Panics when the leaf accumulated no gradient.
fn take_image_gradient(leaf: &Var, images: &Tensor) -> Tensor {
    leaf.grad().unwrap_or_else(|| {
        panic!(
            "input_gradient: no gradient reached the image leaf (shape {}); \
             the forward graph is detached from the images — check that the \
             augmentation and network keep them in the autograd graph",
            images.shape()
        )
    })
}

/// One efficient matching step (paper Eqs. 5–7): returns the distance and
/// the finite-difference approximation of `∇_X D`.
///
/// `epsilon_scale` is the paper's `0.01` — the actual step is
/// `ε = epsilon_scale / ‖∇_{g_syn} D‖₂`. The model's parameters are
/// perturbed internally but restored before returning.
///
/// # Panics
/// Panics on shape/label mismatches or a non-positive `epsilon_scale`.
pub fn one_step_match(
    net: &ConvNet,
    batch: &MatchBatch<'_>,
    aug: Option<&Augmentation>,
    epsilon_scale: f32,
) -> MatchResult {
    assert!(epsilon_scale > 0.0, "epsilon scale must be positive");
    let _g = deco_telemetry::span!("condense.matcher.one_step");
    deco_telemetry::counter!("condense.matcher.distance_evals");
    // Pass 1: g_real (with confidence weights).
    let g_real = model_gradient(
        net,
        batch.real_images,
        batch.real_labels,
        batch.real_weights,
        aug,
    );
    // Pass 2: g_syn.
    let g_syn = model_gradient(net, batch.syn_images, batch.syn_labels, None, aug);

    let distance = cosine_distance(&g_syn, &g_real);
    // Closed-form ∇_{g_syn} D — no extra pass needed for cosine distance.
    let v = cosine_distance_grad(&g_syn, &g_real);
    let v_norm = v.norm();
    if v_norm < 1e-12 {
        return MatchResult {
            distance,
            image_grad: Tensor::zeros(batch.syn_images.shape().clone()),
        };
    }
    let eps = epsilon_scale / v_norm;

    // Passes 3 & 4: input gradients at θ±.
    net.perturb(v.tensors(), eps);
    let grad_plus = input_gradient(net, batch.syn_images, batch.syn_labels, aug);
    net.perturb(v.tensors(), -2.0 * eps);
    let grad_minus = input_gradient(net, batch.syn_images, batch.syn_labels, aug);
    net.perturb(v.tensors(), eps); // restore θ

    let mut image_grad = grad_plus;
    image_grad.add_scaled(&grad_minus, -1.0);
    image_grad.scale_mut(1.0 / (2.0 * eps));
    MatchResult {
        distance,
        image_grad,
    }
}

/// One class's matching inputs, packaged for dispatch across the
/// `deco-runtime` pool. Every field is `Send`: tensors are `Arc`-backed
/// and the augmentation is a plain value type.
#[derive(Debug, Clone)]
pub struct ClassMatchJob {
    /// Synthetic images of the class `[ipc, c, h, w]`.
    pub syn_images: Tensor,
    /// Their fixed labels (all equal to the class).
    pub syn_labels: Vec<usize>,
    /// Real images pseudo-labeled with the class.
    pub real_images: Tensor,
    /// Their labels.
    pub real_labels: Vec<usize>,
    /// Optional per-sample confidence weights for the real loss (Eq. 4).
    pub real_weights: Option<Vec<f32>>,
    /// Optional DSA transform — drawn by the *caller* so RNG consumption
    /// stays in class order regardless of worker scheduling.
    pub aug: Option<Augmentation>,
}

/// A [`ClassMatchJob`] bundled with its *own* matching network snapshot
/// and step size, so jobs from different models — e.g. different tenants
/// of a serving host — can share one pool dispatch. Jobs that share a
/// network share the `Arc`, so batching is free for the single-model case
/// too.
#[derive(Debug, Clone)]
pub struct BatchMatchJob {
    /// Architecture of the matching network.
    pub config: ConvNetConfig,
    /// Parameter snapshot the network is rebuilt from on the worker.
    pub params: std::sync::Arc<Vec<Tensor>>,
    /// The class-matching inputs.
    pub job: ClassMatchJob,
    /// Finite-difference scale for this job (paper's `0.01`).
    pub epsilon_scale: f32,
}

/// Runs [`one_step_match`] for every job across the `deco-runtime` pool,
/// where each job carries its own network snapshot.
///
/// Every job is fully independent — own parameters, own inputs, own
/// epsilon — so the result of a job does not depend on which other jobs
/// ride in the same dispatch. That independence is what makes cross-tenant
/// batching bitwise-neutral: a tenant's match results are identical
/// whether its jobs are dispatched alone or merged into a batch with any
/// number of other tenants' jobs, at any thread count. Results come back
/// in job order, and a panic on a worker is re-raised here.
///
/// # Panics
/// Re-raises worker panics; panics on config/snapshot mismatches.
pub fn match_jobs_parallel(jobs: Vec<BatchMatchJob>) -> Vec<MatchResult> {
    let _g = deco_telemetry::span!("condense.matcher.parallel_classes");
    deco_runtime::parallel_map(jobs, move |_, batch| {
        let net = ConvNet::from_params(batch.config, &batch.params);
        one_step_match(
            &net,
            &MatchBatch {
                syn_images: &batch.job.syn_images,
                syn_labels: &batch.job.syn_labels,
                real_images: &batch.job.real_images,
                real_labels: &batch.job.real_labels,
                real_weights: batch.job.real_weights.as_deref(),
            },
            batch.job.aug.as_ref(),
            batch.epsilon_scale,
        )
    })
}

/// Runs [`one_step_match`] for every job across the `deco-runtime` pool.
///
/// The matching network is shipped as a `(config, params)` snapshot and
/// rebuilt per job — network internals are `Rc`-based and cannot cross
/// threads, but the snapshot can. A side effect of the per-job rebuild is
/// that every class matches against bitwise-identical parameters `θ̃`:
/// the perturb/restore passes of one class can no longer leak rounding
/// residue into the next class's gradients, which also makes the result
/// independent of evaluation order. Results come back in job order at any
/// thread count, and a panic on a worker is re-raised here.
///
/// This is the single-model convenience wrapper over
/// [`match_jobs_parallel`]; both paths execute the identical per-job code.
///
/// # Panics
/// Re-raises worker panics; panics on config/snapshot mismatches.
pub fn match_classes_parallel(
    config: ConvNetConfig,
    params: Vec<Tensor>,
    jobs: Vec<ClassMatchJob>,
    epsilon_scale: f32,
) -> Vec<MatchResult> {
    let params = std::sync::Arc::new(params);
    match_jobs_parallel(
        jobs.into_iter()
            .map(|job| BatchMatchJob {
                config,
                params: std::sync::Arc::clone(&params),
                job,
                epsilon_scale,
            })
            .collect(),
    )
}

/// Reference implementation of `∇_X D` by direct central differences on the
/// distance itself — O(pixels) passes, usable only on tiny problems. Kept
/// public for the validation tests and the finite-difference ablation.
pub fn numeric_image_grad(
    net: &ConvNet,
    batch: &MatchBatch<'_>,
    aug: Option<&Augmentation>,
    pixel_eps: f32,
    stride: usize,
) -> Tensor {
    let mut grad = Tensor::zeros(batch.syn_images.shape().clone());
    let n = batch.syn_images.numel();
    for i in (0..n).step_by(stride.max(1)) {
        let mut plus = batch.syn_images.clone();
        plus.data_mut()[i] += pixel_eps;
        let mut minus = batch.syn_images.clone();
        minus.data_mut()[i] -= pixel_eps;
        let d_plus = gradient_distance(
            net,
            &MatchBatch {
                syn_images: &plus,
                ..*batch
            },
            aug,
        );
        let d_minus = gradient_distance(
            net,
            &MatchBatch {
                syn_images: &minus,
                ..*batch
            },
            aug,
        );
        grad.data_mut()[i] = (d_plus - d_minus) / (2.0 * pixel_eps);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_nn::ConvNetConfig;
    use deco_tensor::Rng;

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

    fn batch_data(rng: &mut Rng) -> (Tensor, Vec<usize>, Tensor, Vec<usize>) {
        let syn = Tensor::randn([4, 1, 8, 8], rng);
        let syn_labels = vec![0, 0, 1, 1];
        let real = Tensor::randn([6, 1, 8, 8], rng);
        let real_labels = vec![0, 0, 0, 1, 1, 1];
        (syn, syn_labels, real, real_labels)
    }

    #[test]
    fn distance_is_finite_and_bounded() {
        let mut rng = Rng::new(1);
        let net = tiny_net(&mut rng, 2);
        let (syn, sl, real, rl) = batch_data(&mut rng);
        let batch = MatchBatch {
            syn_images: &syn,
            syn_labels: &sl,
            real_images: &real,
            real_labels: &rl,
            real_weights: None,
        };
        let d = gradient_distance(&net, &batch, None);
        assert!(d.is_finite());
        assert!(d >= 0.0);
    }

    #[test]
    fn identical_batches_have_near_zero_distance() {
        let mut rng = Rng::new(2);
        let net = tiny_net(&mut rng, 2);
        let imgs = Tensor::randn([4, 1, 8, 8], &mut rng);
        let labels = vec![0, 0, 1, 1];
        let batch = MatchBatch {
            syn_images: &imgs,
            syn_labels: &labels,
            real_images: &imgs,
            real_labels: &labels,
            real_weights: None,
        };
        let d = gradient_distance(&net, &batch, None);
        assert!(d.abs() < 1e-4, "distance {d}");
    }

    #[test]
    fn match_restores_parameters() {
        let mut rng = Rng::new(3);
        let net = tiny_net(&mut rng, 2);
        let before = net.get_params();
        let (syn, sl, real, rl) = batch_data(&mut rng);
        let batch = MatchBatch {
            syn_images: &syn,
            syn_labels: &sl,
            real_images: &real,
            real_labels: &rl,
            real_weights: None,
        };
        let _ = one_step_match(&net, &batch, None, 0.01);
        for (a, b) in net.get_params().iter().zip(&before) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-5, "parameters not restored");
            }
        }
    }

    #[test]
    fn finite_difference_matches_numeric_reference() {
        let mut rng = Rng::new(4);
        let net = tiny_net(&mut rng, 2);
        let syn = Tensor::randn([2, 1, 8, 8], &mut rng);
        let sl = vec![0, 1];
        let real = Tensor::randn([4, 1, 8, 8], &mut rng);
        let rl = vec![0, 0, 1, 1];
        let batch = MatchBatch {
            syn_images: &syn,
            syn_labels: &sl,
            real_images: &real,
            real_labels: &rl,
            real_weights: None,
        };
        let fast = one_step_match(&net, &batch, None, 0.01).image_grad;
        let slow = numeric_image_grad(&net, &batch, None, 1e-2, 3);
        // Compare direction on the probed subset.
        let mut dot = 0.0f64;
        let mut n_fast = 0.0f64;
        let mut n_slow = 0.0f64;
        for i in (0..syn.numel()).step_by(3) {
            let f = fast.data()[i] as f64;
            let s = slow.data()[i] as f64;
            dot += f * s;
            n_fast += f * f;
            n_slow += s * s;
        }
        let cos = dot / (n_fast.sqrt() * n_slow.sqrt() + 1e-12);
        assert!(cos > 0.9, "cosine between fast and numeric ∇_X D: {cos}");
    }

    #[test]
    fn gradient_step_reduces_matching_distance() {
        let mut rng = Rng::new(5);
        let net = tiny_net(&mut rng, 2);
        let (mut syn, sl, real, rl) = batch_data(&mut rng);
        let d0 = {
            let batch = MatchBatch {
                syn_images: &syn,
                syn_labels: &sl,
                real_images: &real,
                real_labels: &rl,
                real_weights: None,
            };
            let res = one_step_match(&net, &batch, None, 0.01);
            syn.add_scaled(&res.image_grad, -0.5);
            res.distance
        };
        let d1 = gradient_distance(
            &net,
            &MatchBatch {
                syn_images: &syn,
                syn_labels: &sl,
                real_images: &real,
                real_labels: &rl,
                real_weights: None,
            },
            None,
        );
        assert!(d1 < d0, "distance did not decrease: {d0} -> {d1}");
    }

    #[test]
    fn weights_change_the_real_gradient() {
        let mut rng = Rng::new(6);
        let net = tiny_net(&mut rng, 2);
        let (syn, sl, real, rl) = batch_data(&mut rng);
        let unweighted = MatchBatch {
            syn_images: &syn,
            syn_labels: &sl,
            real_images: &real,
            real_labels: &rl,
            real_weights: None,
        };
        let w = [1.0f32, 0.1, 0.1, 1.0, 0.1, 0.1];
        let weighted = MatchBatch {
            real_weights: Some(&w),
            ..unweighted
        };
        let d0 = gradient_distance(&net, &unweighted, None);
        let d1 = gradient_distance(&net, &weighted, None);
        assert_ne!(d0, d1);
    }

    #[test]
    #[should_panic(expected = "no gradient reached the image leaf")]
    fn detached_graph_trips_input_gradient_diagnostic() {
        let images = Tensor::zeros([1, 1, 8, 8]);
        let leaf = Var::leaf(images.clone(), true);
        // A loss built from a detached copy: backward never reaches `leaf`,
        // which used to be masked as an all-zero image update.
        let detached = leaf.detach();
        detached.square().sum().backward();
        let _ = take_image_gradient(&leaf, &images);
    }

    #[test]
    fn zero_gradient_direction_yields_zero_update() {
        // Real == syn → D = 0, ∇D = 0 → image grad must be exactly zero.
        let mut rng = Rng::new(7);
        let net = tiny_net(&mut rng, 2);
        let imgs = Tensor::randn([2, 1, 8, 8], &mut rng);
        let labels = vec![0, 1];
        let batch = MatchBatch {
            syn_images: &imgs,
            syn_labels: &labels,
            real_images: &imgs,
            real_labels: &labels,
            real_weights: None,
        };
        let res = one_step_match(&net, &batch, None, 0.01);
        assert!(
            res.image_grad.l2_norm() < 1e-3,
            "norm {}",
            res.image_grad.l2_norm()
        );
    }
}
