//! Fused matcher steps against their unfused reference.
//!
//! The fused kernels (`group_norm_relu`, the fused softmax
//! cross-entropy and the conv bias epilogue) replicate the
//! exact per-element f32 operation and accumulation order of the op
//! chains they replace, so a full `one_step_match` — five
//! forward/backward passes through every fused op — must be **bitwise
//! identical** to the same step built from those chains
//! (`deco_conformance::unfused`), at any thread count. The per-kernel
//! version of this contract lives in the conformance fuzzer; this test
//! holds the end-to-end matcher step to it.

use deco_condense::{gradient_distance, one_step_match, MatchBatch};
use deco_conformance::unfused;
use deco_nn::{cosine_distance, ConvNet, ConvNetConfig};
use deco_tensor::{Rng, Tensor, Var};

/// Three synthetic and six real images shaped for `config`, labelled
/// round-robin over its classes.
fn batch_data(config: &ConvNetConfig, rng: &mut Rng) -> (Tensor, Vec<usize>, Tensor, Vec<usize>) {
    let (c, side) = (config.in_channels, config.image_side);
    let labels = |n: usize| (0..n).map(|i| i % config.num_classes).collect();
    let syn = Tensor::randn([3, c, side, side], rng);
    let real = Tensor::randn([6, c, side, side], rng);
    (syn, labels(3), real, labels(6))
}

/// A 1×8×8 width-4 net: every GEMM is below `PACKED_MIN_FLOPS` and
/// runs the naive loop.
fn config() -> ConvNetConfig {
    ConvNetConfig {
        in_channels: 1,
        image_side: 8,
        width: 4,
        depth: 2,
        num_classes: 2,
        norm: true,
    }
}

/// A 3×16×16 width-8 net with 4 classes: its conv GEMMs cross
/// `PACKED_MIN_FLOPS` and run the packed microkernel.
fn packed_config() -> ConvNetConfig {
    ConvNetConfig {
        in_channels: 3,
        image_side: 16,
        width: 8,
        depth: 2,
        num_classes: 4,
        norm: true,
    }
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} [{i}] drifted: {x} vs {y}");
    }
}

/// `one_step_match` vs the reference step at 1 and 4 threads: distance
/// and image gradient bitwise identical across all four runs, on both
/// the naive-loop and the packed-GEMM net.
#[test]
fn one_step_match_matches_reference_bitwise() {
    for (seed, config) in [(31, config()), (77, packed_config())] {
        let mut rng = Rng::new(seed);
        let params = ConvNet::new(config, &mut rng).get_params();
        let (syn, sl, real, rl) = batch_data(&config, &mut rng);
        let batch = MatchBatch {
            syn_images: &syn,
            syn_labels: &sl,
            real_images: &real,
            real_labels: &rl,
            real_weights: None,
        };
        // The step perturbs and restores θ in floating point, which is
        // not bit-exact — so each run gets a fresh net from the same
        // snapshot.
        let fused = |threads: usize| {
            deco_runtime::with_thread_count(threads, || {
                one_step_match(&ConvNet::from_params(config, &params), &batch, None, 0.01)
            })
        };
        let reference = |threads: usize| {
            deco_runtime::with_thread_count(threads, || {
                unfused::one_step_match(&config, &params, &batch, 0.01)
            })
        };
        let base = fused(1);
        for (other, what) in [
            (fused(4), "fused/4t"),
            (reference(1), "reference/1t"),
            (reference(4), "reference/4t"),
        ] {
            let what = format!("seed {seed}, {what}");
            assert_eq!(
                base.distance.to_bits(),
                other.distance.to_bits(),
                "distance drifted ({what})"
            );
            assert_bits_eq(
                base.image_grad.data(),
                other.image_grad.data(),
                &format!("image grad ({what})"),
            );
        }
    }
}

/// The gradient-matching distance `D` alone (two full model-gradient
/// passes) vs the reference network's, bitwise.
#[test]
fn gradient_distance_matches_reference_bitwise() {
    let mut rng = Rng::new(32);
    let config = config();
    let params = ConvNet::new(config, &mut rng).get_params();
    let (syn, sl, real, rl) = batch_data(&config, &mut rng);
    let batch = MatchBatch {
        syn_images: &syn,
        syn_labels: &sl,
        real_images: &real,
        real_labels: &rl,
        real_weights: None,
    };
    let fused = gradient_distance(&ConvNet::from_params(config, &params), &batch, None);
    let reference = cosine_distance(
        &unfused::model_gradient(&config, &params, &syn, &sl, None),
        &unfused::model_gradient(&config, &params, &real, &rl, None),
    );
    assert_eq!(fused.to_bits(), reference.to_bits());
}

/// A DM-style feature-matching gradient (the `ConvNet::features`
/// encoder path, which routes through the fused block tail) vs the
/// reference encoder at 1 and 4 threads, bitwise on the synthetic-image
/// gradient.
#[test]
fn dm_feature_gradient_matches_reference_bitwise() {
    let mut rng = Rng::new(33);
    let config = config();
    let params = ConvNet::new(config, &mut rng).get_params();
    let real = Tensor::randn([5, 1, 8, 8], &mut rng);
    let syn = Tensor::randn([2, 1, 8, 8], &mut rng);
    let run = |fused: bool, threads: usize| {
        deco_runtime::with_thread_count(threads, || {
            let net = ConvNet::from_params(config, &params);
            let frozen: Vec<Var> = params.iter().cloned().map(Var::constant).collect();
            let features = |x: &Var| {
                if fused {
                    net.features(x, true)
                } else {
                    unfused::convnet_features(&config, &frozen, x)
                }
            };
            let real_feats = features(&Var::constant(real.clone()));
            let real_mean = Var::constant(real_feats.value().mean_axes(&[0], true));
            let syn_leaf = Var::leaf(syn.clone(), true);
            let syn_mean = features(&syn_leaf).mean_axes_keepdim(&[0]);
            syn_mean.sub(&real_mean).square().sum().backward();
            syn_leaf.grad().expect("image gradient")
        })
    };
    let base = run(true, 1);
    for (fused, threads) in [(true, 4), (false, 1), (false, 4)] {
        assert_bits_eq(
            base.data(),
            run(fused, threads).data(),
            &format!("feature grad (fused={fused}, threads={threads})"),
        );
    }
}
