//! Fused-vs-reference bitwise identity under both SIMD numerics modes.
//!
//! The fusion contract (a fused op computes exactly the bits of the op
//! chain it replaces) must hold whatever numerics mode the GEMM
//! dispatches to: with `DECO_SIMD` forced off, production and reference
//! run the scalar microkernel; forced on, both run the detected SIMD
//! kernel — either way, and at 1 and 4 threads, the pair must agree.
//!
//! This lives in its own integration-test binary because it flips the
//! process-global SIMD override (see
//! [`deco_tensor::testhook::set_simd_override`]).

use deco_condense::{one_step_match, MatchBatch};
use deco_conformance::unfused;
use deco_nn::{ConvNet, ConvNetConfig};
use deco_tensor::testhook::set_simd_override;
use deco_tensor::{ops::simd, Rng, Tensor};

#[test]
fn one_step_match_matches_reference_under_both_simd_modes() {
    let mut rng = Rng::new(77);
    let config = ConvNetConfig {
        in_channels: 3,
        image_side: 16,
        width: 8,
        depth: 2,
        num_classes: 4,
        norm: true,
    };
    let params = ConvNet::new(config, &mut rng).get_params();
    let syn = Tensor::randn([3, 3, 16, 16], &mut rng);
    let syn_labels = vec![0, 1, 2];
    let real = Tensor::randn([6, 3, 16, 16], &mut rng);
    let real_labels = vec![0, 1, 2, 3, 0, 1];
    let batch = MatchBatch {
        syn_images: &syn,
        syn_labels: &syn_labels,
        real_images: &real,
        real_labels: &real_labels,
        real_weights: None,
    };

    let mut modes = vec![Some(false)];
    if simd::detected_simd().is_some() {
        modes.push(Some(true));
    } else {
        eprintln!("[fusion_simd] host has no SIMD kernel; scalar mode only");
    }
    for simd_mode in modes {
        set_simd_override(simd_mode);
        for threads in [1, 4] {
            let (fused, reference) = deco_runtime::with_thread_count(threads, || {
                let net = ConvNet::from_params(config, &params);
                (
                    one_step_match(&net, &batch, None, 0.01),
                    unfused::one_step_match(&config, &params, &batch, 0.01),
                )
            });
            assert_eq!(
                fused.distance.to_bits(),
                reference.distance.to_bits(),
                "distance drifted (simd={simd_mode:?}, threads={threads})"
            );
            for (i, (x, y)) in fused
                .image_grad
                .data()
                .iter()
                .zip(reference.image_grad.data())
                .enumerate()
            {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "image grad [{i}] drifted (simd={simd_mode:?}, threads={threads})"
                );
            }
        }
        set_simd_override(None);
    }
}
