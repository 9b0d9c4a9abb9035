//! Property-based tests for the nn substrate: optimizer behaviour, matching
//! distance bounds, architecture shape algebra.

use deco_nn::{
    cosine_distance, cosine_distance_grad, weighted_cross_entropy, ConvNet, ConvNetConfig,
    GradList, Param, Sgd,
};
use deco_tensor::{Reduction, Rng, Tensor, Var};
use proptest::prelude::*;

fn gradlist(rng: &mut Rng, blocks: usize, len: usize) -> GradList {
    (0..blocks).map(|_| Tensor::randn([len], rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cosine_distance_is_nonnegative_and_bounded(seed in 0u64..500, blocks in 1usize..4) {
        let mut rng = Rng::new(seed);
        let a = gradlist(&mut rng, blocks, 6);
        let b = gradlist(&mut rng, blocks, 6);
        let d = cosine_distance(&a, &b);
        prop_assert!(d >= -1e-5);
        prop_assert!(d <= 2.0 * blocks as f32 + 1e-5);
    }

    #[test]
    fn cosine_distance_is_symmetric(seed in 0u64..500) {
        let mut rng = Rng::new(seed);
        let a = gradlist(&mut rng, 2, 8);
        let b = gradlist(&mut rng, 2, 8);
        prop_assert!((cosine_distance(&a, &b) - cosine_distance(&b, &a)).abs() < 1e-5);
    }

    #[test]
    fn cosine_grad_descends(seed in 0u64..200) {
        // A small step along -∇_g D must not increase D.
        let mut rng = Rng::new(seed);
        let mut g = gradlist(&mut rng, 1, 10);
        let r = gradlist(&mut rng, 1, 10);
        let d0 = cosine_distance(&g, &r);
        let grad = cosine_distance_grad(&g, &r);
        g.add_scaled(&grad, -1e-3);
        let d1 = cosine_distance(&g, &r);
        prop_assert!(d1 <= d0 + 1e-4, "{} -> {}", d0, d1);
    }

    #[test]
    fn sgd_reduces_a_quadratic(seed in 0u64..200, lr in 0.01f32..0.3) {
        let mut rng = Rng::new(seed);
        let target = rng.uniform(-3.0, 3.0);
        let mut opt = Sgd::new(lr);
        let mut x = Tensor::from_vec(vec![rng.uniform(-3.0, 3.0)], [1]);
        let f = |x: f32| (x - target) * (x - target);
        let before = f(x.item());
        for _ in 0..20 {
            let g = Tensor::from_vec(vec![2.0 * (x.item() - target)], [1]);
            opt.step_slot(0, &mut x, &g);
        }
        prop_assert!(f(x.item()) <= before + 1e-6);
    }

    #[test]
    fn weight_decay_never_grows_norm_without_gradient(seed in 0u64..200, wd in 0.0f32..0.5) {
        let mut rng = Rng::new(seed);
        let mut opt = Sgd::new(0.1).with_weight_decay(wd);
        let mut x = Tensor::randn([6], &mut rng);
        let before = x.l2_norm();
        opt.step_slot(0, &mut x, &Tensor::zeros([6]));
        prop_assert!(x.l2_norm() <= before + 1e-6);
    }

    #[test]
    fn convnet_output_shape_for_random_configs(
        width in 1usize..12,
        depth in 1usize..4,
        classes in 2usize..8,
        batch in 1usize..5,
        seed in 0u64..100,
    ) {
        let mut rng = Rng::new(seed);
        let side = 8 * (1 << (depth.saturating_sub(3).min(1))); // 8 or 16, divisible by 2^depth
        let side = if side % (1 << depth) == 0 { side } else { 16 };
        let cfg = ConvNetConfig { in_channels: 2, image_side: side, width, depth, num_classes: classes, norm: true };
        let net = ConvNet::new(cfg, &mut rng);
        let x = Var::constant(Tensor::randn([batch, 2, side, side], &mut rng));
        let y = net.forward(&x, true);
        prop_assert_eq!(y.shape().dims(), &[batch, classes]);
        prop_assert!(y.value().is_finite());
    }

    #[test]
    fn cross_entropy_is_nonnegative(seed in 0u64..300, n in 1usize..6, c in 2usize..6) {
        let mut rng = Rng::new(seed);
        let logits = Var::constant(Tensor::randn([n, c], &mut rng));
        let labels: Vec<usize> = (0..n).map(|_| rng.below(c)).collect();
        let loss = weighted_cross_entropy(&logits, &labels, None, Reduction::Mean);
        prop_assert!(loss.value().item() >= 0.0);
    }

    #[test]
    fn param_update_roundtrip(seed in 0u64..200, alpha in -1.0f32..1.0) {
        let mut rng = Rng::new(seed);
        let p = Param::new(Tensor::randn([4], &mut rng));
        let before = p.tensor();
        let delta = Tensor::randn([4], &mut rng);
        p.add_scaled(&delta, alpha);
        p.add_scaled(&delta, -alpha);
        for (a, b) in p.tensor().data().iter().zip(before.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }
}
