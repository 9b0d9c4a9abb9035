//! Cross-crate substrate integration: tensor ↔ nn ↔ condense numerics that
//! only surface when the pieces compose (training through augmentations,
//! MLP-on-synthetic-data, domain-shift streams).

use deco_repro::condense::{Augmentation, SyntheticBuffer};
use deco_repro::nn::{weighted_cross_entropy, Mlp, MlpConfig};
use deco_repro::prelude::*;
use deco_repro::scenarios::DomainShift;
use deco_repro::tensor::Reduction;

#[test]
fn training_through_augmentation_still_learns() {
    // Gradients must flow through flip/shift/cutout into the weights.
    let mut rng = Rng::new(1);
    let data = SyntheticVision::new(core50());
    let set = data.pretrain_set(4);
    let cfg = ConvNetConfig {
        width: 8,
        ..ConvNetConfig::small(10)
    };
    let net = ConvNet::new(cfg, &mut rng);
    let mut opt = Sgd::new(0.02).with_momentum(0.9);
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for step in 0..40 {
        let aug = Augmentation::sample(16, &mut rng);
        let x = aug.apply(&Var::constant(set.images.clone()));
        let loss =
            weighted_cross_entropy(&net.forward(&x, false), &set.labels, None, Reduction::Mean);
        loss.backward();
        opt.step(&net.params());
        last_loss = loss.value().item();
        if step == 0 {
            first_loss = Some(last_loss);
        }
    }
    assert!(
        last_loss < first_loss.unwrap(),
        "loss did not improve under augmentation"
    );
}

#[test]
fn mlp_trains_on_a_condensed_buffer() {
    // Cross-architecture path: buffer built for ConvNets must still be a
    // usable training set for an MLP.
    let mut rng = Rng::new(2);
    let data = SyntheticVision::new(core50());
    let set = data.pretrain_set(4);
    let buffer = SyntheticBuffer::from_labeled(&set, 2, 10, &mut rng);
    let (images, labels) = buffer.as_training_batch();
    let mlp = Mlp::new(MlpConfig::small(3 * 16 * 16, 10), &mut rng);
    let mut opt = Sgd::new(0.02).with_momentum(0.9);
    let mut losses = Vec::new();
    for _ in 0..30 {
        let logits = mlp.forward(&Var::constant(images.clone()), false);
        let loss = weighted_cross_entropy(&logits, &labels, None, Reduction::Mean);
        loss.backward();
        opt.step(&mlp.params());
        losses.push(loss.value().item());
    }
    assert!(losses.last().unwrap() < &losses[0]);
    // And it generalizes above chance on held-out frames.
    let test = data.test_set(4);
    let preds = mlp.predict_classes(&test.images);
    let acc = preds
        .iter()
        .zip(&test.labels)
        .filter(|(p, y)| p == y)
        .count() as f32
        / test.len() as f32;
    assert!(acc > 0.15, "MLP accuracy {acc} at chance");
}

#[test]
fn domain_shift_stream_drives_the_full_learner() {
    let mut rng = Rng::new(6);
    let data = SyntheticVision::new(core50());
    let cfg = ConvNetConfig {
        width: 8,
        ..ConvNetConfig::small(10)
    };
    let model = ConvNet::new(cfg, &mut rng);
    pretrain(&model, &data.pretrain_set(3), 20, 0.02);
    let scratch = ConvNet::new(cfg, &mut rng);
    let policy = BufferPolicy::Condensed {
        condenser: Box::new(DecoCondenser::new(DecoConfig::default().with_iterations(2))),
        buffer: SyntheticBuffer::from_labeled(&data.pretrain_set(3), 1, 10, &mut rng),
    };
    let lc = LearnerConfig {
        vote_threshold: 0.3,
        beta: 2,
        model_lr: 5e-3,
        model_epochs: 4,
    };
    let mut learner = OnDeviceLearner::new(model, scratch, policy, lc, rng.fork(7));
    let scfg = StreamConfig {
        stc: 16,
        segment_size: 16,
        num_segments: 4,
        seed: 8,
    };
    let shift = ScenarioConfig::DomainShift(DomainShift::default());
    for segment in Stream::with_scenario(&data, scfg, shift) {
        let report = learner.process_segment(&segment);
        assert_eq!(report.segment_len, 16);
    }
    let acc = learner.evaluate(&data.test_set(3));
    assert!((0.0..=1.0).contains(&acc));
}

#[test]
fn selection_and_condensed_policies_expose_consistent_training_data() {
    let mut rng = Rng::new(9);
    let data = SyntheticVision::new(core50());
    let set = data.pretrain_set(2);
    // Condensed.
    let buffer = SyntheticBuffer::from_labeled(&set, 1, 10, &mut rng);
    let policy = BufferPolicy::Condensed {
        condenser: Box::new(DecoCondenser::new(DecoConfig::default())),
        buffer,
    };
    let (images, labels, weights) = policy.training_data().unwrap();
    assert_eq!(images.shape().dim(0), 10);
    assert_eq!(labels.len(), 10);
    assert!(weights.is_none(), "synthetic data is weighted 1 (Eq. 4)");
    // Selection.
    let mut rbuf = ReplayBuffer::new(4);
    for i in 0..4 {
        rbuf.push(deco_repro::replay::BufferItem {
            image: set.images.select_rows(&[i]).reshape([3, 16, 16]),
            label: set.labels[i],
            confidence: 0.5,
        });
    }
    let policy = BufferPolicy::Selection {
        strategy: BaselineKind::Fifo.build(),
        buffer: rbuf,
    };
    let (_, labels, weights) = policy.training_data().unwrap();
    assert_eq!(labels.len(), 4);
    assert_eq!(
        weights.unwrap(),
        vec![0.5; 4],
        "real data carries confidences"
    );
}
