//! Domain shift (extension experiment): halfway through the stream the
//! acquisition environment moves from the first half of the sessions to
//! the second — a robot carried from one building to another. A condensed
//! buffer must retain the early environments' appearance while absorbing
//! the new one; a FIFO buffer simply forgets. Tracks mean forgetting via
//! per-class accuracy snapshots.
//!
//! ```bash
//! cargo run --release --example domain_shift_adaptation
//! ```

use deco_repro::eval::{per_class_accuracy, ForgettingTracker};
use deco_repro::prelude::*;
use deco_repro::scenarios::DomainShift;

fn run(name: &str, policy_for: impl FnOnce(&SyntheticVision, &mut Rng) -> BufferPolicy) {
    let mut rng = Rng::new(33);
    let data = SyntheticVision::new(core50());
    let test = data.test_set(5);

    let net_cfg = ConvNetConfig {
        width: 8,
        ..ConvNetConfig::small(10)
    };
    let model = ConvNet::new(net_cfg, &mut rng);
    pretrain(&model, &data.pretrain_set(4), 50, 0.02);
    let scratch = ConvNet::new(net_cfg, &mut rng);

    let policy = policy_for(&data, &mut rng);
    let config = LearnerConfig {
        vote_threshold: 0.3,
        beta: 3,
        model_lr: 5e-3,
        model_epochs: 10,
    };
    let mut learner = OnDeviceLearner::new(model, scratch, policy, config, rng.fork(1));

    let cfg = StreamConfig {
        stc: 24,
        segment_size: 32,
        num_segments: 12,
        seed: 6,
    };
    let mut tracker = ForgettingTracker::new();
    tracker.record(per_class_accuracy(learner.model(), &test, 10));
    let shift = ScenarioConfig::DomainShift(DomainShift::default());
    for (i, segment) in Stream::with_scenario(&data, cfg, shift).enumerate() {
        learner.process_segment(&segment);
        if (i + 1) % 3 == 0 {
            tracker.record(per_class_accuracy(learner.model(), &test, 10));
        }
    }
    println!(
        "{name:12} final acc {:4.1}%   mean forgetting {:4.1}%",
        learner.evaluate(&test) * 100.0,
        tracker.mean_forgetting() * 100.0,
    );
}

fn main() {
    println!("Environment shift at mid-stream (CORe50-like, sessions 0-4 then 5-10)\n");
    run("DECO", |data, rng| BufferPolicy::Condensed {
        condenser: Box::new(DecoCondenser::new(DecoConfig::default().with_iterations(4))),
        buffer: SyntheticBuffer::from_labeled(&data.pretrain_set(4), 2, 10, rng),
    });
    run("FIFO", |_data, _rng| BufferPolicy::Selection {
        strategy: BaselineKind::Fifo.build(),
        buffer: ReplayBuffer::new(20),
    });
    run("Herding", |_data, _rng| BufferPolicy::Selection {
        strategy: BaselineKind::Herding.build(),
        buffer: ReplayBuffer::new(20),
    });
    println!("\nLower forgetting = the buffer preserved earlier environments.");
}
