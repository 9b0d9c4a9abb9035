//! On-device checkpointing: learn from half a stream, persist the *whole*
//! session to disk — model, optimizer momenta, condensed buffer, RNG, and
//! the position inside the stream — simulate a device restart, restore,
//! and continue. The resumed device is **bit-for-bit identical** to one
//! that never restarted, and this example asserts it.
//!
//! Persistence uses `deco_serve::SessionState`, the versioned binary
//! session format of the serving layer and the one at-rest format for
//! learner state: it round-trips exact `f32`/`u64` bit patterns and
//! resumes *mid-stream* via the stream cursor.
//!
//! ```bash
//! cargo run --release --example checkpoint_resume
//! ```

use deco_repro::prelude::*;
use deco_repro::serve::SessionState;

fn build_learner(data: &SyntheticVision, seed: u64) -> OnDeviceLearner {
    let mut rng = Rng::new(seed);
    let net_cfg = ConvNetConfig {
        width: 8,
        ..ConvNetConfig::small(10)
    };
    let model = ConvNet::new(net_cfg, &mut rng);
    let labeled = data.pretrain_set(4);
    pretrain(&model, &labeled, 50, 0.02);
    let scratch = ConvNet::new(net_cfg, &mut rng);
    let policy = BufferPolicy::Condensed {
        condenser: Box::new(DecoCondenser::new(DecoConfig::default().with_iterations(4))),
        buffer: SyntheticBuffer::from_labeled(&labeled, 1, 10, &mut rng),
    };
    let config = LearnerConfig {
        vote_threshold: 0.4,
        beta: 3,
        model_lr: 5e-3,
        model_epochs: 10,
    };
    OnDeviceLearner::new(model, scratch, policy, config, rng.fork(1))
}

fn model_bits(learner: &OnDeviceLearner) -> Vec<u32> {
    learner
        .model()
        .get_params()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticVision::new(core50());
    let test = data.test_set(5);
    let cfg = StreamConfig {
        stc: 48,
        segment_size: 32,
        num_segments: 12,
        seed: 4,
    };

    // Reference device: processes the whole stream with no restart.
    let mut reference = build_learner(&data, 21);
    for segment in Stream::new(&data, cfg) {
        reference.process_segment(&segment);
    }

    // The actual device: first half of the same stream…
    let mut learner = build_learner(&data, 21);
    let mut stream = Stream::new(&data, cfg);
    for _ in 0..6 {
        let segment = stream.next().expect("first half");
        learner.process_segment(&segment);
    }
    println!(
        "accuracy mid-stream      : {:.1}%",
        learner.evaluate(&test) * 100.0
    );

    // …persist the complete session, stream position included.
    let path = std::env::temp_dir().join("deco-device-state.dsrv");
    let state = SessionState::capture(0, &learner, stream.cursor());
    state.save(&path)?;
    println!(
        "session saved to {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // --- simulated restart: a fresh learner built from a *different*
    // seed; every live value is then overwritten from disk. ---
    let mut resumed = build_learner(&data, 999);
    let restored = SessionState::load(&path)?;
    restored.restore_into(&mut resumed);
    println!(
        "restored after {} processed items",
        restored.snapshot.items_seen
    );
    println!(
        "accuracy after restore   : {:.1}%",
        resumed.evaluate(&test) * 100.0
    );

    // Continue exactly where the stream left off.
    let mut stream2 = Stream::new(&data, cfg);
    stream2.seek(&restored.cursor);
    for segment in stream2 {
        resumed.process_segment(&segment);
    }
    println!(
        "accuracy after resuming  : {:.1}%",
        resumed.evaluate(&test) * 100.0
    );

    // The restart must be invisible: bit-identical to the reference.
    assert_eq!(
        model_bits(&reference),
        model_bits(&resumed),
        "resumed model diverged from the never-restarted reference"
    );
    assert_eq!(reference.items_seen(), resumed.items_seen());
    println!("bit-exact resume         : OK (model identical to no-restart reference)");
    Ok(())
}
