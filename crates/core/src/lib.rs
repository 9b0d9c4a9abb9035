//! # deco
//!
//! DECO — *on-Device Efficient COndensation* — the primary contribution of
//! “Enabling Memory-Efficient On-Device Learning via Dataset Condensation”
//! (DATE 2025), reproduced in Rust.
//!
//! The crate provides the three components of the paper's framework plus
//! the driver that ties them together:
//!
//! * **Majority-voting pseudo-labels** ([`majority_vote`], §III-B): the
//!   deployed model labels each incoming segment; classes whose prediction
//!   share exceeds a threshold `m` become *active* and only their items are
//!   kept.
//! * **Efficient on-device condensation** ([`DecoCondenser`], §III-C):
//!   one-step gradient matching under freshly randomized models, with the
//!   finite-difference approximation of Eq. 7 — five forward-backward
//!   passes per update instead of bilevel optimization.
//! * **Feature discrimination** (§III-D, via
//!   [`deco_nn::feature_discrimination_loss`]): a supervised-contrastive
//!   objective on the deployed encoder's features that keeps classes in the
//!   buffer separable despite pseudo-label noise.
//! * **The on-device loop** ([`OnDeviceLearner`], Algorithm 1): consume
//!   segments, label, vote, condense (or select, for the baselines), and
//!   retrain the model on the buffer every `β` segments.
//!
//! ```no_run
//! use deco::{BufferPolicy, DecoCondenser, DecoConfig, LearnerConfig, OnDeviceLearner, pretrain};
//! use deco_condense::SyntheticBuffer;
//! use deco_datasets::{core50, Stream, SyntheticVision};
//! use deco_nn::{ConvNet, ConvNetConfig};
//! use deco_tensor::Rng;
//!
//! let mut rng = Rng::new(0);
//! let data = SyntheticVision::new(core50());
//!
//! // Pre-train on the small labeled set, then deploy.
//! let model = ConvNet::new(ConvNetConfig::small(10), &mut rng);
//! pretrain(&model, &data.pretrain_set(4), 100, 1e-2);
//! let scratch = ConvNet::new(ConvNetConfig::small(10), &mut rng);
//!
//! let policy = BufferPolicy::Condensed {
//!     condenser: Box::new(DecoCondenser::new(DecoConfig::default())),
//!     buffer: SyntheticBuffer::from_labeled(&data.pretrain_set(4), 1, 10, &mut rng),
//! };
//! let mut learner = OnDeviceLearner::new(
//!     model, scratch, policy, LearnerConfig::default(), rng.fork(1),
//! );
//!
//! let cfg = Stream::default_config(&data, 50, 0);
//! for segment in Stream::new(&data, cfg) {
//!     learner.process_segment(&segment);
//! }
//! println!("final accuracy: {}", learner.evaluate(&data.test_set(10)));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod condenser;
mod config;
mod learner;
mod self_training;
mod train;
mod voting;

pub use condenser::DecoCondenser;
pub use config::DecoConfig;
pub use learner::{
    BufferPolicy, DecoIterationJobs, DecoPhase, LearnerConfig, LearnerSnapshot, OnDeviceLearner,
    PreparedSegment, SegmentReport,
};
pub use self_training::{SelfTrainer, SelfTrainingConfig, SelfTrainingReport};
pub use train::{accuracy, confusion_matrix, pretrain, train_classifier, WEIGHT_DECAY};
pub use voting::{assign_pseudo_labels, kept_label_accuracy, majority_vote, VoteOutcome};
