//! # deco-repro
//!
//! Facade crate of the DECO reproduction (*Enabling Memory-Efficient
//! On-Device Learning via Dataset Condensation*, DATE 2025): re-exports
//! every member crate under one roof so examples and downstream users can
//! depend on a single crate.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `deco-tensor` | dense tensors + reverse-mode autograd |
//! | [`nn`] | `deco-nn` | layers, ConvNet, losses, optimizers |
//! | [`datasets`] | `deco-datasets` | synthetic streaming vision datasets |
//! | [`replay`] | `deco-replay` | selection-baseline replay buffers |
//! | [`condense`] | `deco-condense` | DC / DSA / DM + one-step matching |
//! | [`core`] | `deco` | DECO itself + the on-device learning loop |
//! | [`eval`] | `deco-eval` | experiment runner, tables, reports |
//! | [`runtime`] | `deco-runtime` | thread pool, deterministic reductions |
//! | [`serve`] | `deco-serve` | multi-tenant serving: session persistence, LRU eviction, batch scheduling |
//! | [`scenarios`] | `deco-scenarios` | adversarial stream scenarios + benchmark matrix / leaderboard |
//!
//! ```no_run
//! use deco_repro::prelude::*;
//!
//! let mut rng = Rng::new(0);
//! let data = SyntheticVision::new(core50());
//! let model = ConvNet::new(ConvNetConfig::small(10), &mut rng);
//! pretrain(&model, &data.pretrain_set(4), 100, 1e-2);
//! println!("pre-deployment accuracy: {}", accuracy(&model, &data.test_set(5)));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use deco as core;
pub use deco_condense as condense;
pub use deco_datasets as datasets;
pub use deco_eval as eval;
pub use deco_nn as nn;
pub use deco_replay as replay;
pub use deco_runtime as runtime;
pub use deco_scenarios as scenarios;
pub use deco_serve as serve;
pub use deco_tensor as tensor;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use deco::{
        accuracy, confusion_matrix, majority_vote, pretrain, BufferPolicy, DecoCondenser,
        DecoConfig, LearnerConfig, OnDeviceLearner,
    };
    pub use deco_condense::{Condenser, SyntheticBuffer};
    pub use deco_datasets::{
        cifar100, cifar10_confusable, core50, icub1, imagenet10, LabeledSet, Segment, Stream,
        StreamConfig, SyntheticVision,
    };
    pub use deco_eval::{run_cell, run_trial, DatasetId, ExperimentScale, MethodKind, TrialSpec};
    pub use deco_nn::{ConvNet, ConvNetConfig, Sgd};
    pub use deco_replay::{BaselineKind, ReplayBuffer};
    pub use deco_scenarios::{ScenarioConfig, ScenarioStream};
    pub use deco_tensor::{Rng, Tensor, Var};
}
