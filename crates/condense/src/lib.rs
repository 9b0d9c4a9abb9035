//! # deco-condense
//!
//! Dataset-condensation machinery for the DECO reproduction:
//!
//! * [`SyntheticBuffer`] — the class-balanced learnable image buffer `S`;
//! * [`one_step_match`] — one-step gradient matching with the paper's
//!   finite-difference approximation (Eq. 7), five forward-backward passes
//!   per update instead of an explicit second-order term;
//! * [`Augmentation`] — differentiable siamese augmentation (DSA);
//! * the Table II baselines: [`DcCondenser`] (vanilla bilevel gradient
//!   matching), [`DsaCondenser`] (DC + DSA) and [`DmCondenser`]
//!   (distribution matching).
//!
//! The DECO condenser itself — one-step matching plus feature
//! discrimination — lives in the `deco` crate and implements the same
//! [`Condenser`] trait.
//!
//! ```
//! use deco_condense::{CondenseContext, Condenser, DmCondenser, DmConfig, SegmentData, SyntheticBuffer};
//! use deco_nn::{ConvNet, ConvNetConfig};
//! use deco_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::new(0);
//! let net = ConvNet::new(ConvNetConfig::small(10), &mut rng);
//! let mut buffer = SyntheticBuffer::new_random(1, 10, [3, 16, 16], &mut rng);
//! let images = Tensor::randn([8, 3, 16, 16], &mut rng);
//! let labels = vec![2usize; 8];
//! let weights = vec![1.0f32; 8];
//! let segment = SegmentData {
//!     images: &images,
//!     labels: &labels,
//!     weights: &weights,
//!     active_classes: &[2],
//! };
//! let mut dm = DmCondenser::new(DmConfig::default());
//! let deployed = ConvNet::new(ConvNetConfig::small(10), &mut rng);
//! let mut ctx = CondenseContext { scratch: &net, deployed: &deployed, rng: &mut rng };
//! dm.condense(&mut buffer, &segment, &mut ctx);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod augment;
mod buffer;
mod matcher;
mod methods;

pub use augment::Augmentation;
pub use buffer::SyntheticBuffer;
pub use matcher::{
    gradient_distance, match_classes_parallel, match_jobs_parallel, model_gradient,
    numeric_image_grad, one_step_match, BatchMatchJob, ClassMatchJob, MatchBatch, MatchResult,
};
pub use methods::{
    class_match_job, train_on_buffer, CondenseContext, Condenser, DcCondenser, DcConfig,
    DmCondenser, DmConfig, DsaCondenser, SegmentData,
};
