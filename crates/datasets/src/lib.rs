//! # deco-datasets
//!
//! Synthetic streaming vision datasets for the DECO reproduction.
//!
//! The paper evaluates on iCub World 1.0, CORe50, CIFAR-100 and ImageNet-10.
//! Those datasets (and their licenses/downloads) are not available here, so
//! this crate provides *procedural analogues*: seeded generators whose
//! samples exhibit the four properties the algorithms actually interact
//! with —
//!
//! 1. class-conditional structure a small ConvNet can learn imperfectly,
//! 2. designed inter-class similarity (confusable pairs → realistic
//!    pseudo-label noise, reproducing the paper's Fig. 2 analysis),
//! 3. temporal correlation: streams are runs of one object smoothly
//!    changing pose, with run length set by the STC parameter,
//! 4. environment/session shifts (CORe50's 11 sessions).
//!
//! See `DESIGN.md` §1 for the substitution rationale.
//!
//! ```
//! use deco_datasets::{core50, Stream, StreamConfig, SyntheticVision};
//!
//! let data = SyntheticVision::new(core50());
//! let test = data.test_set(5); // 5 images per class
//! assert_eq!(test.len(), 50);
//!
//! let cfg = StreamConfig { stc: 100, segment_size: 64, num_segments: 2, seed: 0 };
//! for segment in Stream::new(&data, cfg) {
//!     assert_eq!(segment.len(), 64); // unlabeled images arrive in segments
//! }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
mod dataset;
mod render;
mod spec;
mod stream;

pub use dataset::{LabeledSet, SyntheticVision};
pub use spec::{
    cifar100, cifar10_confusable, confusable_partner, core50, icub1, imagenet10, imagenet_scale,
    DatasetSpec, CIFAR10_NAMES,
};
pub use stream::{
    empirical_stc, BaselineScenario, RunState, Scenario, Segment, Stream, StreamConfig,
    StreamCursor,
};
