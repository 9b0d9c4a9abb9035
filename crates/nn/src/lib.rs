//! # deco-nn
//!
//! The neural-network substrate of the DECO reproduction: layers, the
//! DC-standard [`ConvNet`] backbone, the paper's loss functions
//! (confidence-weighted cross-entropy, feature discrimination), gradient
//! lists with the cosine matching distance, and the SGD optimizer.
//!
//! ```
//! use deco_nn::{weighted_cross_entropy, ConvNet, ConvNetConfig, Sgd};
//! use deco_tensor::{Reduction, Rng, Tensor, Var};
//!
//! let mut rng = Rng::new(0);
//! let net = ConvNet::new(ConvNetConfig::small(10), &mut rng);
//! let images = Tensor::randn([8, 3, 16, 16], &mut rng);
//! let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
//!
//! let mut opt = Sgd::new(1e-2).with_momentum(0.9);
//! let logits = net.forward(&Var::constant(images), false);
//! let loss = weighted_cross_entropy(&logits, &labels, None, Reduction::Mean);
//! loss.backward();
//! opt.step(&net.params());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod convnet;
mod grad;
mod init;
mod layers;
mod loss;
mod mlp;
mod optim;
mod param;

pub use convnet::{ConvNet, ConvNetConfig, Prediction};
pub use grad::{cosine_distance, cosine_distance_grad, GradList};
pub use init::{kaiming_conv, kaiming_linear};
pub use layers::{Conv2d, GroupNorm, Linear};
pub use loss::{feature_discrimination_loss, weighted_cross_entropy, DiscriminationSpec};
pub use mlp::{Mlp, MlpConfig};
pub use optim::Sgd;
pub use param::Param;
