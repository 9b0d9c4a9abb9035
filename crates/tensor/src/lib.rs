//! # deco-tensor
//!
//! Dense `f32` tensors with reverse-mode automatic differentiation — the
//! numeric substrate of the DECO reproduction (*Enabling Memory-Efficient
//! On-Device Learning via Dataset Condensation*, DATE 2025).
//!
//! The crate provides:
//!
//! * [`Tensor`] — a row-major, `Arc`-backed dense array with broadcasting
//!   elementwise ops, axis reductions, matmul, 2-D convolution/pooling and
//!   the structural transforms (shift/flip/select) the condensation
//!   algorithms need;
//! * [`Var`] — a define-by-run autograd node. Gradients flow into any leaf
//!   marked `requires_grad`, which is how the framework differentiates both
//!   network parameters and the synthetic buffer images;
//! * [`Rng`] — a deterministic SplitMix64 generator so every experiment is
//!   reproducible from a seed;
//! * [`gradcheck`] — finite-difference verification helpers used throughout
//!   the test suites.
//!
//! ## Example: gradient of a tiny classifier loss w.r.t. its *input*
//!
//! ```
//! use deco_tensor::{Reduction, Rng, Tensor, Var};
//!
//! let mut rng = Rng::new(0);
//! let images = Var::leaf(Tensor::randn([2, 4], &mut rng), true); // inputs get grads
//! let weights = Var::constant(Tensor::randn([4, 3], &mut rng));
//! let loss = images.matmul(&weights).log_softmax().nll(&[0, 2], None, Reduction::Mean);
//! loss.backward();
//! assert_eq!(images.grad().unwrap().shape().dims(), &[2, 4]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod autograd;
pub mod dtype;
pub mod gradcheck;
pub mod ops;
#[doc(hidden)]
pub mod plancache;
pub mod pool;
mod rng;
mod shape;
mod tensor;
#[doc(hidden)]
pub mod testhook;

pub use autograd::{reset_tape_peak, tape_current_bytes, tape_peak_bytes, Reduction, Var};
pub use dtype::{ScalarType, StorageDtype, StoredTensor};
pub use ops::conv::Conv2dSpec;
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;
