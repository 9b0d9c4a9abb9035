//! Learnable parameters.

use std::cell::RefCell;

use deco_tensor::{Tensor, Var};

/// A learnable tensor.
///
/// Layers own `Param`s; every forward pass binds each parameter into the
/// autograd graph as a fresh leaf (see [`Param::var`]). After `backward`,
/// the gradient of the **most recent** binding is available through
/// [`Param::grad`], which is what the optimizers consume.
///
/// The one-forward-one-backward discipline is deliberate: condensation
/// re-randomizes and re-binds models constantly, and keeping only the last
/// binding keeps memory bounded.
#[derive(Debug)]
pub struct Param {
    value: RefCell<Tensor>,
    bound: RefCell<Option<Var>>,
}

impl Param {
    /// Wraps an initial value.
    pub fn new(value: Tensor) -> Self {
        Param {
            value: RefCell::new(value),
            bound: RefCell::new(None),
        }
    }

    /// Binds this parameter into the current graph as a differentiable leaf
    /// and returns the leaf. Replaces any previous binding.
    pub fn var(&self) -> Var {
        let v = Var::leaf(self.value.borrow().clone(), true);
        *self.bound.borrow_mut() = Some(v.clone());
        v
    }

    /// Binds as a constant: the forward value participates, but no gradient
    /// is computed for this parameter (used for the θ± perturbation passes,
    /// where only the *input* gradient is needed).
    pub fn frozen_var(&self) -> Var {
        Var::constant(self.value.borrow().clone())
    }

    /// Gradient accumulated into the most recent [`Param::var`] binding.
    pub fn grad(&self) -> Option<Tensor> {
        self.bound.borrow().as_ref().and_then(Var::grad)
    }

    /// Copy of the current value.
    pub fn tensor(&self) -> Tensor {
        self.value.borrow().clone()
    }

    /// Replaces the value.
    ///
    /// # Panics
    /// Panics if the new value's shape differs from the current one.
    pub fn set(&self, value: Tensor) {
        assert_eq!(
            value.shape(),
            self.value.borrow().shape(),
            "parameter shape change: {} -> {}",
            self.value.borrow().shape(),
            value.shape()
        );
        *self.value.borrow_mut() = value;
    }

    /// In-place update `value += alpha * delta`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&self, delta: &Tensor, alpha: f32) {
        self.value.borrow_mut().add_scaled(delta, alpha);
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.value.borrow().numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_tensor::Rng;

    #[test]
    fn var_binding_exposes_gradient() {
        let p = Param::new(Tensor::from_vec(vec![2.0, 3.0], [2]));
        let v = p.var();
        v.mul(&v).sum().backward();
        assert_eq!(p.grad().unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn frozen_var_gets_no_gradient() {
        let p = Param::new(Tensor::ones([2]));
        let v = p.frozen_var();
        v.mul_scalar(2.0).sum().backward();
        assert!(p.grad().is_none());
    }

    #[test]
    fn rebinding_replaces_gradient() {
        let p = Param::new(Tensor::ones([1]));
        let v1 = p.var();
        v1.mul_scalar(3.0).sum().backward();
        assert_eq!(p.grad().unwrap().item(), 3.0);
        let v2 = p.var();
        v2.mul_scalar(5.0).sum().backward();
        assert_eq!(p.grad().unwrap().item(), 5.0);
    }

    #[test]
    fn add_scaled_updates_value() {
        let p = Param::new(Tensor::zeros([2]));
        p.add_scaled(&Tensor::ones([2]), -0.5);
        assert_eq!(p.tensor().data(), &[-0.5, -0.5]);
    }

    #[test]
    #[should_panic(expected = "parameter shape change")]
    fn set_rejects_shape_change() {
        let p = Param::new(Tensor::zeros([2]));
        p.set(Tensor::zeros([3]));
    }

    #[test]
    fn set_then_var_uses_new_value() {
        let mut rng = Rng::new(0);
        let p = Param::new(Tensor::zeros([2]));
        let t = Tensor::randn([2], &mut rng);
        p.set(t.clone());
        assert_eq!(p.var().value(), &t);
    }
}
