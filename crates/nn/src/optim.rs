//! The optimizer: SGD with momentum, used both for the on-device model
//! (`opt_θ`) and, as in DC, for the synthetic images (`opt_S`, momentum
//! 0.5).
//!
//! It exposes two levels:
//! * [`Sgd::step`] updates a model's [`Param`]s from their recorded
//!   autograd gradients;
//! * [`Sgd::step_slot`] updates a raw tensor from an explicitly supplied
//!   gradient — which is how the condensers apply the finite-difference
//!   image gradients that never pass through autograd.

use deco_tensor::Tensor;

use crate::param::Param;

/// Stochastic gradient descent with momentum and decoupled weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    ///
    /// # Panics
    /// Panics unless `lr > 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }

    /// The configured learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// The configured momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// The configured weight decay.
    pub fn weight_decay(&self) -> f32 {
        self.weight_decay
    }

    /// A copy of the per-slot momentum buffers, for session persistence.
    /// `None` entries are slots never stepped (or stepped without momentum).
    pub fn velocity_snapshot(&self) -> Vec<Option<Tensor>> {
        self.velocity.clone()
    }

    /// Replaces the momentum state with a [`Sgd::velocity_snapshot`], so a
    /// restored optimizer continues bit-for-bit where the captured one
    /// stopped.
    pub fn set_velocity(&mut self, velocity: Vec<Option<Tensor>>) {
        self.velocity = velocity;
    }

    /// Updates `value` in place from `grad`, using per-`slot` momentum
    /// state. Slots identify parameters across steps; pass a stable index.
    ///
    /// # Panics
    /// Panics if `value` and `grad` shapes differ.
    pub fn step_slot(&mut self, slot: usize, value: &mut Tensor, grad: &Tensor) {
        assert_eq!(value.shape(), grad.shape(), "grad shape mismatch");
        if self.velocity.len() <= slot {
            self.velocity.resize(slot + 1, None);
        }
        let mut g = grad.clone();
        if self.weight_decay > 0.0 {
            g.add_scaled(value, self.weight_decay);
        }
        let update = if self.momentum > 0.0 {
            let v = self.velocity[slot]
                .get_or_insert_with(|| Tensor::zeros(value.shape().dims().to_vec()));
            v.scale_mut(self.momentum);
            v.add_scaled(&g, 1.0);
            v.clone()
        } else {
            g
        };
        value.add_scaled(&update, -self.lr);
    }

    /// Updates every parameter from its recorded gradient; parameters with
    /// no gradient are left untouched.
    pub fn step(&mut self, params: &[&Param]) {
        for (i, p) in params.iter().enumerate() {
            if let Some(g) = p.grad() {
                let mut v = p.tensor();
                self.step_slot(i, &mut v, &g);
                p.set(v);
            }
        }
    }

    /// Forgets all momentum state.
    pub fn reset(&mut self) {
        self.velocity.clear();
    }

    /// Heap bytes held by the momentum velocity buffers (the optimizer
    /// state a device must keep resident between updates).
    pub fn state_bytes(&self) -> u64 {
        self.velocity.iter().flatten().map(Tensor::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_tensor::{Reduction, Rng, Var};

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.1);
        let mut x = Tensor::from_vec(vec![1.0], [1]);
        let g = Tensor::from_vec(vec![2.0], [1]);
        opt.step_slot(0, &mut x, &g);
        assert!((x.item() - 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_accelerates_repeated_direction() {
        let mut plain = Sgd::new(0.1);
        let mut mom = Sgd::new(0.1).with_momentum(0.9);
        let g = Tensor::from_vec(vec![1.0], [1]);
        let mut x1 = Tensor::from_vec(vec![0.0], [1]);
        let mut x2 = x1.clone();
        for _ in 0..5 {
            plain.step_slot(0, &mut x1, &g);
            mom.step_slot(0, &mut x2, &g);
        }
        assert!(
            x2.item() < x1.item(),
            "momentum {} vs plain {}",
            x2.item(),
            x1.item()
        );
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient_signal() {
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        let mut x = Tensor::from_vec(vec![1.0], [1]);
        opt.step_slot(0, &mut x, &Tensor::zeros([1]));
        assert!(x.item() < 1.0);
    }

    #[test]
    fn velocity_snapshot_restores_momentum_trajectory() {
        let g = Tensor::from_vec(vec![1.0], [1]);
        let mut original = Sgd::new(0.1).with_momentum(0.9);
        let mut x = Tensor::from_vec(vec![0.0], [1]);
        for _ in 0..3 {
            original.step_slot(0, &mut x, &g);
        }
        let mut resumed = Sgd::new(original.lr()).with_momentum(original.momentum());
        resumed.set_velocity(original.velocity_snapshot());
        let mut x1 = x.clone();
        let mut x2 = x.clone();
        for _ in 0..3 {
            original.step_slot(0, &mut x1, &g);
            resumed.step_slot(0, &mut x2, &g);
        }
        assert_eq!(x1.item().to_bits(), x2.item().to_bits());
    }

    #[test]
    fn sgd_quadratic_converges() {
        // minimize (x - 3)²
        let mut opt = Sgd::new(0.1).with_momentum(0.5);
        let mut x = Tensor::from_vec(vec![0.0], [1]);
        for _ in 0..100 {
            let g = Tensor::from_vec(vec![2.0 * (x.item() - 3.0)], [1]);
            opt.step_slot(0, &mut x, &g);
        }
        assert!((x.item() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn step_updates_params_via_recorded_grads() {
        let p = Param::new(Tensor::from_vec(vec![2.0], [1]));
        let v = p.var();
        v.square().sum().backward(); // grad = 4
        let mut opt = Sgd::new(0.25);
        opt.step(&[&p]);
        assert!((p.tensor().item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn training_a_linear_model_reduces_loss() {
        // End-to-end: params + autograd + SGD fit random labels better than init.
        let mut rng = Rng::new(1);
        let w = Param::new(Tensor::randn([4, 3], &mut rng));
        let x = Tensor::randn([16, 4], &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
        let loss_of = |w: &Param| {
            let logits = Var::constant(x.clone()).matmul(&w.var());
            logits.log_softmax().nll(&labels, None, Reduction::Mean)
        };
        let initial = loss_of(&w).value().item();
        let mut opt = Sgd::new(0.5).with_momentum(0.9);
        for _ in 0..50 {
            let loss = loss_of(&w);
            loss.backward();
            opt.step(&[&w]);
        }
        let fin = loss_of(&w).value().item();
        assert!(fin < initial * 0.5, "initial {initial}, final {fin}");
    }
}
