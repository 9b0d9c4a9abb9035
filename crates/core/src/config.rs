//! DECO hyper-parameters (paper §IV-A3 defaults).

/// All DECO hyper-parameters, with the paper's published defaults.
///
/// The condenser reads `iterations`, `tau`, `alpha`, `image_lr` and
/// `epsilon_scale`. The voting threshold `m`, `β`, the model learning
/// rate and the training steps are the learner's
/// ([`LearnerConfig`](crate::LearnerConfig)); `beta`, `model_lr` and
/// `model_epochs` here are not read.
///
/// ```
/// use deco::DecoConfig;
/// let cfg = DecoConfig::default().with_alpha(0.5).with_iterations(5);
/// assert_eq!(cfg.iterations, 5);
/// assert!((cfg.alpha - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoConfig {
    /// Condensation iterations per segment (`L`, paper: 10).
    pub iterations: usize,
    /// Contrastive temperature (`τ`, paper: 0.07).
    pub tau: f32,
    /// Feature-discrimination weight (`α`, paper: 0.1).
    pub alpha: f32,
    /// Model-update interval in segments (`β`, paper: 10).
    pub beta: usize,
    /// Learning rate of the synthetic-image optimizer `opt_S`.
    pub image_lr: f32,
    /// Learning rate of the model optimizer `opt_θ` (paper: 1e-3, 1e-4 for
    /// ImageNet-10).
    pub model_lr: f32,
    /// Full-batch training steps on the buffer per model update (paper:
    /// 200 epochs; scale down for CPU smoke runs).
    pub model_epochs: usize,
    /// Finite-difference scale (`ε` numerator, paper: 0.01).
    pub epsilon_scale: f32,
}

impl Default for DecoConfig {
    fn default() -> Self {
        DecoConfig {
            iterations: 10,
            tau: 0.07,
            alpha: 0.1,
            beta: 10,
            image_lr: 0.1,
            model_lr: 1e-3,
            model_epochs: 200,
            epsilon_scale: 0.01,
        }
    }
}

impl DecoConfig {
    /// Sets `L`.
    pub fn with_iterations(mut self, l: usize) -> Self {
        self.iterations = l;
        self
    }

    /// Sets the contrastive temperature `τ`.
    ///
    /// # Panics
    /// Panics unless `τ > 0`.
    pub fn with_tau(mut self, tau: f32) -> Self {
        assert!(tau > 0.0, "tau must be positive");
        self.tau = tau;
        self
    }

    /// Sets the feature-discrimination weight `α` (0 disables the loss).
    ///
    /// # Panics
    /// Panics if `α < 0`.
    pub fn with_alpha(mut self, alpha: f32) -> Self {
        assert!(alpha >= 0.0, "alpha must be non-negative");
        self.alpha = alpha;
        self
    }

    /// Sets the model-update interval `β`.
    ///
    /// # Panics
    /// Panics if `β` is zero.
    pub fn with_beta(mut self, beta: usize) -> Self {
        assert!(beta > 0, "beta must be positive");
        self.beta = beta;
        self
    }

    /// Sets the model learning rate.
    pub fn with_model_lr(mut self, lr: f32) -> Self {
        self.model_lr = lr;
        self
    }

    /// Sets the number of model-training steps per update.
    pub fn with_model_epochs(mut self, epochs: usize) -> Self {
        self.model_epochs = epochs;
        self
    }

    /// Validates all fields.
    ///
    /// # Panics
    /// Panics on any out-of-range field.
    pub fn validate(&self) {
        assert!(self.iterations > 0, "L must be positive");
        assert!(self.tau > 0.0, "tau must be positive");
        assert!(self.alpha >= 0.0, "alpha must be non-negative");
        assert!(self.beta > 0, "beta must be positive");
        assert!(self.image_lr > 0.0, "image lr must be positive");
        assert!(self.model_lr > 0.0, "model lr must be positive");
        assert!(self.epsilon_scale > 0.0, "epsilon scale must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DecoConfig::default();
        assert_eq!(c.iterations, 10);
        assert!((c.tau - 0.07).abs() < 1e-6);
        assert!((c.alpha - 0.1).abs() < 1e-6);
        assert_eq!(c.beta, 10);
        assert_eq!(c.model_epochs, 200);
        assert!((c.epsilon_scale - 0.01).abs() < 1e-6);
        c.validate();
    }

    #[test]
    fn builder_chains() {
        let c = DecoConfig::default()
            .with_iterations(3)
            .with_tau(0.5)
            .with_alpha(0.0)
            .with_beta(5)
            .with_model_lr(0.01)
            .with_model_epochs(7);
        c.validate();
        assert_eq!(c.beta, 5);
        assert_eq!(c.model_epochs, 7);
        assert_eq!(c.alpha, 0.0);
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn rejects_zero_tau() {
        let _ = DecoConfig::default().with_tau(0.0);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn rejects_zero_beta() {
        let _ = DecoConfig::default().with_beta(0);
    }
}
