//! Test-only fault-injection hooks.
//!
//! The golden-trace suite in `deco-conformance` needs to prove that a
//! one-ULP change inside an optimized kernel is *detected* by the
//! fixtures. `#[cfg(test)]` cannot express that (the hook must be
//! visible across crates), so the hook is always compiled: a single
//! relaxed atomic load per `matmul` call, disabled by default.
//!
//! Never enable this outside a test. Tests that flip it must run in
//! their own process (a dedicated integration-test binary) so the
//! perturbation cannot leak into concurrently running tests.

use std::sync::atomic::{AtomicBool, Ordering};

static PERTURB_MATMUL: AtomicBool = AtomicBool::new(false);

/// Enables or disables the one-ULP matmul output perturbation.
#[doc(hidden)]
pub fn set_matmul_ulp_perturbation(enabled: bool) {
    PERTURB_MATMUL.store(enabled, Ordering::Relaxed);
}

/// Whether the one-ULP matmul perturbation is currently enabled.
#[doc(hidden)]
pub fn matmul_ulp_perturbation() -> bool {
    PERTURB_MATMUL.load(Ordering::Relaxed)
}

/// Nudges `x` by exactly one ULP (toward +∞ for finite values; zero maps
/// to the smallest positive subnormal).
#[doc(hidden)]
pub fn one_ulp_up(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    if x == 0.0 {
        return f32::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f32::from_bits(bits + 1)
    } else {
        f32::from_bits(bits - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hook_is_off_by_default() {
        assert!(!matmul_ulp_perturbation());
    }

    #[test]
    fn one_ulp_up_changes_exactly_one_bit_pattern() {
        assert_eq!(one_ulp_up(1.0).to_bits(), 1.0f32.to_bits() + 1);
        assert_eq!(one_ulp_up(-1.0).to_bits(), (-1.0f32).to_bits() - 1);
        assert_eq!(one_ulp_up(0.0), f32::from_bits(1));
        assert!(one_ulp_up(2.5) > 2.5);
        assert!(one_ulp_up(-2.5) > -2.5);
    }
}
