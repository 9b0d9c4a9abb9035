//! Sensitivity proof for the golden traces: a one-ULP perturbation of a
//! single matmul output element must turn the golden check red.
//!
//! This lives in its own integration-test binary because the perturbation
//! hook is process-global: cargo runs separate test binaries in separate
//! processes, so enabling it here cannot contaminate the other golden
//! tests.

use deco_conformance::golden::{check, default_fixture_dir};
use deco_tensor::testhook::set_matmul_ulp_perturbation;

#[test]
fn one_ulp_matmul_perturbation_turns_golden_check_red() {
    // Sanity: unperturbed kernels match the fixtures.
    check(&default_fixture_dir()).expect("fixtures should match before perturbation");

    set_matmul_ulp_perturbation(true);
    let result = check(&default_fixture_dir());
    set_matmul_ulp_perturbation(false);

    let diffs = result.expect_err(
        "a one-ULP matmul perturbation must be detected by at least one \
         golden trace — the traces have lost their sensitivity",
    );
    assert!(!diffs.is_empty());
    // Every condensation pipeline routes through matmul (classifier head),
    // so the drift should be broad, not incidental.
    assert!(
        diffs.len() >= 4,
        "expected most traces to drift, got only: {:?}",
        diffs.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
}
