//! Acceptance gate for the gradient audit: every entry passes, and the
//! coverage list is asserted **two ways** against the parsed public
//! surface of `crates/tensor/src/ops/` and the `nn` layer modules — a
//! new public op without an audit entry fails here, as does a stale
//! entry for a removed op.

use std::collections::BTreeSet;

use deco_conformance::audit::{
    entries, parsed_dtype_surface, parsed_layer_surface, parsed_op_surface, run_audit,
};

#[test]
fn every_audit_entry_passes() {
    let report = run_audit();
    assert!(
        report.passed(),
        "gradient audit failed:\n{}",
        report.render()
    );
}

#[test]
fn every_public_op_and_layer_is_audited() {
    let audited: BTreeSet<String> = entries().iter().map(|e| e.name.to_string()).collect();
    let mut missing = Vec::new();
    for name in parsed_op_surface()
        .into_iter()
        .chain(parsed_layer_surface())
        .chain(parsed_dtype_surface())
    {
        if !audited.contains(&name) {
            missing.push(name);
        }
    }
    assert!(
        missing.is_empty(),
        "public ops/layers with no audit entry: {missing:?} — add an \
         AuditEntry (gradcheck, algebraic, or exempt-with-reason) in \
         crates/conformance/src/audit.rs"
    );
}

#[test]
fn no_stale_audit_entries() {
    // Entries in the op/layer/dtype namespaces must correspond to real
    // public functions; matcher::/autograd::-style entries audit
    // surfaces without a parsed namespace and are allowed extra.
    let surface: BTreeSet<String> = parsed_op_surface()
        .into_iter()
        .chain(parsed_layer_surface())
        .chain(parsed_dtype_surface())
        .collect();
    let op_namespaces = [
        "conv",
        "fused",
        "linalg",
        "reduce",
        "transform",
        "layers",
        "dtype",
    ];
    let mut stale = Vec::new();
    for entry in entries() {
        let ns = entry.name.split("::").next().unwrap_or("");
        if op_namespaces.contains(&ns) && !surface.contains(entry.name) {
            stale.push(entry.name);
        }
    }
    assert!(
        stale.is_empty(),
        "audit entries for ops that no longer exist: {stale:?}"
    );
}

#[test]
fn audit_names_are_unique() {
    let mut seen = BTreeSet::new();
    for entry in entries() {
        assert!(
            seen.insert(entry.name),
            "duplicate audit entry {}",
            entry.name
        );
    }
}
