//! Golden-trace acceptance: the checked-in fixtures match a fresh run,
//! and regeneration is deterministic (blessing twice produces byte-equal
//! traces).

use deco_conformance::golden::{check, default_fixture_dir, generate_traces};

#[test]
fn checked_in_fixtures_match_current_kernels() {
    if let Err(diffs) = check(&default_fixture_dir()) {
        let rendered: Vec<String> = diffs.iter().map(|d| d.to_string()).collect();
        panic!(
            "golden traces drifted — if the numeric change is intentional, \
             run `cargo run -p deco-conformance --bin conformance -- golden \
             --bless`:\n{}",
            rendered.join("\n")
        );
    }
}

#[test]
fn regeneration_is_deterministic() {
    let a = generate_traces();
    let b = generate_traces();
    assert_eq!(a.len(), 6, "expected one trace per method");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "trace {} not reproducible within one build", x.method);
    }
    let methods: Vec<&str> = a.iter().map(|t| t.method.as_str()).collect();
    assert_eq!(methods, ["dc", "dsa", "dm", "deco", "random", "kcenter"]);
}
