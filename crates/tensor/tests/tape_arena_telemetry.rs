//! The tape arena's high-water gauge must reach the telemetry registry,
//! so any `--telemetry` JSON export (bench report `"telemetry"` keys,
//! `write_snapshot` files) carries `tensor.tape.arena_node_high_water`
//! without extra plumbing.
//!
//! A process-isolated integration test because it toggles the global
//! telemetry switch.

use deco_telemetry::json::ToJson;
use deco_telemetry::TelemetrySnapshot;
use deco_tensor::{with_tape_arena, Rng, Tensor, Var};

#[test]
fn arena_high_water_reaches_the_telemetry_export() {
    let mut rng = Rng::new(11);
    let mut scope_snapshot = || {
        deco_telemetry::set_enabled(true);
        deco_telemetry::reset();
        with_tape_arena(|| {
            let x = Var::leaf(Tensor::randn([4, 8], &mut rng), true);
            let bias = Var::leaf(Tensor::randn([1, 8], &mut rng), true);
            x.add(&bias).square().sum().backward();
        });
        let text = TelemetrySnapshot::capture().to_json().to_string_pretty();
        deco_telemetry::set_enabled(false);
        text
    };
    let first = scope_snapshot();
    assert!(
        first.contains("tensor.tape.arena_node_high_water"),
        "telemetry export is missing the arena high-water gauge:\n{first}"
    );
    // Bench binaries reset telemetry between cells; an arena scope
    // ending after the reset must re-register the gauge even though the
    // thread's high water was reached before it (table2 hit exactly
    // this).
    let after_reset = scope_snapshot();
    assert!(
        after_reset.contains("tensor.tape.arena_node_high_water"),
        "high-water gauge lost after a telemetry reset:\n{after_reset}"
    );
}
