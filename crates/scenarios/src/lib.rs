//! # deco-scenarios
//!
//! The scenario-diversity axis of the reproduction: adversarial stream
//! generators (class-incremental arrival, bursty traffic, ramping label
//! noise, mid-stream domain shift) plus the DC-BENCH-style benchmark
//! matrix that sweeps method × dataset × IPC × scenario × threads and
//! emits a machine-readable `LEADERBOARD.json` with a bitwise `--check`
//! regression gate.
//!
//! ```no_run
//! use deco_scenarios::{run_matrix, MatrixGrid};
//!
//! let result = run_matrix(&MatrixGrid::ci());
//! println!("{}", result.to_markdown());
//! ```
//!
//! See `docs/scenarios.md` for scenario semantics, the determinism
//! contract, and the leaderboard schema.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod generator;
mod matrix;

pub use generator::{
    Bursty, ClassIncremental, DomainShift, LabelNoiseRamp, ScenarioConfig, ScenarioStream,
};
pub use matrix::{
    check_against, run_matrix, scenario_segments, CellOutcome, CellSpec, MatrixGrid, MatrixResult,
};
