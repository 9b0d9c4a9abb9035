//! # deco-bench
//!
//! The benchmark harness of the DECO reproduction: one binary per paper
//! table/figure (see `DESIGN.md` §3), plus four `cargo bench` targets
//! (`kernel_scaling`, `condense_step`, `runtime_scaling`,
//! `serve_throughput`) that write the `BENCH_*.json` files through
//! [`report`], the shared schema and `--check` gate.
//!
//! Every binary accepts:
//!
//! * `--scale smoke|paper` — experiment size (default `smoke`: CPU-minutes;
//!   `paper`: the fuller grid, CPU-hours);
//! * `--out <dir>` — where JSON reports are written (default `reports/`);
//! * `--seeds <n>` — override the per-cell seed count;
//! * `--telemetry` — enable metrics/span/memory collection
//!   (`deco-telemetry`) and attach a snapshot to the JSON report.
//!
//! ```bash
//! cargo run -p deco-bench --release --bin table1 -- --scale smoke
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod report;

use std::path::PathBuf;

use deco_eval::ExperimentScale;

/// Command-line options shared by all bench binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Experiment size.
    pub scale: ExperimentScale,
    /// Report output directory.
    pub out_dir: PathBuf,
    /// Optional seed-count override.
    pub seeds: Option<usize>,
    /// Whether telemetry collection was requested (`--telemetry`).
    pub telemetry: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: ExperimentScale::Smoke,
            out_dir: PathBuf::from("reports"),
            seeds: None,
            telemetry: false,
        }
    }
}

impl BenchArgs {
    /// Parses `--scale`, `--out`, `--seeds` and `--telemetry` from an
    /// argument iterator (unknown flags are rejected).
    ///
    /// # Panics
    /// Panics with a usage message on invalid arguments — appropriate for
    /// the top of a bench binary.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> BenchArgs {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale needs a value (smoke|paper)");
                    out.scale = ExperimentScale::parse(&v)
                        .unwrap_or_else(|| panic!("unknown scale {v:?}; use smoke or paper"));
                }
                "--out" => {
                    out.out_dir = PathBuf::from(it.next().expect("--out needs a directory"));
                }
                "--seeds" => {
                    let v = it.next().expect("--seeds needs a number");
                    out.seeds = Some(v.parse().expect("--seeds must be an integer"));
                }
                "--telemetry" => out.telemetry = true,
                other => {
                    panic!("unknown flag {other:?}; known: --scale, --out, --seeds, --telemetry")
                }
            }
        }
        out
    }

    /// Parses the process arguments (skipping the binary name) and, when
    /// `--telemetry` is present, turns global collection on.
    pub fn parse() -> BenchArgs {
        let args = Self::parse_from(std::env::args().skip(1));
        if args.telemetry {
            deco_telemetry::set_enabled(true);
        }
        args
    }

    /// The IpC grid for Table-style experiments at this scale.
    pub fn ipc_grid(&self) -> Vec<usize> {
        match self.scale {
            ExperimentScale::Smoke => vec![1, 5],
            ExperimentScale::Paper => vec![1, 5, 10, 50],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = args(&[]);
        assert_eq!(a.scale, ExperimentScale::Smoke);
        assert_eq!(a.out_dir, PathBuf::from("reports"));
        assert_eq!(a.seeds, None);
        assert!(!a.telemetry);
    }

    #[test]
    fn parses_all_flags() {
        let a = args(&[
            "--scale",
            "paper",
            "--out",
            "/tmp/x",
            "--seeds",
            "3",
            "--telemetry",
        ]);
        assert_eq!(a.scale, ExperimentScale::Paper);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(a.seeds, Some(3));
        assert!(a.telemetry);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flags() {
        let _ = args(&["--frobnicate"]);
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn rejects_unknown_scale() {
        let _ = args(&["--scale", "galactic"]);
    }

    #[test]
    fn ipc_grid_depends_on_scale() {
        assert_eq!(args(&[]).ipc_grid(), vec![1, 5]);
        assert_eq!(args(&["--scale", "paper"]).ipc_grid(), vec![1, 5, 10, 50]);
    }
}
