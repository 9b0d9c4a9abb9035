//! The DC-BENCH-style benchmark matrix: a grid driver over
//! method × dataset × IPC × scenario × threads that measures every cell
//! with the eval runner and emits a machine-readable leaderboard.
//!
//! Two kinds of fields per cell, kept strictly apart:
//!
//! * **deterministic** — accuracies, forgetting, retention, empirical STC,
//!   storage peaks, failure records, each `f32` also as its exact bit
//!   pattern. Identical across runs and `DECO_THREADS` settings; the
//!   `--check` regression gate compares exactly this subtree.
//! * **timing** — wall-clock measurements. Reported, never compared.

use std::time::Instant;

use deco_datasets::{empirical_stc, Segment, Stream, StreamConfig, SyntheticVision};
use deco_eval::{
    run_trial_on_segments, DatasetId, ExperimentScale, MethodKind, ScaleParams, Table,
    TrialFailure, TrialSpec,
};
use deco_telemetry::{Json, ToJson};
use deco_tensor::StorageDtype;

use crate::generator::ScenarioConfig;

/// Leaderboard schema identifier (bump on breaking JSON changes).
/// v2: cells gained a `storage_dtype` axis (key suffix + coordinate
/// field) and a deterministic `buffer_memory_bytes` column.
pub const LEADERBOARD_SCHEMA: &str = "deco-leaderboard/v2";

/// One coordinate of the benchmark matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Dataset preset.
    pub dataset: DatasetId,
    /// Buffer-maintenance method.
    pub method: MethodKind,
    /// Images per class in the condensed/stored buffer.
    pub ipc: usize,
    /// Stream scenario.
    pub scenario: ScenarioConfig,
    /// `DECO_THREADS` setting the cell runs under.
    pub threads: usize,
    /// At-rest precision of the maintained buffer.
    pub storage_dtype: StorageDtype,
}

impl CellSpec {
    /// The cell's stable leaderboard key,
    /// e.g. `CORe50/DECO/ipc1/class_incremental/t2/bf16`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/ipc{}/{}/t{}/{}",
            self.dataset.label(),
            self.method.label(),
            self.ipc,
            self.scenario.name(),
            self.threads,
            self.storage_dtype.label()
        )
    }
}

/// A benchmark grid: the axes to sweep plus the per-cell seed count.
#[derive(Debug, Clone)]
pub struct MatrixGrid {
    /// Grid name (`ci` / `small` / `full`), recorded in the leaderboard.
    pub name: &'static str,
    /// Methods to compare.
    pub methods: Vec<MethodKind>,
    /// Dataset presets.
    pub datasets: Vec<DatasetId>,
    /// IPC settings.
    pub ipcs: Vec<usize>,
    /// Stream scenarios.
    pub scenarios: Vec<ScenarioConfig>,
    /// Thread counts — the matrix *asserts* that cells differing only in
    /// this axis have identical deterministic fields.
    pub threads: Vec<usize>,
    /// Buffer storage precisions — the accuracy-vs-memory axis of the
    /// per-precision tables.
    pub storage_dtypes: Vec<StorageDtype>,
    /// Seeds per cell.
    pub seeds: usize,
}

impl MatrixGrid {
    /// The CI gate grid: 2 methods × 2 scenarios × IPC 1 on CORe50,
    /// single-threaded — a strict subset of [`MatrixGrid::small`], so its
    /// cells can be `--check`ed against the committed small-grid
    /// leaderboard.
    pub fn ci() -> MatrixGrid {
        MatrixGrid {
            name: "ci",
            methods: vec![MethodKind::Deco, MethodKind::Dm],
            datasets: vec![DatasetId::Core50],
            ipcs: vec![1],
            scenarios: vec![
                ScenarioConfig::parse("class_incremental").expect("known"),
                ScenarioConfig::parse("label_noise_ramp").expect("known"),
            ],
            threads: vec![1],
            storage_dtypes: vec![StorageDtype::F32, StorageDtype::Bf16, StorageDtype::I8],
            seeds: 1,
        }
    }

    /// The default grid behind `LEADERBOARD.json`: 2 methods × 2 IPC
    /// settings × all 4 adversarial scenarios × 2 thread counts × 3
    /// storage precisions on CORe50 (96 cells, CPU-minutes).
    pub fn small() -> MatrixGrid {
        MatrixGrid {
            name: "small",
            methods: vec![MethodKind::Deco, MethodKind::Dm],
            datasets: vec![DatasetId::Core50],
            ipcs: vec![1, 2],
            scenarios: ScenarioConfig::adversarial().to_vec(),
            threads: vec![1, 2],
            storage_dtypes: vec![StorageDtype::F32, StorageDtype::Bf16, StorageDtype::I8],
            seeds: 1,
        }
    }

    /// The full matrix: all 4 condensation methods × {CORe50,
    /// ImageNet-Scale} × IPC {1, 5} × all 5 scenarios (baseline included).
    /// CPU-hours; run on demand and record the outcome in EXPERIMENTS.md.
    pub fn full() -> MatrixGrid {
        MatrixGrid {
            name: "full",
            methods: MethodKind::TABLE2.to_vec(),
            datasets: vec![DatasetId::Core50, DatasetId::ImageNetScale],
            ipcs: vec![1, 5],
            scenarios: ScenarioConfig::all().to_vec(),
            threads: vec![1],
            storage_dtypes: StorageDtype::ALL.to_vec(),
            seeds: 2,
        }
    }

    /// Parses a grid name.
    pub fn parse(name: &str) -> Option<MatrixGrid> {
        match name.to_ascii_lowercase().as_str() {
            "ci" => Some(MatrixGrid::ci()),
            "small" => Some(MatrixGrid::small()),
            "full" => Some(MatrixGrid::full()),
            _ => None,
        }
    }

    /// All cells of the grid, in deterministic sweep order
    /// (dataset ▸ method ▸ ipc ▸ scenario ▸ threads ▸ storage dtype).
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for &dataset in &self.datasets {
            for &method in &self.methods {
                for &ipc in &self.ipcs {
                    for &scenario in &self.scenarios {
                        for &threads in &self.threads {
                            for &storage_dtype in &self.storage_dtypes {
                                out.push(CellSpec {
                                    dataset,
                                    method,
                                    ipc,
                                    scenario,
                                    threads,
                                    storage_dtype,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Per-cell trial parameters: the smoke scale shrunk to matrix size, so a
/// 32-cell grid stays in CPU-minutes. One place on purpose — every cell of
/// every grid must use identical parameters for cross-cell comparisons to
/// mean anything.
pub(crate) fn matrix_params(dataset: DatasetId) -> ScaleParams {
    let mut p = ExperimentScale::Smoke.params(dataset);
    p.net_width = 4;
    p.net_depth = 2;
    p.num_segments = 6;
    p.segment_size = 16;
    p.stc = 10;
    p.model_epochs = 4;
    p.beta = 2;
    p.pretrain_per_class = 2;
    p.pretrain_steps = 20;
    p.test_per_class = 2;
    p.deco_iterations = 2;
    p
}

/// Materializes the segment sequence a scenario produces for one seed —
/// the exact input the matrix feeds `run_trial_on_segments`, exposed so
/// tests and the serve driver can reproduce a cell's stream.
pub fn scenario_segments(
    data: &SyntheticVision,
    params: &ScaleParams,
    scenario: ScenarioConfig,
    seed: u64,
) -> Vec<Segment> {
    let cfg = StreamConfig {
        stc: params.stc,
        segment_size: params.segment_size,
        num_segments: params.num_segments,
        seed,
    };
    Stream::with_scenario(data, cfg, scenario).collect()
}

/// The measured outcome of one cell: per-seed deterministic metrics plus
/// aggregate timing.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's coordinate.
    pub spec: CellSpec,
    /// Per-seed final accuracy, in seed order (failed seeds excluded).
    pub final_accuracy: Vec<f32>,
    /// Per-seed mean forgetting.
    pub mean_forgetting: Vec<f32>,
    /// Per-seed voting retention.
    pub retention: Vec<f32>,
    /// Per-seed pseudo-label accuracy.
    pub pseudo_accuracy: Vec<f32>,
    /// Per-seed empirical STC of the scenario's label sequence — the
    /// quantified difficulty of the stream the cell actually saw.
    pub empirical_stc: Vec<f32>,
    /// Per-seed storage high-water mark in bytes.
    pub peak_memory_bytes: Vec<u64>,
    /// Per-seed final at-rest buffer bytes at the cell's storage dtype —
    /// deterministic byte accounting, so it sits in the `--check`ed
    /// subtree (unlike wall-clock fields).
    pub buffer_memory_bytes: Vec<u64>,
    /// Seeds that panicked.
    pub failures: Vec<TrialFailure>,
    /// Total wall time of the cell in milliseconds (all seeds).
    pub wall_time_ms: f64,
    /// Wall time spent inside `process_segment` in milliseconds.
    pub processing_ms: f64,
}

impl CellOutcome {
    /// Mean final accuracy over completed seeds (0 when all failed).
    pub fn accuracy_mean(&self) -> f32 {
        mean(&self.final_accuracy)
    }

    /// The cell's deterministic subtree — what `--check` compares and what
    /// must be invariant across thread counts. Every `f32` appears both as
    /// a decimal (for humans) and as its exact bit pattern (for the gate).
    pub fn deterministic_json(&self) -> Json {
        Json::obj([
            ("final_accuracy", self.final_accuracy.to_json()),
            ("final_accuracy_bits", bits(&self.final_accuracy)),
            ("mean_forgetting", self.mean_forgetting.to_json()),
            ("mean_forgetting_bits", bits(&self.mean_forgetting)),
            ("retention", self.retention.to_json()),
            ("retention_bits", bits(&self.retention)),
            ("pseudo_accuracy", self.pseudo_accuracy.to_json()),
            ("pseudo_accuracy_bits", bits(&self.pseudo_accuracy)),
            ("empirical_stc", self.empirical_stc.to_json()),
            ("empirical_stc_bits", bits(&self.empirical_stc)),
            ("peak_memory_bytes", self.peak_memory_bytes.to_json()),
            ("buffer_memory_bytes", self.buffer_memory_bytes.to_json()),
            ("failures", self.failures.to_json()),
        ])
    }

    /// The full cell record (coordinate + deterministic + timing).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("key", self.spec.key().to_json()),
            ("dataset", self.spec.dataset.label().to_json()),
            ("method", self.spec.method.label().to_json()),
            ("ipc", self.spec.ipc.to_json()),
            ("scenario", self.spec.scenario.name().to_json()),
            ("threads", self.spec.threads.to_json()),
            ("storage_dtype", self.spec.storage_dtype.label().to_json()),
            ("deterministic", self.deterministic_json()),
            (
                "timing",
                Json::obj([
                    ("wall_time_ms", self.wall_time_ms.to_json()),
                    ("processing_ms", self.processing_ms.to_json()),
                ]),
            ),
        ])
    }
}

fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

fn bits(xs: &[f32]) -> Json {
    Json::Arr(
        xs.iter()
            .map(|x| Json::Num(f64::from(x.to_bits())))
            .collect(),
    )
}

/// Runs one cell: collect the scenario's segments per seed, run the trial
/// on them, catch per-seed panics as [`TrialFailure`] records.
fn run_cell(cell: &CellSpec, seeds: usize) -> CellOutcome {
    let started = Instant::now();
    let params = matrix_params(cell.dataset);
    let outcome = deco_runtime::with_thread_count(cell.threads, || {
        let data = cell.dataset.build();
        let mut out = CellOutcome {
            spec: *cell,
            final_accuracy: Vec::new(),
            mean_forgetting: Vec::new(),
            retention: Vec::new(),
            pseudo_accuracy: Vec::new(),
            empirical_stc: Vec::new(),
            peak_memory_bytes: Vec::new(),
            buffer_memory_bytes: Vec::new(),
            failures: Vec::new(),
            wall_time_ms: 0.0,
            processing_ms: 0.0,
        };
        for seed in 0..seeds as u64 {
            let spec = TrialSpec::new(cell.dataset, cell.method, cell.ipc, seed, params)
                .with_storage_dtype(cell.storage_dtype);
            let segments = scenario_segments(&data, &params, cell.scenario, seed);
            let labels: Vec<usize> = segments
                .iter()
                .flat_map(|s| s.true_labels.iter().copied())
                .collect();
            let trial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_trial_on_segments(&spec, &segments, params.beta)
            }));
            match trial {
                Ok((result, tracker)) => {
                    out.final_accuracy.push(result.final_accuracy);
                    out.mean_forgetting.push(tracker.mean_forgetting());
                    out.retention.push(result.retention);
                    out.pseudo_accuracy.push(result.pseudo_accuracy);
                    out.empirical_stc.push(empirical_stc(&labels));
                    out.peak_memory_bytes
                        .push(result.peak_memory_bytes.unwrap_or(0));
                    out.buffer_memory_bytes.push(result.buffer_memory_bytes);
                    out.processing_ms += result.processing_time.as_secs_f64() * 1e3;
                }
                Err(payload) => {
                    let failure = TrialFailure::from_panic(seed, payload.as_ref());
                    eprintln!("warning: cell {} {failure}", cell.key());
                    out.failures.push(failure);
                }
            }
        }
        out
    });
    deco_telemetry::counter!("scenario.matrix.cells");
    let mut outcome = outcome;
    outcome.wall_time_ms = started.elapsed().as_secs_f64() * 1e3;
    outcome
}

/// A completed matrix run.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// Grid name.
    pub grid: String,
    /// Seeds per cell.
    pub seeds: usize,
    /// All cells, in sweep order.
    pub cells: Vec<CellOutcome>,
}

impl MatrixResult {
    /// Looks up a cell by its leaderboard key.
    pub fn find(&self, key: &str) -> Option<&CellOutcome> {
        self.cells.iter().find(|c| c.spec.key() == key)
    }

    /// The machine-readable leaderboard.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", LEADERBOARD_SCHEMA.to_json()),
            ("grid", self.grid.to_json()),
            ("seeds", self.seeds.to_json()),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellOutcome::to_json).collect()),
            ),
        ])
    }

    /// The human-readable leaderboard table, sorted by mean accuracy
    /// (descending) within the sweep's dataset/scenario grouping left to
    /// the key column.
    pub fn to_markdown(&self) -> String {
        let mut table = Table::new(
            format!("DECO benchmark matrix — grid `{}`", self.grid),
            [
                "Dataset",
                "Method",
                "IpC",
                "Scenario",
                "Thr",
                "Dtype",
                "Accuracy",
                "Forgetting",
                "Emp. STC",
                "Peak KiB",
                "Buf KiB",
                "Wall ms",
            ]
            .map(String::from)
            .to_vec(),
        );
        let mut ranked: Vec<&CellOutcome> = self.cells.iter().collect();
        ranked.sort_by(|a, b| {
            b.accuracy_mean()
                .partial_cmp(&a.accuracy_mean())
                .expect("accuracies are finite")
                .then_with(|| a.spec.key().cmp(&b.spec.key()))
        });
        for cell in ranked {
            let failed = if cell.failures.is_empty() {
                String::new()
            } else {
                format!(" ({} failed)", cell.failures.len())
            };
            table.push_row(vec![
                cell.spec.dataset.label().to_string(),
                cell.spec.method.label().to_string(),
                cell.spec.ipc.to_string(),
                cell.spec.scenario.name().to_string(),
                cell.spec.threads.to_string(),
                cell.spec.storage_dtype.label().to_string(),
                format!("{:.2}%{}", cell.accuracy_mean() * 100.0, failed),
                format!("{:.3}", mean(&cell.mean_forgetting)),
                format!("{:.1}", mean(&cell.empirical_stc)),
                format!(
                    "{:.1}",
                    cell.peak_memory_bytes.iter().copied().max().unwrap_or(0) as f64 / 1024.0
                ),
                format!(
                    "{:.1}",
                    cell.buffer_memory_bytes.iter().copied().max().unwrap_or(0) as f64 / 1024.0
                ),
                format!("{:.0}", cell.wall_time_ms),
            ]);
        }
        table.render()
    }
}

/// Runs the whole grid, cell by cell, and asserts the thread-invariance
/// contract: any two cells that differ only in their `threads` coordinate
/// must produce byte-identical deterministic fields.
///
/// # Panics
/// Panics when thread-invariance is violated — that is a determinism bug
/// in the runtime or a scenario, never an acceptable benchmark outcome.
pub fn run_matrix(grid: &MatrixGrid) -> MatrixResult {
    // Storage peaks come from the telemetry memory tracker.
    deco_telemetry::set_enabled(true);
    let cells = grid.cells();
    let mut outcomes = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let span = deco_telemetry::span!("scenario.matrix.cell");
        let outcome = run_cell(cell, grid.seeds);
        drop(span);
        eprintln!(
            "[{}/{}] {}  acc {:.2}%  ({:.0} ms)",
            i + 1,
            cells.len(),
            cell.key(),
            outcome.accuracy_mean() * 100.0,
            outcome.wall_time_ms
        );
        outcomes.push(outcome);
    }
    // Thread-invariance gate.
    for a in &outcomes {
        for b in &outcomes {
            let same_cell_different_threads = a.spec.dataset == b.spec.dataset
                && a.spec.method == b.spec.method
                && a.spec.ipc == b.spec.ipc
                && a.spec.scenario == b.spec.scenario
                && a.spec.storage_dtype == b.spec.storage_dtype
                && a.spec.threads < b.spec.threads;
            if same_cell_different_threads {
                assert_eq!(
                    a.deterministic_json(),
                    b.deterministic_json(),
                    "thread-invariance violated between {} and {}",
                    a.spec.key(),
                    b.spec.key()
                );
            }
        }
    }
    MatrixResult {
        grid: grid.name.to_string(),
        seeds: grid.seeds,
        cells: outcomes,
    }
}

/// Compares a fresh run's deterministic fields against a previously
/// written leaderboard (the `--check` regression gate). Every cell of
/// `current` must exist in `baseline` with a byte-identical
/// `deterministic` subtree; `baseline` may contain extra cells (so the CI
/// grid can check against the committed small-grid leaderboard).
///
/// # Errors
/// Returns one message per missing or mismatching cell.
pub fn check_against(current: &MatrixResult, baseline: &Json) -> Result<usize, Vec<String>> {
    let empty = [];
    let cells = baseline
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let mut errors = Vec::new();
    let mut checked = 0;
    for cell in &current.cells {
        let key = cell.spec.key();
        let base = cells
            .iter()
            .find(|c| c.get("key").and_then(Json::as_str) == Some(key.as_str()));
        match base {
            None => errors.push(format!("cell {key}: missing from baseline")),
            Some(base) => {
                let expected = base.get("deterministic");
                let actual = cell.deterministic_json();
                if expected == Some(&actual) {
                    checked += 1;
                } else {
                    errors.push(format!(
                        "cell {key}: deterministic fields diverged from baseline"
                    ));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(checked)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_advertised_shape() {
        let ci = MatrixGrid::ci();
        assert_eq!(ci.cells().len(), 12);
        let small = MatrixGrid::small();
        assert_eq!(small.cells().len(), 96);
        assert!(small.methods.len() >= 2);
        assert!(small.scenarios.len() >= 4);
        assert!(small.ipcs.len() >= 2);
        // Every CI cell must exist in the small grid so the CI gate can
        // check against the committed small-grid leaderboard.
        let small_keys: Vec<String> = small.cells().iter().map(CellSpec::key).collect();
        for cell in ci.cells() {
            assert!(
                small_keys.contains(&cell.key()),
                "{} not in small",
                cell.key()
            );
        }
        assert_eq!(ci.seeds, small.seeds);
        assert!(MatrixGrid::parse("FULL").is_some());
        assert!(MatrixGrid::parse("galactic").is_none());
    }

    #[test]
    fn cell_keys_are_unique_and_stable() {
        let cells = MatrixGrid::small().cells();
        let mut keys: Vec<String> = cells.iter().map(CellSpec::key).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate cell keys");
        let first = CellSpec {
            dataset: DatasetId::Core50,
            method: MethodKind::Deco,
            ipc: 1,
            scenario: ScenarioConfig::parse("class_incremental").unwrap(),
            threads: 2,
            storage_dtype: StorageDtype::Bf16,
        };
        assert_eq!(first.key(), "CORe50/DECO/ipc1/class_incremental/t2/bf16");
    }

    #[test]
    fn check_against_accepts_itself_and_flags_divergence() {
        let outcome = CellOutcome {
            spec: CellSpec {
                dataset: DatasetId::Core50,
                method: MethodKind::Deco,
                ipc: 1,
                scenario: ScenarioConfig::Baseline,
                threads: 1,
                storage_dtype: StorageDtype::F32,
            },
            final_accuracy: vec![0.25],
            mean_forgetting: vec![0.1],
            retention: vec![0.8],
            pseudo_accuracy: vec![0.9],
            empirical_stc: vec![9.5],
            peak_memory_bytes: vec![1024],
            buffer_memory_bytes: vec![256],
            failures: Vec::new(),
            wall_time_ms: 12.0,
            processing_ms: 8.0,
        };
        let result = MatrixResult {
            grid: "test".into(),
            seeds: 1,
            cells: vec![outcome.clone()],
        };
        let baseline = result.to_json();
        assert_eq!(check_against(&result, &baseline), Ok(1));
        // Timing may drift freely…
        let mut timed = result.clone();
        timed.cells[0].wall_time_ms = 99.0;
        assert_eq!(check_against(&timed, &baseline), Ok(1));
        // …deterministic fields may not.
        let mut diverged = result.clone();
        diverged.cells[0].final_accuracy = vec![0.26];
        let err = check_against(&diverged, &baseline).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("diverged"), "{}", err[0]);
        // Missing cells are named.
        let mut missing = result;
        missing.cells[0].spec.ipc = 7;
        let err = check_against(&missing, &baseline).unwrap_err();
        assert!(err[0].contains("missing"), "{}", err[0]);
    }

    #[test]
    fn leaderboard_json_roundtrips_through_the_parser() {
        let result = MatrixResult {
            grid: "test".into(),
            seeds: 1,
            cells: Vec::new(),
        };
        let text = result.to_json().to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some(LEADERBOARD_SCHEMA)
        );
        assert_eq!(back.get("cells").and_then(Json::as_array), Some(&[][..]));
    }

    // One real (tiny) matrix run: a single cell, executed twice — the
    // second run must pass the check gate against the first, and the
    // thread-invariance assert inside run_matrix gets exercised by the
    // two-thread axis.
    #[test]
    fn single_cell_matrix_is_reproducible_and_thread_invariant() {
        let grid = MatrixGrid {
            name: "test",
            methods: vec![MethodKind::Dm],
            datasets: vec![DatasetId::Core50],
            ipcs: vec![1],
            scenarios: vec![ScenarioConfig::parse("bursty").unwrap()],
            threads: vec![1, 2],
            storage_dtypes: vec![StorageDtype::F32, StorageDtype::I8],
            seeds: 1,
        };
        let first = run_matrix(&grid);
        assert_eq!(first.cells.len(), 4);
        assert!(first.cells[0].failures.is_empty());
        assert!(first.cells[0].peak_memory_bytes[0] > 0);
        assert!(first.cells[0].empirical_stc[0] > 1.0);
        // The i8 sibling of an f32 cell keeps ≥ 3.5× less buffer.
        let f32_buf = first.cells[0].buffer_memory_bytes[0] as f64;
        let i8_buf = first.cells[1].buffer_memory_bytes[0] as f64;
        assert!(
            f32_buf / i8_buf >= 3.5,
            "i8 cell shrank only {:.2}x",
            f32_buf / i8_buf
        );
        let baseline = first.to_json();
        let second = run_matrix(&grid);
        assert_eq!(check_against(&second, &baseline), Ok(4));
        let md = first.to_markdown();
        assert!(md.contains("bursty"), "{md}");
    }
}
