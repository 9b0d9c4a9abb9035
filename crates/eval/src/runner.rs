//! The experiment runner: builds a method's buffer policy, drives the
//! on-device learning loop over a stream, and aggregates trials over seeds
//! (in parallel — one thread per seed).

use std::borrow::Borrow;
use std::time::{Duration, Instant};

use deco::{
    accuracy, pretrain, BufferPolicy, DecoCondenser, DecoConfig, LearnerConfig, OnDeviceLearner,
};
use deco_condense::{DcCondenser, DcConfig, DmCondenser, DmConfig, DsaCondenser, SyntheticBuffer};
use deco_datasets::{LabeledSet, Segment, Stream, StreamConfig, SyntheticVision};
use deco_nn::{ConvNet, ConvNetConfig};
use deco_replay::{BaselineKind, BufferItem, ReplayBuffer, SelectionContext};
use deco_telemetry::{impl_to_json, Json, ToJson};
use deco_tensor::{Rng, StorageDtype};

use crate::forgetting::{per_class_accuracy, ForgettingTracker};
use crate::scale::{DatasetId, ScaleParams};
use crate::stats::MeanStd;

/// A buffer-maintenance method under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// The paper's method.
    Deco,
    /// Vanilla gradient-matching condensation.
    Dc,
    /// DC + differentiable siamese augmentation.
    Dsa,
    /// Distribution matching.
    Dm,
    /// A selection-strategy baseline.
    Selection(BaselineKind),
}

impl MethodKind {
    /// The six Table I columns, in paper order.
    pub const TABLE1: [MethodKind; 6] = [
        MethodKind::Selection(BaselineKind::Random),
        MethodKind::Selection(BaselineKind::Fifo),
        MethodKind::Selection(BaselineKind::SelectiveBp),
        MethodKind::Selection(BaselineKind::KCenter),
        MethodKind::Selection(BaselineKind::GssGreedy),
        MethodKind::Deco,
    ];

    /// The four Table II condensation methods, in paper order.
    pub const TABLE2: [MethodKind; 4] = [
        MethodKind::Dc,
        MethodKind::Dsa,
        MethodKind::Dm,
        MethodKind::Deco,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            MethodKind::Deco => "DECO",
            MethodKind::Dc => "DC",
            MethodKind::Dsa => "DSA",
            MethodKind::Dm => "DM",
            MethodKind::Selection(k) => k.label(),
        }
    }
}

impl std::fmt::Display for MethodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully specified single trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Dataset analogue.
    pub dataset: DatasetId,
    /// Buffer method.
    pub method: MethodKind,
    /// Synthetic/stored images per class.
    pub ipc: usize,
    /// Random seed.
    pub seed: u64,
    /// Scale parameters.
    pub params: ScaleParams,
    /// Evaluate the test accuracy every this many segments for the learning
    /// curve (0 = final evaluation only).
    pub eval_every: usize,
    /// Override for the DECO feature-discrimination weight `α`
    /// (`None` = paper default 0.1). Used by the Fig. 4b sweep.
    pub alpha_override: Option<f32>,
    /// Override for the majority-voting threshold `m` (`None` = 0.4).
    /// Used by the Fig. 4a sweep.
    pub vote_threshold_override: Option<f32>,
    /// At-rest precision of the maintained buffer (synthetic images for
    /// condensation methods, stored items for selection baselines).
    /// Compute always stays f32; this sets the lattice the buffer is
    /// committed to between segments and the width it serializes at.
    pub storage_dtype: StorageDtype,
}

impl TrialSpec {
    /// A default trial for the given cell.
    pub fn new(
        dataset: DatasetId,
        method: MethodKind,
        ipc: usize,
        seed: u64,
        params: ScaleParams,
    ) -> Self {
        TrialSpec {
            dataset,
            method,
            ipc,
            seed,
            params,
            eval_every: 0,
            alpha_override: None,
            vote_threshold_override: None,
            storage_dtype: StorageDtype::F32,
        }
    }

    /// The same trial with the buffer held at `dtype` between segments.
    pub fn with_storage_dtype(mut self, dtype: StorageDtype) -> Self {
        self.storage_dtype = dtype;
        self
    }
}

/// A point of a learning curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Stream items processed so far.
    pub items: usize,
    /// Test accuracy at that point.
    pub accuracy: f32,
}

impl_to_json!(CurvePoint { items, accuracy });

/// The outcome of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Final test accuracy.
    pub final_accuracy: f32,
    /// Learning curve (empty when `eval_every == 0`).
    pub curve: Vec<CurvePoint>,
    /// Mean fraction of each segment kept by majority voting.
    pub retention: f32,
    /// Mean accuracy of the kept pseudo-labels.
    pub pseudo_accuracy: f32,
    /// Wall-clock time spent inside `process_segment` (the condensation /
    /// selection cost Table II reports).
    pub processing_time: Duration,
    /// Per-segment `process_segment` latency in milliseconds, in stream
    /// order.
    pub segment_wall_time_ms: Vec<f64>,
    /// High-water-mark bytes of the learner's persistent state (replay
    /// buffer / synthetic dataset / model params / optimizer state);
    /// the transient autograd-tape peak is tracked separately in the
    /// telemetry `usage` breakdown. `None` when telemetry is disabled.
    pub peak_memory_bytes: Option<u64>,
    /// Final at-rest bytes of the maintained buffer at its storage
    /// dtype — the steady-state footprint the per-precision tables
    /// compare (always measured, telemetry or not).
    pub buffer_memory_bytes: u64,
}

impl TrialResult {
    /// The trial's outcome restricted to its *deterministic* fields —
    /// accuracies, retention, pseudo-label quality, and the learning
    /// curve — with every `f32` also emitted as its exact bit pattern.
    /// Wall-clock and memory measurements are deliberately excluded, so
    /// this view is suitable for golden-trace fixtures that must be
    /// byte-identical across runs and thread counts.
    pub fn deterministic_json(&self) -> Json {
        Json::obj([
            ("final_accuracy", self.final_accuracy.to_json()),
            (
                "final_accuracy_bits",
                Json::Num(f64::from(self.final_accuracy.to_bits())),
            ),
            ("retention", self.retention.to_json()),
            (
                "retention_bits",
                Json::Num(f64::from(self.retention.to_bits())),
            ),
            ("pseudo_accuracy", self.pseudo_accuracy.to_json()),
            (
                "pseudo_accuracy_bits",
                Json::Num(f64::from(self.pseudo_accuracy.to_bits())),
            ),
            ("curve", self.curve.to_json()),
        ])
    }
}

fn convnet_config(dataset: DatasetId, params: &ScaleParams) -> ConvNetConfig {
    let spec = dataset.spec();
    ConvNetConfig {
        in_channels: spec.channels,
        image_side: spec.image_side,
        width: params.net_width,
        depth: params.net_depth,
        num_classes: spec.num_classes,
        norm: true,
    }
}

fn build_policy(
    spec: &TrialSpec,
    data: &SyntheticVision,
    pretrain_set: &LabeledSet,
    model: &ConvNet,
    rng: &mut Rng,
) -> BufferPolicy {
    let classes = data.num_classes();
    match spec.method {
        MethodKind::Deco => {
            let mut cfg = DecoConfig::default()
                .with_iterations(spec.params.deco_iterations)
                .with_model_lr(spec.params.model_lr)
                .with_model_epochs(spec.params.model_epochs)
                .with_beta(spec.params.beta);
            if let Some(alpha) = spec.alpha_override {
                cfg = cfg.with_alpha(alpha);
            }
            if let Some(m) = spec.vote_threshold_override {
                cfg = cfg.with_vote_threshold(m);
            }
            BufferPolicy::Condensed {
                condenser: Box::new(DecoCondenser::new(cfg)),
                buffer: SyntheticBuffer::from_labeled(pretrain_set, spec.ipc, classes, rng)
                    .with_storage_dtype(spec.storage_dtype),
            }
        }
        MethodKind::Dc | MethodKind::Dsa => {
            let cfg = DcConfig::default();
            let condenser: Box<dyn deco_condense::Condenser> = if spec.method == MethodKind::Dc {
                Box::new(DcCondenser::new(cfg))
            } else {
                Box::new(DsaCondenser::new(cfg))
            };
            BufferPolicy::Condensed {
                condenser,
                buffer: SyntheticBuffer::from_labeled(pretrain_set, spec.ipc, classes, rng)
                    .with_storage_dtype(spec.storage_dtype),
            }
        }
        MethodKind::Dm => BufferPolicy::Condensed {
            condenser: Box::new(DmCondenser::new(DmConfig::default())),
            buffer: SyntheticBuffer::from_labeled(pretrain_set, spec.ipc, classes, rng)
                .with_storage_dtype(spec.storage_dtype),
        },
        MethodKind::Selection(kind) => {
            // Pre-fill the baseline buffer from the pre-training set, so
            // every method starts from the same labeled knowledge.
            let mut strategy = kind.build();
            let mut buffer =
                ReplayBuffer::with_storage_dtype(spec.ipc * classes, spec.storage_dtype);
            let frame: Vec<usize> = pretrain_set.images.shape().dims()[1..].to_vec();
            for i in 0..pretrain_set.len() {
                if buffer.is_full() {
                    break;
                }
                let image = pretrain_set.images.select_rows(&[i]).reshape(frame.clone());
                let item = BufferItem {
                    image,
                    label: pretrain_set.labels[i],
                    confidence: 1.0,
                };
                let mut ctx = SelectionContext { model, rng };
                strategy.offer(&mut buffer, item, &mut ctx);
            }
            BufferPolicy::Selection { strategy, buffer }
        }
    }
}

/// Runs one trial end to end: pre-train, deploy, stream, evaluate.
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    let data = spec.dataset.build();
    let params = &spec.params;
    let stream_cfg = StreamConfig {
        stc: params.stc,
        segment_size: params.segment_size,
        num_segments: params.num_segments,
        seed: spec.seed,
    };
    trial_body(spec, &data, Stream::new(&data, stream_cfg), 0).0
}

/// Runs one trial over *caller-provided* segments instead of the spec's
/// own [`Stream`]. This is the entry point the `deco-scenarios` benchmark
/// matrix drives: a scenario generator materializes an adversarial segment
/// sequence, and this function measures the learner on it with **exactly**
/// the setup of [`run_trial`] — same RNG derivation, same pre-training,
/// same policy construction — so feeding it the baseline stream's segments
/// reproduces `run_trial` bitwise (deterministic fields).
///
/// Alongside the [`TrialResult`], a [`ForgettingTracker`] is returned with
/// per-class accuracy snapshots: one before the stream, one after every
/// `forgetting_every` segments (0 = endpoints only), and one at the end.
///
/// # Panics
/// Panics on invalid configurations, like [`run_trial`].
pub fn run_trial_on_segments(
    spec: &TrialSpec,
    segments: &[Segment],
    forgetting_every: usize,
) -> (TrialResult, ForgettingTracker) {
    let data = spec.dataset.build();
    trial_body(spec, &data, segments.iter(), forgetting_every)
}

/// The one trial body behind [`run_trial`] and [`run_trial_on_segments`]:
/// pre-train, deploy, feed `segments` one at a time (so a [`Stream`] is
/// never held in memory whole), retrain on a trailing partial β window,
/// and evaluate.
fn trial_body<S: Borrow<Segment>>(
    spec: &TrialSpec,
    data: &SyntheticVision,
    segments: impl ExactSizeIterator<Item = S>,
    forgetting_every: usize,
) -> (TrialResult, ForgettingTracker) {
    let params = &spec.params;
    let mut rng = Rng::new(0xDEC0 ^ spec.seed.wrapping_mul(0x9E37_79B9));

    let net_cfg = convnet_config(spec.dataset, params);
    let model = ConvNet::new(net_cfg, &mut rng);
    let pretrain_set = data.pretrain_set(params.pretrain_per_class);
    pretrain(
        &model,
        &pretrain_set,
        params.pretrain_steps,
        params.pretrain_lr,
    );
    let scratch = ConvNet::new(net_cfg, &mut rng);
    let test_set = data.test_set(params.test_per_class);
    let classes = data.num_classes();

    let policy = build_policy(spec, data, &pretrain_set, &model, &mut rng);
    let learner_cfg = LearnerConfig {
        vote_threshold: spec.vote_threshold_override.unwrap_or(0.4),
        beta: params.beta,
        model_lr: params.model_lr,
        model_epochs: params.model_epochs,
    };
    let mut learner = OnDeviceLearner::new(model, scratch, policy, learner_cfg, rng.fork(1));

    let mut tracker = ForgettingTracker::new();
    tracker.record(per_class_accuracy(learner.model(), &test_set, classes));
    let mut curve = Vec::new();
    let mut processing_time = Duration::ZERO;
    let mut segment_wall_time_ms = Vec::new();
    let num_segments = segments.len();
    for (i, segment) in segments.enumerate() {
        let start = Instant::now();
        learner.process_segment(segment.borrow());
        let elapsed = start.elapsed();
        processing_time += elapsed;
        segment_wall_time_ms.push(elapsed.as_secs_f64() * 1e3);
        if spec.eval_every > 0 && (i + 1) % spec.eval_every == 0 {
            curve.push(CurvePoint {
                items: learner.items_seen(),
                accuracy: learner.evaluate(&test_set),
            });
        }
        let last = i + 1 == num_segments;
        if forgetting_every > 0 && (i + 1) % forgetting_every == 0 && !last {
            tracker.record(per_class_accuracy(learner.model(), &test_set, classes));
        }
    }
    // Final model update if the stream length is not a multiple of β.
    if !num_segments.is_multiple_of(params.beta) {
        learner.train_model_now();
    }
    tracker.record(per_class_accuracy(learner.model(), &test_set, classes));
    let (retention, pseudo_accuracy) = learner.pseudo_label_stats();
    // Storage peak only: the paper's Table 2 compares what the device
    // must keep resident between segments; the transient autograd-tape
    // peak stays visible in the report's per-component `usage` section.
    let peak_memory_bytes =
        deco_telemetry::is_enabled().then(|| learner.memory_tracker().storage_peak());
    let result = TrialResult {
        final_accuracy: learner.evaluate(&test_set),
        curve,
        retention,
        pseudo_accuracy,
        processing_time,
        segment_wall_time_ms,
        peak_memory_bytes,
        buffer_memory_bytes: learner.buffer_bytes(),
    };
    (result, tracker)
}

/// A trial that panicked, recorded instead of aborting the whole cell.
#[derive(Debug, Clone)]
pub struct TrialFailure {
    /// The seed whose trial panicked.
    pub seed: u64,
    /// The panic payload, stringified when possible.
    pub message: String,
}

impl_to_json!(TrialFailure { seed, message });

impl TrialFailure {
    /// Records the panic of `seed`'s trial, stringifying its payload
    /// when it is a string.
    pub fn from_panic(seed: u64, payload: &(dyn std::any::Any + Send)) -> TrialFailure {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        TrialFailure { seed, message }
    }
}

impl std::fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} panicked: {}", self.seed, self.message)
    }
}

/// Aggregated trials of one (dataset, method, IpC) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Final-accuracy statistics over the seeds that completed.
    pub accuracy: MeanStd,
    /// Per-seed results of the completed trials, in seed order.
    pub trials: Vec<TrialResult>,
    /// Trials that panicked (empty in a healthy run). These are excluded
    /// from `accuracy` and surfaced in the report instead of killing the
    /// whole sweep.
    pub failures: Vec<TrialFailure>,
}

impl CellResult {
    /// One-line summary of the cell's failed seeds, if any — for report
    /// footers and stderr warnings.
    pub fn failure_summary(&self) -> Option<String> {
        if self.failures.is_empty() {
            return None;
        }
        let parts: Vec<String> = self.failures.iter().map(TrialFailure::to_string).collect();
        Some(format!(
            "{}/{} trials failed ({})",
            self.failures.len(),
            self.failures.len() + self.trials.len(),
            parts.join("; ")
        ))
    }
}

/// Runs `params.seeds` trials of a cell across the `deco-runtime` pool.
///
/// A panicking trial no longer tears down the whole cell: the panic is
/// caught on the worker, recorded as a [`TrialFailure`] with its seed, and
/// the remaining trials still run. Results come back in seed order at any
/// `DECO_THREADS` setting.
///
/// # Panics
/// Panics only when *every* trial of the cell panicked — there is nothing
/// left to aggregate.
pub fn run_cell(base: &TrialSpec) -> CellResult {
    let specs: Vec<TrialSpec> = (0..base.params.seeds as u64)
        .map(|seed| {
            let mut spec = *base;
            spec.seed = seed;
            spec
        })
        .collect();
    let outcomes = deco_runtime::parallel_map(specs, |_, spec| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_trial(&spec)))
            .map_err(|payload| TrialFailure::from_panic(spec.seed, payload.as_ref()))
    });
    let mut trials = Vec::new();
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(trial) => trials.push(trial),
            Err(failure) => {
                eprintln!("warning: trial {failure}");
                failures.push(failure);
            }
        }
    }
    assert!(
        !trials.is_empty(),
        "every trial of the cell panicked: {}",
        failures
            .iter()
            .map(TrialFailure::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
    let accs: Vec<f32> = trials.iter().map(|t| t.final_accuracy).collect();
    CellResult {
        accuracy: MeanStd::of(&accs),
        trials,
        failures,
    }
}

/// The paper's "Upper Bound": accuracy achievable with an unlimited buffer
/// — here, training the pre-trained model on a large balanced labeled set
/// drawn from the same distribution as the stream.
pub fn upper_bound(dataset: DatasetId, params: &ScaleParams, seed: u64) -> f32 {
    let data = dataset.build();
    let mut rng = Rng::new(0xFFFF ^ seed);
    let net_cfg = convnet_config(dataset, params);
    let model = ConvNet::new(net_cfg, &mut rng);
    let pretrain_set = data.pretrain_set(params.pretrain_per_class);
    pretrain(
        &model,
        &pretrain_set,
        params.pretrain_steps,
        params.pretrain_lr,
    );
    // "Unlimited" buffer: a balanced sample of the stream distribution,
    // several times the biggest bounded buffer. Kept CPU-frugal: the upper
    // bound only anchors the table's headroom.
    let per_class = (params.pretrain_per_class * 4).max(12);
    let big = data.balanced_set(per_class, 0xB16_B0F ^ seed);
    pretrain(
        &model,
        &big,
        params.pretrain_steps,
        params.pretrain_lr * 0.5,
    );
    accuracy(&model, &data.test_set(params.test_per_class))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    fn micro_params() -> ScaleParams {
        let mut p = ExperimentScale::Smoke.params(DatasetId::Core50);
        p.num_segments = 3;
        p.segment_size = 16;
        p.model_epochs = 3;
        p.pretrain_steps = 10;
        p.test_per_class = 2;
        p.seeds = 2;
        p.deco_iterations = 2;
        p.beta = 2;
        p
    }

    #[test]
    fn deco_trial_runs_and_reports() {
        let spec = TrialSpec::new(DatasetId::Core50, MethodKind::Deco, 1, 0, micro_params());
        let result = run_trial(&spec);
        assert!((0.0..=1.0).contains(&result.final_accuracy));
        assert!(result.processing_time > Duration::ZERO);
        assert!(result.curve.is_empty());
    }

    #[test]
    fn baseline_trial_runs() {
        let spec = TrialSpec::new(
            DatasetId::Core50,
            MethodKind::Selection(BaselineKind::Fifo),
            1,
            0,
            micro_params(),
        );
        let result = run_trial(&spec);
        assert!((0.0..=1.0).contains(&result.final_accuracy));
    }

    #[test]
    fn learning_curve_has_requested_points() {
        let mut spec = TrialSpec::new(DatasetId::Core50, MethodKind::Dm, 1, 0, micro_params());
        spec.eval_every = 1;
        let result = run_trial(&spec);
        assert_eq!(result.curve.len(), 3);
        assert!(result.curve[0].items < result.curve[2].items);
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let spec = TrialSpec::new(DatasetId::Core50, MethodKind::Deco, 1, 3, micro_params());
        let a = run_trial(&spec);
        let b = run_trial(&spec);
        assert_eq!(a.final_accuracy, b.final_accuracy);
    }

    #[test]
    fn trial_on_baseline_segments_matches_run_trial_bitwise() {
        let spec = TrialSpec::new(DatasetId::Core50, MethodKind::Deco, 1, 2, micro_params());
        let data = spec.dataset.build();
        let stream_cfg = StreamConfig {
            stc: spec.params.stc,
            segment_size: spec.params.segment_size,
            num_segments: spec.params.num_segments,
            seed: spec.seed,
        };
        let segments: Vec<Segment> = Stream::new(&data, stream_cfg).collect();
        let reference = run_trial(&spec);
        let (result, tracker) = run_trial_on_segments(&spec, &segments, 0);
        assert_eq!(
            result.final_accuracy.to_bits(),
            reference.final_accuracy.to_bits()
        );
        assert_eq!(result.retention.to_bits(), reference.retention.to_bits());
        assert_eq!(
            result.pseudo_accuracy.to_bits(),
            reference.pseudo_accuracy.to_bits()
        );
        assert_eq!(tracker.len(), 2, "endpoint snapshots only");
    }

    #[test]
    fn sub_f32_storage_shrinks_buffer_memory_with_sane_accuracy() {
        let base = TrialSpec::new(DatasetId::Core50, MethodKind::Deco, 1, 0, micro_params());
        let f32_trial = run_trial(&base);
        assert!(f32_trial.buffer_memory_bytes > 0);
        for (dtype, min_ratio) in [(StorageDtype::Bf16, 1.8f64), (StorageDtype::I8, 3.5)] {
            let trial = run_trial(&base.with_storage_dtype(dtype));
            let ratio = f32_trial.buffer_memory_bytes as f64 / trial.buffer_memory_bytes as f64;
            assert!(
                ratio >= min_ratio,
                "{dtype}: buffer shrank only {ratio:.2}x (f32 {} -> {})",
                f32_trial.buffer_memory_bytes,
                trial.buffer_memory_bytes
            );
            assert!((0.0..=1.0).contains(&trial.final_accuracy), "{dtype}");
        }
    }

    #[test]
    fn selection_baseline_honors_storage_dtype() {
        let base = TrialSpec::new(
            DatasetId::Core50,
            MethodKind::Selection(BaselineKind::Fifo),
            1,
            0,
            micro_params(),
        );
        let f32_trial = run_trial(&base);
        let i8_trial = run_trial(&base.with_storage_dtype(StorageDtype::I8));
        assert!(
            i8_trial.buffer_memory_bytes < f32_trial.buffer_memory_bytes,
            "i8 replay storage must shrink the buffer ({} vs {})",
            i8_trial.buffer_memory_bytes,
            f32_trial.buffer_memory_bytes
        );
        assert!((0.0..=1.0).contains(&i8_trial.final_accuracy));
    }

    #[test]
    fn run_cell_aggregates_over_seeds() {
        let spec = TrialSpec::new(
            DatasetId::Core50,
            MethodKind::Selection(BaselineKind::Random),
            1,
            0,
            micro_params(),
        );
        let cell = run_cell(&spec);
        assert_eq!(cell.trials.len(), 2);
        assert!(cell.accuracy.std >= 0.0);
        assert!(cell.failures.is_empty());
        assert!(cell.failure_summary().is_none());
    }

    #[test]
    fn failure_summary_names_the_seed() {
        let cell = CellResult {
            accuracy: MeanStd::of(&[0.5]),
            trials: Vec::new(),
            failures: vec![TrialFailure {
                seed: 3,
                message: "index out of bounds".into(),
            }],
        };
        let summary = cell.failure_summary().unwrap();
        assert!(summary.contains("seed 3"), "{summary}");
        assert!(summary.contains("index out of bounds"), "{summary}");
        assert!(summary.contains("1/1"), "{summary}");
    }

    #[test]
    fn upper_bound_is_a_probability() {
        let ub = upper_bound(DatasetId::Core50, &micro_params(), 0);
        assert!((0.0..=1.0).contains(&ub));
    }

    #[test]
    fn method_labels_match_paper() {
        let labels: Vec<&str> = MethodKind::TABLE1.iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Random",
                "FIFO",
                "Selective-BP",
                "K-Center",
                "GSS-Greedy",
                "DECO"
            ]
        );
        let t2: Vec<&str> = MethodKind::TABLE2.iter().map(|m| m.label()).collect();
        assert_eq!(t2, vec!["DC", "DSA", "DM", "DECO"]);
    }
}
