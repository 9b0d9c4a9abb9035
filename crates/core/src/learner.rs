//! The on-device learning driver (paper Algorithm 1).
//!
//! One [`OnDeviceLearner`] owns the deployed model and a buffer policy —
//! either a condensed synthetic buffer updated by a [`Condenser`] (DECO,
//! DC, DSA, DM) or a replay buffer of real samples maintained by a
//! [`SelectionStrategy`] baseline. Every incoming segment is pseudo-labeled
//! and filtered by majority voting, handed to the policy, and every `β`
//! segments the model is retrained on the buffer. Using one driver for
//! every method keeps the comparison apples-to-apples, as in the paper.

use deco_condense::{
    ClassMatchJob, CondenseContext, Condenser, MatchResult, SegmentData, SyntheticBuffer,
};
use deco_datasets::{LabeledSet, Segment};
use deco_nn::{ConvNet, ConvNetConfig, Sgd};
use deco_replay::{BufferItem, ReplayBuffer, SelectionContext, SelectionStrategy};
use deco_telemetry::{MemoryComponent, MemoryTracker};
use deco_tensor::{Rng, Tensor};

use crate::condenser::DecoCondenser;
use crate::train::{train_classifier, WEIGHT_DECAY};
use crate::voting::{assign_pseudo_labels, kept_label_accuracy, majority_vote};

/// How the on-device buffer is maintained.
pub enum BufferPolicy {
    /// A learnable synthetic buffer updated by dataset condensation.
    Condensed {
        /// The condensation method.
        condenser: Box<dyn Condenser>,
        /// The synthetic dataset `S`.
        buffer: SyntheticBuffer,
    },
    /// A buffer of selected real samples (the paper's baselines).
    Selection {
        /// The selection strategy.
        strategy: Box<dyn SelectionStrategy>,
        /// The stored real samples.
        buffer: ReplayBuffer,
    },
}

impl std::fmt::Debug for BufferPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufferPolicy::Condensed { condenser, buffer } => f
                .debug_struct("Condensed")
                .field("method", &condenser.name())
                .field("size", &buffer.len())
                .finish(),
            BufferPolicy::Selection { strategy, buffer } => f
                .debug_struct("Selection")
                .field("method", &strategy.name())
                .field("size", &buffer.len())
                .finish(),
        }
    }
}

impl BufferPolicy {
    /// The method's display name.
    pub fn method_name(&self) -> &'static str {
        match self {
            BufferPolicy::Condensed { condenser, .. } => condenser.name(),
            BufferPolicy::Selection { strategy, .. } => strategy.name(),
        }
    }

    /// The buffer as a training batch: images, labels and optional
    /// confidence weights (real samples carry their pseudo-label
    /// confidence; synthetic samples are weighted 1 per Eq. 4).
    ///
    /// Returns `None` for an empty buffer.
    pub fn training_data(&self) -> Option<(Tensor, Vec<usize>, Option<Vec<f32>>)> {
        match self {
            BufferPolicy::Condensed { buffer, .. } => {
                let (images, labels) = buffer.as_training_batch();
                Some((images, labels, None))
            }
            BufferPolicy::Selection { buffer, .. } => {
                if buffer.is_empty() {
                    return None;
                }
                let (images, labels, confidences) = buffer.as_training_batch();
                Some((images, labels, Some(confidences)))
            }
        }
    }
}

/// Driver hyper-parameters (the subset of the DECO config the loop itself
/// needs; condenser-internal knobs live in the condenser).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnerConfig {
    /// Majority-voting threshold `m`.
    pub vote_threshold: f32,
    /// Model-update interval `β` in segments.
    pub beta: usize,
    /// Model learning rate.
    pub model_lr: f32,
    /// Full-batch steps per model update.
    pub model_epochs: usize,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            vote_threshold: 0.4,
            beta: 10,
            model_lr: 1e-3,
            model_epochs: 200,
        }
    }
}

/// Per-segment processing record (drives the Fig. 4a analysis and the
/// learning curves).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReport {
    /// Items in the segment.
    pub segment_len: usize,
    /// Items kept after majority voting.
    pub kept: usize,
    /// Accuracy of the kept pseudo-labels vs ground truth (`None` when
    /// nothing was kept).
    pub pseudo_label_accuracy: Option<f32>,
    /// The active classes of the segment.
    pub active_classes: Vec<usize>,
    /// Whether the model was retrained after this segment.
    pub model_updated: bool,
}

/// A segment after the pseudo-labeling / majority-voting phase: the kept
/// items and everything [`OnDeviceLearner::complete_segment`] needs to
/// finish the bookkeeping. Produced by
/// [`OnDeviceLearner::prepare_segment`]; the buffer-update phase between
/// the two is either [`OnDeviceLearner::condense_prepared`] (monolithic)
/// or the batched `deco_*` phase methods.
#[derive(Debug, Clone)]
pub struct PreparedSegment {
    segment_len: usize,
    kept: usize,
    kept_images: Option<Tensor>,
    kept_labels: Vec<usize>,
    kept_weights: Vec<f32>,
    active_classes: Vec<usize>,
    pseudo_label_accuracy: Option<f32>,
}

impl PreparedSegment {
    /// Items kept after majority voting.
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// The active classes of the segment.
    pub fn active_classes(&self) -> &[usize] {
        &self.active_classes
    }
}

/// An in-progress batched DECO condensation pass over one prepared
/// segment (see [`OnDeviceLearner::deco_begin_segment`]).
#[derive(Debug)]
pub struct DecoPhase {
    /// Condensation iterations the pass runs
    /// ([`crate::DecoConfig::iterations`]).
    pub iterations: usize,
    active_rows: Vec<usize>,
}

/// One iteration's matching work, exported for external dispatch: rebuild
/// a net from `(config, params)` per job and run one-step matching with
/// `epsilon_scale`, then hand the results (in job order) back to
/// [`OnDeviceLearner::deco_apply_iteration`] together with `rows_list`.
#[derive(Debug)]
pub struct DecoIterationJobs {
    /// Scratch-network architecture.
    pub config: ConvNetConfig,
    /// This iteration's freshly re-randomized scratch parameters.
    pub params: Vec<Tensor>,
    /// Finite-difference scale (paper's `0.01`).
    pub epsilon_scale: f32,
    /// Buffer rows each job's image gradient applies to.
    pub rows_list: Vec<Vec<usize>>,
    /// One matching job per active class with data.
    pub jobs: Vec<ClassMatchJob>,
}

/// Persistable learner state: everything needed to continue the on-device
/// loop bit-for-bit after a restart or an evict/rehydrate cycle.
///
/// Deliberately excluded — and why that is safe:
/// * **scratch-model weights**: every condenser re-randomizes the scratch
///   net from the learner RNG before using it, so its contents between
///   segments are dead state;
/// * **per-segment reports and memory-tracker peaks**: diagnostics that
///   never feed back into the computation.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnerSnapshot {
    /// Deployed-model parameters, in `ConvNet::params` order.
    pub model_params: Vec<Tensor>,
    /// Momentum state of the model optimizer `opt_θ`.
    pub opt_model_velocity: Vec<Option<Tensor>>,
    /// Momentum state of the DECO image optimizer `opt_S` (empty for the
    /// stateless DC/DSA/DM baselines).
    pub condenser_velocity: Vec<Option<Tensor>>,
    /// The synthetic-buffer image stack.
    pub buffer_images: Tensor,
    /// The buffer's committed scalar type (storage dtype plus i8 affine
    /// parameters). Captured alongside the images so a rehydrated
    /// learner keeps committing to the same lattice — and, for i8,
    /// serializes with the *same* quantization parameters — as the
    /// captured one. Re-deriving i8 parameters from already-quantized
    /// images would drift, so the full scalar type travels with the
    /// snapshot.
    pub buffer_scalar: deco_tensor::ScalarType,
    /// Buffer images-per-class.
    pub buffer_ipc: usize,
    /// Buffer class count.
    pub buffer_classes: usize,
    /// Learner RNG state (`Rng::state_parts`).
    pub rng_state: u64,
    /// Cached Box–Muller spare of the learner RNG.
    pub rng_spare: Option<f32>,
    /// Segments processed so far.
    pub segments_seen: usize,
    /// Stream items processed so far.
    pub items_seen: usize,
}

/// The complete on-device learning state: deployed model, buffer policy,
/// scratch matching model and counters.
pub struct OnDeviceLearner {
    model: ConvNet,
    scratch: ConvNet,
    policy: BufferPolicy,
    config: LearnerConfig,
    rng: Rng,
    opt_model: Sgd,
    segments_seen: usize,
    items_seen: usize,
    reports: Vec<SegmentReport>,
    /// Private byte accounting for this learner, so per-trial peaks stay
    /// attributable when trials run on parallel threads (the global
    /// tracker only sees the process-wide sum).
    tracker: MemoryTracker,
}

impl std::fmt::Debug for OnDeviceLearner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnDeviceLearner")
            .field("method", &self.policy.method_name())
            .field("segments_seen", &self.segments_seen)
            .finish()
    }
}

impl OnDeviceLearner {
    /// Deploys `model` with the given buffer policy. `scratch` is the
    /// matching-only network handed to condensers (same architecture as
    /// `model`; its weights are free to be re-randomized).
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(
        model: ConvNet,
        scratch: ConvNet,
        policy: BufferPolicy,
        config: LearnerConfig,
        rng: Rng,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&config.vote_threshold),
            "vote threshold out of range"
        );
        assert!(config.beta > 0, "beta must be positive");
        assert!(config.model_lr > 0.0, "model lr must be positive");
        let opt_model = Sgd::new(config.model_lr)
            .with_momentum(0.9)
            .with_weight_decay(WEIGHT_DECAY);
        // Per-trial tape attribution: the learner runs on one thread, so
        // the thread-local tape peak since construction is its tape HWM.
        deco_tensor::reset_tape_peak();
        OnDeviceLearner {
            model,
            scratch,
            policy,
            config,
            rng,
            opt_model,
            segments_seen: 0,
            items_seen: 0,
            reports: Vec::new(),
            tracker: MemoryTracker::new(),
        }
    }

    /// The deployed model.
    pub fn model(&self) -> &ConvNet {
        &self.model
    }

    /// The buffer policy.
    pub fn policy(&self) -> &BufferPolicy {
        &self.policy
    }

    /// The driver configuration.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// Total stream items processed so far.
    pub fn items_seen(&self) -> usize {
        self.items_seen
    }

    /// Per-segment reports, oldest first.
    pub fn reports(&self) -> &[SegmentReport] {
        &self.reports
    }

    /// This learner's private byte accounting (replay buffer, synthetic
    /// dataset, model params, optimizer state, autograd tape). Updated at
    /// the end of every [`OnDeviceLearner::process_segment`] while
    /// telemetry is enabled; `total_peak()` is the per-trial
    /// `peak_memory_bytes` reported by `deco-eval`.
    pub fn memory_tracker(&self) -> &MemoryTracker {
        &self.tracker
    }

    /// Current at-rest bytes of the maintained buffer — the compact
    /// encoding of the synthetic dataset (condensed policies) or the
    /// stored replay items (selection policies), at the buffer's storage
    /// dtype. Unlike [`OnDeviceLearner::memory_tracker`] this is always
    /// measured, telemetry enabled or not: it is the steady-state
    /// footprint the per-precision experiment tables compare.
    pub fn buffer_bytes(&self) -> u64 {
        match &self.policy {
            BufferPolicy::Condensed { buffer, .. } => buffer.approx_bytes(),
            BufferPolicy::Selection { buffer, .. } => buffer.approx_bytes(),
        }
    }

    /// Re-measures every memory component into the private tracker,
    /// mirrors the values into the global tracker and sets the
    /// `tensor.pool.held_bytes` gauge to every thread's parked pool
    /// bytes. No-op while telemetry is disabled.
    fn account_memory(&self) {
        if !deco_telemetry::is_enabled() {
            return;
        }
        let (buffer_component, buffer_bytes) = match &self.policy {
            BufferPolicy::Condensed { buffer, .. } => {
                (MemoryComponent::SyntheticDataset, buffer.approx_bytes())
            }
            BufferPolicy::Selection { strategy, buffer } => {
                deco_telemetry::metrics::gauge(&format!("replay.occupancy.{}", strategy.name()))
                    .set(buffer.len() as i64);
                (MemoryComponent::ReplayBuffer, buffer.approx_bytes())
            }
        };
        let model_bytes: u64 = self
            .model
            .params()
            .iter()
            .map(|p| p.tensor().heap_bytes())
            .sum();
        let updates = [
            (buffer_component, buffer_bytes),
            (MemoryComponent::ModelParams, model_bytes),
            (
                MemoryComponent::OptimizerState,
                self.opt_model.state_bytes(),
            ),
            // The tape shrinks back before this runs; record its
            // high-water mark on this thread as the component's level.
            (
                MemoryComponent::AutogradTape,
                deco_tensor::tape_peak_bytes(),
            ),
        ];
        for (component, bytes) in updates {
            self.tracker.set(component, bytes);
            deco_telemetry::track_set(component, bytes);
        }
        let pool_bytes = deco_tensor::pool::process_held_bytes();
        deco_telemetry::gauge_set!(
            "tensor.pool.held_bytes",
            i64::try_from(pool_bytes).unwrap_or(i64::MAX)
        );
    }

    /// Processes one stream segment: pseudo-label, vote, update the buffer,
    /// and retrain the model every `β` segments.
    pub fn process_segment(&mut self, segment: &Segment) -> SegmentReport {
        let _seg = deco_telemetry::span!("core.process_segment");
        let prepared = self.prepare_segment(segment);
        self.condense_prepared(&prepared);
        self.complete_segment(prepared)
    }

    /// Phase 1 of segment processing: pseudo-label the segment with the
    /// deployed model and apply majority voting. Consumes no learner RNG.
    pub fn prepare_segment(&self, segment: &Segment) -> PreparedSegment {
        let num_classes = self.model.config().num_classes;
        let predictions = assign_pseudo_labels(&self.model, &segment.images);
        let outcome = majority_vote(&predictions, num_classes, self.config.vote_threshold);
        let pseudo_label_accuracy =
            kept_label_accuracy(&predictions, &outcome, &segment.true_labels);
        let (kept_images, kept_labels, kept_weights) = if outcome.kept.is_empty() {
            (None, Vec::new(), Vec::new())
        } else {
            (
                Some(segment.images.select_rows(&outcome.kept)),
                outcome.kept.iter().map(|&i| predictions[i].class).collect(),
                outcome
                    .kept
                    .iter()
                    .map(|&i| predictions[i].confidence)
                    .collect(),
            )
        };
        PreparedSegment {
            segment_len: segment.len(),
            kept: outcome.kept.len(),
            kept_images,
            kept_labels,
            kept_weights,
            active_classes: outcome.active_classes,
            pseudo_label_accuracy,
        }
    }

    /// Phase 2 of segment processing: hand the kept items to the buffer
    /// policy (condense or select). A segment with nothing kept is a
    /// no-op, exactly as in the monolithic path.
    pub fn condense_prepared(&mut self, prepared: &PreparedSegment) {
        let Some(kept_images) = &prepared.kept_images else {
            return;
        };
        match &mut self.policy {
            BufferPolicy::Condensed { condenser, buffer } => {
                let data = SegmentData {
                    images: kept_images,
                    labels: &prepared.kept_labels,
                    weights: &prepared.kept_weights,
                    active_classes: &prepared.active_classes,
                };
                let mut ctx = CondenseContext {
                    scratch: &self.scratch,
                    deployed: &self.model,
                    rng: &mut self.rng,
                };
                condenser.condense(buffer, &data, &mut ctx);
            }
            BufferPolicy::Selection { strategy, buffer } => {
                let frame: Vec<usize> = kept_images.shape().dims()[1..].to_vec();
                for k in 0..prepared.kept {
                    let image = kept_images.select_rows(&[k]).reshape(frame.clone());
                    let item = BufferItem {
                        image,
                        label: prepared.kept_labels[k],
                        confidence: prepared.kept_weights[k],
                    };
                    let mut ctx = SelectionContext {
                        model: &self.model,
                        rng: &mut self.rng,
                    };
                    strategy.offer(buffer, item, &mut ctx);
                }
            }
        }
    }

    /// Phase 3 of segment processing: counters, the `β`-interval model
    /// update, memory accounting, and the report.
    pub fn complete_segment(&mut self, prepared: PreparedSegment) -> SegmentReport {
        // Commit the condensed set to its at-rest storage precision
        // before anything downstream (the β-interval retrain, memory
        // accounting, snapshots) reads it: condense iterations within
        // the segment ran at full f32, everything held between segments
        // is exactly what the compact encoding represents. Shared by
        // the monolithic and phased DECO paths — both finish here — so
        // they stay bitwise identical. No-op at f32.
        if let BufferPolicy::Condensed { buffer, .. } = &mut self.policy {
            buffer.commit_storage();
        }
        self.segments_seen += 1;
        self.items_seen += prepared.segment_len;
        let model_updated = self.segments_seen.is_multiple_of(self.config.beta);
        if model_updated {
            self.train_model_now();
        }

        self.account_memory();

        let report = SegmentReport {
            segment_len: prepared.segment_len,
            kept: prepared.kept,
            pseudo_label_accuracy: prepared.pseudo_label_accuracy,
            active_classes: prepared.active_classes,
            model_updated,
        };
        self.reports.push(report.clone());
        report
    }

    /// Starts a *batched* DECO condensation pass, the phase-level
    /// replacement for [`OnDeviceLearner::condense_prepared`] that lets an
    /// external scheduler dispatch the matching jobs — e.g. merged with
    /// other tenants' jobs in one pool batch. Returns `None` when the
    /// phased path does not apply (policy is not DECO-condensed, nothing
    /// was kept, or no buffer rows are active); the caller then falls back
    /// to [`OnDeviceLearner::condense_prepared`], which reproduces the
    /// monolithic behavior exactly.
    ///
    /// On `Some`, drive the pass with exactly `iterations` rounds of
    /// [`OnDeviceLearner::deco_build_iteration`] → external match →
    /// [`OnDeviceLearner::deco_apply_iteration`], then finish the segment
    /// with [`OnDeviceLearner::complete_segment`]. The build/apply
    /// methods consume learner RNG in the same order as the monolithic
    /// path, so both paths are bitwise identical.
    pub fn deco_begin_segment(&mut self, prepared: &PreparedSegment) -> Option<DecoPhase> {
        if prepared.kept == 0 {
            return None;
        }
        let BufferPolicy::Condensed { condenser, buffer } = &mut self.policy else {
            return None;
        };
        let deco = condenser.as_any_mut()?.downcast_mut::<DecoCondenser>()?;
        let active_rows = deco.begin_segment(buffer, &prepared.active_classes)?;
        Some(DecoPhase {
            iterations: deco.config().iterations,
            active_rows,
        })
    }

    /// Builds one DECO iteration's matching jobs (re-randomizing the
    /// scratch model, consuming RNG exactly like the monolithic loop).
    ///
    /// # Panics
    /// Panics when no DECO phase is active (see
    /// [`OnDeviceLearner::deco_begin_segment`]).
    pub fn deco_build_iteration(&mut self, prepared: &PreparedSegment) -> DecoIterationJobs {
        let BufferPolicy::Condensed { condenser, buffer } = &mut self.policy else {
            panic!("deco_build_iteration without a condensed policy");
        };
        let deco = condenser
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<DecoCondenser>())
            .expect("deco_build_iteration without a DECO condenser");
        let kept_images = prepared
            .kept_images
            .as_ref()
            .expect("deco_build_iteration on an empty segment");
        let data = SegmentData {
            images: kept_images,
            labels: &prepared.kept_labels,
            weights: &prepared.kept_weights,
            active_classes: &prepared.active_classes,
        };
        let mut ctx = CondenseContext {
            scratch: &self.scratch,
            deployed: &self.model,
            rng: &mut self.rng,
        };
        let (rows_list, jobs) = deco.build_iteration(buffer, &data, &mut ctx);
        DecoIterationJobs {
            config: *self.scratch.config(),
            params: self.scratch.get_params(),
            epsilon_scale: deco.config().epsilon_scale,
            rows_list,
            jobs,
        }
    }

    /// Applies one DECO iteration's externally computed match results
    /// (in the job order of [`OnDeviceLearner::deco_build_iteration`]).
    ///
    /// # Panics
    /// Panics when no DECO phase is active or counts mismatch.
    pub fn deco_apply_iteration(
        &mut self,
        phase: &DecoPhase,
        rows_list: &[Vec<usize>],
        results: &[MatchResult],
    ) {
        let BufferPolicy::Condensed { condenser, buffer } = &mut self.policy else {
            panic!("deco_apply_iteration without a condensed policy");
        };
        let deco = condenser
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<DecoCondenser>())
            .expect("deco_apply_iteration without a DECO condenser");
        let mut ctx = CondenseContext {
            scratch: &self.scratch,
            deployed: &self.model,
            rng: &mut self.rng,
        };
        deco.apply_iteration(buffer, &phase.active_rows, rows_list, results, &mut ctx);
    }

    /// Segments processed so far.
    pub fn segments_seen(&self) -> usize {
        self.segments_seen
    }

    /// Captures a [`LearnerSnapshot`] of the condensed-policy state.
    ///
    /// # Panics
    /// Panics for a selection policy: the baselines' strategies carry
    /// private internal state this snapshot cannot round-trip.
    pub fn snapshot(&self) -> LearnerSnapshot {
        let BufferPolicy::Condensed { condenser, buffer } = &self.policy else {
            panic!("snapshot supports condensed policies only");
        };
        let condenser_velocity = condenser
            .as_any()
            .and_then(|a| a.downcast_ref::<DecoCondenser>())
            .map(DecoCondenser::opt_state)
            .unwrap_or_default();
        let (rng_state, rng_spare) = self.rng.state_parts();
        LearnerSnapshot {
            model_params: self.model.get_params(),
            opt_model_velocity: self.opt_model.velocity_snapshot(),
            condenser_velocity,
            buffer_images: buffer.images().clone(),
            buffer_scalar: buffer.scalar_type(),
            buffer_ipc: buffer.ipc(),
            buffer_classes: buffer.num_classes(),
            rng_state,
            rng_spare,
            segments_seen: self.segments_seen,
            items_seen: self.items_seen,
        }
    }

    /// Restores a [`LearnerSnapshot`] in place. The learner must have been
    /// built with the same architecture, buffer geometry, and configs as
    /// the captured one; after restoring, segment processing continues
    /// bit-for-bit where the captured learner stopped. Diagnostics
    /// (reports, memory peaks) restart empty — they never feed back into
    /// the computation.
    ///
    /// # Panics
    /// Panics on architecture or buffer-geometry mismatches, or for a
    /// selection policy.
    pub fn restore(&mut self, snap: &LearnerSnapshot) {
        let BufferPolicy::Condensed { condenser, buffer } = &mut self.policy else {
            panic!("restore supports condensed policies only");
        };
        assert_eq!(buffer.ipc(), snap.buffer_ipc, "buffer IpC mismatch");
        assert_eq!(
            buffer.num_classes(),
            snap.buffer_classes,
            "buffer class-count mismatch"
        );
        self.model.set_params(&snap.model_params);
        buffer.set_images(snap.buffer_images.clone());
        // Snapshotted images are post-commit lattice points of the
        // captured scalar type, so this re-applies it (parameters
        // included) without changing a byte.
        buffer.restore_scalar(snap.buffer_scalar);
        self.opt_model.set_velocity(snap.opt_model_velocity.clone());
        if let Some(deco) = condenser
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<DecoCondenser>())
        {
            deco.restore_opt_state(snap.condenser_velocity.clone());
        }
        self.rng = Rng::from_state_parts(snap.rng_state, snap.rng_spare);
        self.segments_seen = snap.segments_seen;
        self.items_seen = snap.items_seen;
    }

    /// Retrains the deployed model on the current buffer immediately
    /// (normally invoked automatically every `β` segments).
    pub fn train_model_now(&mut self) {
        let _g = deco_telemetry::span!("core.train_model");
        if let Some((images, labels, weights)) = self.policy.training_data() {
            train_classifier(
                &self.model,
                &images,
                &labels,
                weights.as_deref(),
                self.config.model_epochs,
                &mut self.opt_model,
            );
        }
    }

    /// Convenience: test accuracy of the deployed model.
    ///
    /// # Panics
    /// Panics on an empty test set.
    pub fn evaluate(&self, test: &LabeledSet) -> f32 {
        crate::train::accuracy(&self.model, test)
    }

    /// Aggregate pseudo-label statistics over all processed segments:
    /// `(mean retention, mean kept-label accuracy)`.
    pub fn pseudo_label_stats(&self) -> (f32, f32) {
        if self.reports.is_empty() {
            return (0.0, 0.0);
        }
        let retention: f32 = self
            .reports
            .iter()
            .map(|r| r.kept as f32 / r.segment_len.max(1) as f32)
            .sum::<f32>()
            / self.reports.len() as f32;
        let accs: Vec<f32> = self
            .reports
            .iter()
            .filter_map(|r| r.pseudo_label_accuracy)
            .collect();
        let acc = if accs.is_empty() {
            0.0
        } else {
            accs.iter().sum::<f32>() / accs.len() as f32
        };
        (retention, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condenser::DecoCondenser;
    use crate::config::DecoConfig;
    use crate::train::{accuracy, pretrain};
    use deco_datasets::{core50, Stream, StreamConfig, SyntheticVision};
    use deco_nn::ConvNetConfig;
    use deco_replay::BaselineKind;

    fn small_cfg(classes: usize) -> ConvNetConfig {
        ConvNetConfig {
            in_channels: 3,
            image_side: 16,
            width: 8,
            depth: 3,
            num_classes: classes,
            norm: true,
        }
    }

    fn make_learner(policy_kind: &str, rng: &mut Rng) -> (OnDeviceLearner, SyntheticVision) {
        let data = SyntheticVision::new(core50());
        let model = ConvNet::new(small_cfg(10), rng);
        pretrain(&model, &data.pretrain_set(4), 40, 0.02);
        let scratch = ConvNet::new(small_cfg(10), rng);
        let policy = match policy_kind {
            "deco" => BufferPolicy::Condensed {
                condenser: Box::new(DecoCondenser::new(DecoConfig::default().with_iterations(2))),
                buffer: SyntheticBuffer::from_labeled(&data.pretrain_set(4), 1, 10, rng),
            },
            _ => BufferPolicy::Selection {
                strategy: BaselineKind::Fifo.build(),
                buffer: ReplayBuffer::new(10),
            },
        };
        let config = LearnerConfig {
            vote_threshold: 0.4,
            beta: 2,
            model_lr: 5e-3,
            model_epochs: 5,
        };
        (
            OnDeviceLearner::new(model, scratch, policy, config, rng.fork(77)),
            data,
        )
    }

    #[test]
    fn deco_learner_processes_a_stream() {
        let mut rng = Rng::new(1);
        let (mut learner, data) = make_learner("deco", &mut rng);
        let cfg = StreamConfig {
            stc: 30,
            segment_size: 24,
            num_segments: 4,
            seed: 5,
        };
        for segment in Stream::new(&data, cfg) {
            let report = learner.process_segment(&segment);
            assert_eq!(report.segment_len, 24);
        }
        assert_eq!(learner.reports().len(), 4);
        assert_eq!(learner.items_seen(), 96);
        // β = 2 → segments 2 and 4 trigger model updates.
        let updates: Vec<bool> = learner.reports().iter().map(|r| r.model_updated).collect();
        assert_eq!(updates, vec![false, true, false, true]);
    }

    #[test]
    fn selection_learner_fills_buffer() {
        let mut rng = Rng::new(2);
        let (mut learner, data) = make_learner("fifo", &mut rng);
        let cfg = StreamConfig {
            stc: 30,
            segment_size: 24,
            num_segments: 3,
            seed: 6,
        };
        for segment in Stream::new(&data, cfg) {
            learner.process_segment(&segment);
        }
        match learner.policy() {
            BufferPolicy::Selection { buffer, .. } => {
                assert!(!buffer.is_empty(), "buffer stayed empty");
                assert!(buffer.len() <= buffer.capacity());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn voting_filters_most_off_class_predictions() {
        let mut rng = Rng::new(3);
        let (mut learner, data) = make_learner("deco", &mut rng);
        // High STC: each segment is dominated by one class.
        let cfg = StreamConfig {
            stc: 100,
            segment_size: 32,
            num_segments: 3,
            seed: 7,
        };
        for segment in Stream::new(&data, cfg) {
            let report = learner.process_segment(&segment);
            // The number of active classes stays small under high STC.
            assert!(
                report.active_classes.len() <= 2,
                "active {:?}",
                report.active_classes
            );
        }
        let (retention, _) = learner.pseudo_label_stats();
        assert!(retention > 0.0);
    }

    #[test]
    fn evaluate_returns_probability() {
        let mut rng = Rng::new(4);
        let (learner, data) = make_learner("deco", &mut rng);
        let acc = learner.evaluate(&data.test_set(2));
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn phased_deco_path_is_bitwise_identical_to_monolithic() {
        let run = |batched: bool| -> (Vec<u32>, Vec<u32>) {
            let mut rng = Rng::new(11);
            let (mut learner, data) = make_learner("deco", &mut rng);
            let cfg = StreamConfig {
                stc: 30,
                segment_size: 24,
                num_segments: 4,
                seed: 5,
            };
            for segment in Stream::new(&data, cfg) {
                if batched {
                    let prepared = learner.prepare_segment(&segment);
                    if let Some(phase) = learner.deco_begin_segment(&prepared) {
                        for _ in 0..phase.iterations {
                            let built = learner.deco_build_iteration(&prepared);
                            let results = deco_condense::match_classes_parallel(
                                built.config,
                                built.params,
                                built.jobs,
                                built.epsilon_scale,
                            );
                            learner.deco_apply_iteration(&phase, &built.rows_list, &results);
                        }
                    } else {
                        learner.condense_prepared(&prepared);
                    }
                    learner.complete_segment(prepared);
                } else {
                    learner.process_segment(&segment);
                }
            }
            let model: Vec<u32> = learner
                .model()
                .get_params()
                .iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect();
            let buffer: Vec<u32> = match learner.policy() {
                BufferPolicy::Condensed { buffer, .. } => {
                    buffer.images().data().iter().map(|v| v.to_bits()).collect()
                }
                _ => unreachable!(),
            };
            (model, buffer)
        };
        let mono = run(false);
        let phased = run(true);
        assert_eq!(mono.0, phased.0, "model params diverged");
        assert_eq!(mono.1, phased.1, "buffer diverged");
    }

    #[test]
    fn snapshot_restore_continues_bitwise() {
        let cfg = StreamConfig {
            stc: 30,
            segment_size: 24,
            num_segments: 6,
            seed: 9,
        };
        // Reference: process all six segments straight through.
        let mut rng = Rng::new(21);
        let (mut straight, data) = make_learner("deco", &mut rng);
        let segments: Vec<_> = Stream::new(&data, cfg).collect();
        for seg in &segments {
            straight.process_segment(seg);
        }

        // Interrupted: snapshot after three segments, restore into a
        // *fresh* learner built from different RNG draws, continue.
        let mut rng = Rng::new(21);
        let (mut first_half, data2) = make_learner("deco", &mut rng);
        let _ = data2;
        for seg in &segments[..3] {
            first_half.process_segment(seg);
        }
        let snap = first_half.snapshot();
        assert_eq!(snap.segments_seen, 3);
        let mut other_rng = Rng::new(777);
        let (mut resumed, _) = make_learner("deco", &mut other_rng);
        resumed.restore(&snap);
        for seg in &segments[3..] {
            resumed.process_segment(seg);
        }

        let bits = |l: &OnDeviceLearner| -> Vec<u32> {
            l.model()
                .get_params()
                .iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&straight), bits(&resumed), "model diverged");
        match (straight.policy(), resumed.policy()) {
            (
                BufferPolicy::Condensed { buffer: a, .. },
                BufferPolicy::Condensed { buffer: b, .. },
            ) => assert_eq!(a.images().data(), b.images().data(), "buffer diverged"),
            _ => unreachable!(),
        }
        assert_eq!(straight.items_seen(), resumed.items_seen());
    }

    #[test]
    #[should_panic(expected = "buffer IpC mismatch")]
    fn restore_rejects_wrong_geometry() {
        // A snapshot of an IpC-1 learner must not load into an IpC-2 one.
        let mut rng = Rng::new(4);
        let (learner, data) = make_learner("deco", &mut rng);
        let snap = learner.snapshot();
        let policy = BufferPolicy::Condensed {
            condenser: Box::new(DecoCondenser::new(DecoConfig::default())),
            buffer: SyntheticBuffer::from_labeled(&data.pretrain_set(4), 2, 10, &mut rng),
        };
        let mut other = OnDeviceLearner::new(
            ConvNet::new(small_cfg(10), &mut rng),
            ConvNet::new(small_cfg(10), &mut rng),
            policy,
            LearnerConfig::default(),
            rng.fork(1),
        );
        other.restore(&snap);
    }

    #[test]
    fn learning_from_stream_beats_forgetting_baseline() {
        // Sanity: after processing a stream with model updates, accuracy
        // should not collapse to zero.
        let mut rng = Rng::new(5);
        let (mut learner, data) = make_learner("deco", &mut rng);
        let test = data.test_set(3);
        let cfg = StreamConfig {
            stc: 40,
            segment_size: 24,
            num_segments: 6,
            seed: 8,
        };
        for segment in Stream::new(&data, cfg) {
            learner.process_segment(&segment);
        }
        let acc = learner.evaluate(&test);
        assert!(acc > 1.0 / 10.0 * 0.5, "accuracy collapsed: {acc}");
        // The deployed model still matches `accuracy()` on raw calls.
        assert!((accuracy(learner.model(), &test) - acc).abs() < 1e-6);
    }
}
