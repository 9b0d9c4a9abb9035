//! One tenant of the serving host: an on-device learner plus its private
//! stream position, buildable three ways that all land on the same
//! bitwise state — fresh from a [`TenantSpec`], rehydrated from a
//! [`SessionState`], or continued in place.

use deco::{pretrain, BufferPolicy, DecoCondenser, DecoConfig, LearnerConfig, OnDeviceLearner};
use deco_condense::SyntheticBuffer;
use deco_datasets::{DatasetSpec, Segment, Stream, StreamConfig, StreamCursor, SyntheticVision};
use deco_nn::{ConvNet, ConvNetConfig};
use deco_scenarios::ScenarioConfig;
use deco_tensor::Rng;

use crate::session::SessionState;

/// Everything needed to (re)build a tenant deterministically. The spec is
/// the tenant's *identity*: two sessions built from the same spec over the
/// same dataset are bitwise identical, which is what lets rehydration skip
/// the expensive parts of construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Stable tenant id (also the key in the scheduler and spill files).
    pub id: u64,
    /// Root seed of the tenant's private RNG universe.
    pub seed: u64,
    /// Deployed-model architecture.
    pub net: ConvNetConfig,
    /// Condensation hyper-parameters.
    pub deco: DecoConfig,
    /// Driver hyper-parameters.
    pub learner: LearnerConfig,
    /// The tenant's input-stream shape (seed included).
    pub stream: StreamConfig,
    /// The stream scenario the tenant's traffic follows. Part of the spec
    /// (not the persisted session), so the wire format is unchanged: the
    /// cursor of a scenario stream is a plain [`StreamCursor`].
    pub scenario: ScenarioConfig,
    /// Synthetic-buffer images per class.
    pub ipc: usize,
    /// Labeled samples per class for pre-deployment training (0 = none,
    /// buffer starts from noise).
    pub pretrain_samples: usize,
    /// Pre-training steps.
    pub pretrain_steps: usize,
}

impl TenantSpec {
    /// A small, fast tenant over `spec`-shaped data — the configuration
    /// the serve tests, bench, and driver share. Distinct `seed`s give
    /// tenants distinct models, buffers, and streams.
    pub fn quick(id: u64, seed: u64, spec: &DatasetSpec, num_segments: usize) -> TenantSpec {
        TenantSpec {
            id,
            seed,
            net: ConvNetConfig {
                in_channels: spec.channels,
                image_side: spec.image_side,
                width: 4,
                depth: 2,
                num_classes: spec.num_classes,
                norm: true,
            },
            deco: DecoConfig::default().with_iterations(2),
            learner: LearnerConfig {
                vote_threshold: 0.3,
                beta: 2,
                model_lr: 5e-3,
                model_epochs: 4,
            },
            stream: StreamConfig {
                stc: 30,
                segment_size: 16,
                num_segments,
                seed,
            },
            scenario: ScenarioConfig::Baseline,
            ipc: 1,
            pretrain_samples: 2,
            pretrain_steps: 10,
        }
    }

    /// The same tenant under an adversarial stream scenario. The baseline
    /// scenario is bitwise identical to no scenario at all, so existing
    /// specs are unchanged by the field's existence.
    pub fn with_scenario(mut self, scenario: ScenarioConfig) -> TenantSpec {
        self.scenario = scenario;
        self
    }
}

/// A live tenant session: the learner plus the stream cursor. The stream
/// itself is *not* held — it borrows the shared dataset and is rebuilt
/// from the cursor on every pull, so a session is self-contained and
/// trivially evictable.
#[derive(Debug)]
pub struct TenantSession {
    spec: TenantSpec,
    learner: OnDeviceLearner,
    cursor: StreamCursor,
}

impl TenantSession {
    /// Builds a fresh tenant from its spec: seed the RNG, build and
    /// pre-train the model, initialize the buffer from the pre-training
    /// set (or noise), and park the cursor at the stream origin.
    ///
    /// # Panics
    /// Panics on invalid configurations.
    pub fn new(spec: TenantSpec, dataset: &SyntheticVision) -> TenantSession {
        let mut rng = Rng::new(spec.seed);
        let model = ConvNet::new(spec.net, &mut rng);
        let scratch = ConvNet::new(spec.net, &mut rng);
        let buffer = if spec.pretrain_samples > 0 {
            let set = dataset.pretrain_set(spec.pretrain_samples);
            pretrain(&model, &set, spec.pretrain_steps, 1e-2);
            SyntheticBuffer::from_labeled(&set, spec.ipc, spec.net.num_classes, &mut rng)
        } else {
            SyntheticBuffer::new_random(
                spec.ipc,
                spec.net.num_classes,
                [
                    spec.net.in_channels,
                    spec.net.image_side,
                    spec.net.image_side,
                ],
                &mut rng,
            )
        };
        let policy = BufferPolicy::Condensed {
            condenser: Box::new(DecoCondenser::new(spec.deco)),
            buffer,
        };
        let learner = OnDeviceLearner::new(model, scratch, policy, spec.learner, rng.fork(1));
        let cursor = Stream::with_scenario(dataset, spec.stream, spec.scenario).cursor();
        TenantSession {
            spec,
            learner,
            cursor,
        }
    }

    /// Rehydrates a tenant from a persisted [`SessionState`].
    ///
    /// Construction is cheap on purpose: the model and buffer get
    /// placeholder contents (no pre-training, no buffer rendering) because
    /// [`OnDeviceLearner::restore`] overwrites every live value — model
    /// parameters, buffer images, optimizer momenta, RNG, counters. The
    /// scratch net needs no restoring at all: every condenser
    /// re-randomizes it from the learner RNG before use.
    ///
    /// # Panics
    /// Panics when `state` disagrees with `spec` on tenant id or geometry.
    pub fn from_state(
        spec: TenantSpec,
        dataset: &SyntheticVision,
        state: &SessionState,
    ) -> TenantSession {
        assert_eq!(
            spec.id, state.tenant_id,
            "session belongs to another tenant"
        );
        let mut rng = Rng::new(spec.seed);
        let model = ConvNet::new(spec.net, &mut rng);
        let scratch = ConvNet::new(spec.net, &mut rng);
        let buffer = SyntheticBuffer::new_random(
            spec.ipc,
            spec.net.num_classes,
            [
                spec.net.in_channels,
                spec.net.image_side,
                spec.net.image_side,
            ],
            &mut rng,
        );
        let policy = BufferPolicy::Condensed {
            condenser: Box::new(DecoCondenser::new(spec.deco)),
            buffer,
        };
        let mut learner = OnDeviceLearner::new(model, scratch, policy, spec.learner, rng.fork(1));
        state.restore_into(&mut learner);
        let _ = dataset; // geometry is validated by restore's asserts
        TenantSession {
            spec,
            learner,
            cursor: state.cursor.clone(),
        }
    }

    /// The tenant's spec.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The tenant's learner.
    pub fn learner(&self) -> &OnDeviceLearner {
        &self.learner
    }

    /// Mutable access for the scheduler's phased condensation calls.
    pub fn learner_mut(&mut self) -> &mut OnDeviceLearner {
        &mut self.learner
    }

    /// The current stream position.
    pub fn cursor(&self) -> &StreamCursor {
        &self.cursor
    }

    /// Segments this tenant still has left in its stream.
    pub fn segments_remaining(&self) -> usize {
        self.spec
            .stream
            .num_segments
            .saturating_sub(self.cursor.emitted)
    }

    /// Pulls the tenant's next stream segment, advancing the cursor.
    /// Returns `None` when the stream is exhausted.
    ///
    /// The stream is rebuilt from the cursor each call, so interleaving
    /// pulls from many tenants — or an evict/rehydrate between pulls —
    /// cannot change what any tenant sees.
    pub fn next_segment(&mut self, dataset: &SyntheticVision) -> Option<Segment> {
        if self.segments_remaining() == 0 {
            return None;
        }
        let mut stream = Stream::with_scenario(dataset, self.spec.stream, self.spec.scenario);
        stream.seek(&self.cursor);
        let segment = stream.next();
        self.cursor = stream.cursor();
        segment
    }

    /// Captures the tenant's complete persisted state.
    pub fn state(&self) -> SessionState {
        SessionState::capture(self.spec.id, &self.learner, self.cursor.clone())
    }

    /// Estimated resident footprint of this session: model + scratch +
    /// optimizer momenta (≈ 3× the parameter bytes) plus the buffer and
    /// its gradient scratch (≈ 2× the buffer bytes). The scheduler's LRU
    /// budget works on this estimate.
    pub fn resident_bytes(&self) -> u64 {
        let model: u64 = self
            .learner
            .model()
            .params()
            .iter()
            .map(|p| p.tensor().heap_bytes())
            .sum();
        let buffer = match self.learner.policy() {
            BufferPolicy::Condensed { buffer, .. } => buffer.approx_bytes(),
            BufferPolicy::Selection { buffer, .. } => buffer.approx_bytes(),
        };
        3 * model + 2 * buffer
    }
}
