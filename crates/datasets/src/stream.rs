//! The non-i.i.d. input stream generator.
//!
//! Streams are sequences of *runs*: an object instance of one class observed
//! over consecutive frames while its viewpoint sweeps smoothly — exactly the
//! temporal correlation the paper exploits for majority-voting pseudo-label
//! filtering. Run length is governed by the STC (strength of temporal
//! correlation) parameter: the expected number of consecutive same-class
//! items before a class transition.
//!
//! [`Stream`] is the only generator. A [`Scenario`]'s hooks reshape what it
//! emits (segment sizes, the class and environment pools, intruder
//! frames); the [`BaselineScenario`] leaves every hook at its default,
//! which is the paper's benign stream.

use std::ops::Range;

use deco_tensor::{Rng, Tensor};

use crate::dataset::SyntheticVision;

/// One segment `I_t` of the input stream: a stack of unlabeled images plus
/// the (hidden) ground-truth labels used only for evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// `[b, c, h, w]` image stack.
    pub images: Tensor,
    /// Ground truth, for measuring pseudo-label accuracy — the learner
    /// itself never reads these.
    pub true_labels: Vec<usize>,
}

impl Segment {
    /// Number of items in the segment.
    pub fn len(&self) -> usize {
        self.true_labels.len()
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.true_labels.is_empty()
    }
}

/// Stream generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Expected run length of consecutive same-class items
    /// ([`Stream::default_config`] takes the dataset's preset STC).
    pub stc: usize,
    /// Items per segment (`|I_t|`; also the majority-voting window size).
    pub segment_size: usize,
    /// Total segments to emit.
    pub num_segments: usize,
    /// Stream-order seed.
    pub seed: u64,
}

impl StreamConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics if any count is zero.
    pub fn validate(&self) {
        assert!(self.stc > 0, "STC must be positive");
        assert!(self.segment_size > 0, "segment size must be positive");
        assert!(self.num_segments > 0, "need at least one segment");
    }
}

/// A stream scenario: a set of pure hooks that reshape how a [`Stream`]
/// generates segments. Every hook must be a deterministic function of its
/// arguments only — in particular of the segment `index`, never of mutable
/// state — which is what makes every stream seekable through a plain
/// [`StreamCursor`] (see `docs/scenarios.md` for the contract and a
/// checklist for adding a scenario).
pub trait Scenario {
    /// Stable snake_case name used in leaderboard cell keys and telemetry.
    fn name(&self) -> &'static str;

    /// Salt mixed into the stream RNG seed so that a scenario's item
    /// sequence differs from the baseline's even at equal config seeds.
    fn rng_salt(&self) -> u64;

    /// Items in segment `index` (rate spikes return more than
    /// `base.segment_size`).
    fn items_in_segment(&self, base: &StreamConfig, index: usize) -> usize {
        let _ = index;
        base.segment_size
    }

    /// Classes available to *new* runs started inside segment `index`
    /// (a growing prefix under class-incremental arrival). Must be in
    /// `1..=num_classes`.
    fn available_classes(&self, num_classes: usize, index: usize, num_segments: usize) -> usize {
        let _ = (index, num_segments);
        num_classes
    }

    /// The render-environment pool for runs started inside segment
    /// `index`. Must be a non-empty subrange of `0..num_environments`.
    fn environment_range(
        &self,
        num_environments: usize,
        index: usize,
        num_segments: usize,
    ) -> Range<usize> {
        let _ = (index, num_segments);
        0..num_environments
    }

    /// Probability in `[0, 1)` that an item of segment `index` is replaced
    /// by an *intruder* frame of a different class (temporal-correlation
    /// poisoning). Returning exactly `0.0` must mean "no RNG draw", so the
    /// baseline path consumes no extra randomness.
    fn intruder_prob(&self, index: usize, num_segments: usize) -> f32 {
        let _ = (index, num_segments);
        0.0
    }
}

/// The paper's benign stream: every hook at its default and no seed salt.
/// Every class is available from the first segment, the arrival rate is
/// constant, runs are pure and environments are drawn uniformly per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineScenario;

impl Scenario for BaselineScenario {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn rng_salt(&self) -> u64 {
        0
    }
}

/// Serializable snapshot of an in-progress same-class run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunState {
    /// Class of the run.
    pub class: usize,
    /// Object instance within the class.
    pub instance: usize,
    /// Environment the instance is observed in.
    pub environment: usize,
    /// Current viewpoint in `[0, 1)`.
    pub view: f32,
    /// Viewpoint increment per frame.
    pub view_step: f32,
    /// Frames left in the run.
    pub remaining: usize,
}

/// A resumable position in a [`Stream`]: the stream RNG state, the current
/// run (if one is mid-flight), and the number of segments already emitted.
///
/// Captured with [`Stream::cursor`] and restored with [`Stream::seek`] on a
/// stream built over the *same dataset, config and scenario*; the reseeked
/// stream then emits the exact same remaining segments, bit for bit. This
/// is what lets a serving host evict a tenant's session to disk mid-stream
/// and rehydrate it later with no observable difference.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCursor {
    /// Stream RNG state, as [`deco_tensor::Rng::state_parts`].
    pub rng_state: u64,
    /// Cached Box–Muller spare of the stream RNG.
    pub rng_spare: Option<f32>,
    /// The in-flight run, if any.
    pub run: Option<RunState>,
    /// Segments already emitted.
    pub emitted: usize,
}

/// A lazily generated non-i.i.d. stream, yielding [`Segment`]s, under the
/// hooks of scenario `S` (the [`BaselineScenario`] unless given).
///
/// ```
/// use deco_datasets::{core50, Stream, StreamConfig, SyntheticVision};
///
/// let data = SyntheticVision::new(core50());
/// let cfg = StreamConfig { stc: 50, segment_size: 32, num_segments: 4, seed: 1 };
/// let segments: Vec<_> = Stream::new(&data, cfg).collect();
/// assert_eq!(segments.len(), 4);
/// assert_eq!(segments[0].images.shape().dims(), &[32, 3, 16, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Stream<'a, S = BaselineScenario> {
    dataset: &'a SyntheticVision,
    config: StreamConfig,
    scenario: S,
    rng: Rng,
    run: Option<RunState>,
    emitted: usize,
}

impl<'a> Stream<'a> {
    /// Creates a baseline stream over `dataset`.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(dataset: &'a SyntheticVision, config: StreamConfig) -> Self {
        Stream::with_scenario(dataset, config, BaselineScenario)
    }

    /// A config using the dataset's preset STC.
    pub fn default_config(
        dataset: &SyntheticVision,
        num_segments: usize,
        seed: u64,
    ) -> StreamConfig {
        StreamConfig {
            stc: dataset.spec().stc,
            segment_size: 64,
            num_segments,
            seed,
        }
    }
}

impl<'a, S: Scenario> Stream<'a, S> {
    /// Creates a stream over `dataset` whose segments `scenario`'s hooks
    /// reshape.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn with_scenario(dataset: &'a SyntheticVision, config: StreamConfig, scenario: S) -> Self {
        config.validate();
        Stream {
            dataset,
            config,
            rng: Rng::new(
                dataset.spec().seed ^ config.seed.wrapping_mul(0x5DEECE66D) ^ scenario.rng_salt(),
            ),
            scenario,
            run: None,
            emitted: 0,
        }
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Captures the current position as a [`StreamCursor`].
    pub fn cursor(&self) -> StreamCursor {
        let (rng_state, rng_spare) = self.rng.state_parts();
        StreamCursor {
            rng_state,
            rng_spare,
            run: self.run.clone(),
            emitted: self.emitted,
        }
    }

    /// Repositions the stream at a previously captured [`StreamCursor`].
    /// The stream must have been built over the same dataset, config and
    /// scenario as the one the cursor was taken from; subsequent segments
    /// are then bitwise identical to what the original stream would have
    /// produced.
    pub fn seek(&mut self, cursor: &StreamCursor) {
        self.rng = Rng::from_state_parts(cursor.rng_state, cursor.rng_spare);
        self.run = cursor.run.clone();
        self.emitted = cursor.emitted;
    }

    /// Starts a fresh run inside segment `index`, drawing its class from
    /// the scenario's class pool and its environment from the scenario's
    /// environment pool.
    fn fresh_run(&mut self, index: usize) -> RunState {
        let spec = self.dataset.spec();
        let num_segments = self.config.num_segments;
        let classes = self
            .scenario
            .available_classes(spec.num_classes, index, num_segments)
            .clamp(1, spec.num_classes);
        // Avoid immediately repeating the previous class when possible.
        let prev = self.run.as_ref().map(|r| r.class);
        let class = loop {
            let c = self.rng.below(classes);
            if Some(c) != prev || classes == 1 {
                break c;
            }
        };
        // Run length: STC ± 50 % jitter.
        let jitter = self.rng.uniform(0.5, 1.5);
        let length = ((self.config.stc as f32 * jitter) as usize).max(1);
        let view = self.rng.next_f32();
        let envs = self
            .scenario
            .environment_range(spec.num_environments, index, num_segments);
        let envs = if envs.is_empty() {
            0..spec.num_environments
        } else {
            envs
        };
        RunState {
            class,
            instance: self.rng.below(spec.instances_per_class),
            environment: envs.start + self.rng.below(envs.len()),
            view,
            // A full pose sweep over the run.
            view_step: 1.0 / length as f32,
            remaining: length,
        }
    }

    /// Generates the next item of segment `index`, advancing the in-flight
    /// run and possibly substituting an intruder frame.
    fn next_item(&mut self, index: usize) -> (Tensor, usize) {
        if self.run.as_ref().is_none_or(|r| r.remaining == 0) {
            self.run = Some(self.fresh_run(index));
        }
        let (class, instance, environment, view) = {
            let run = self.run.as_mut().expect("run initialized above");
            let out = (run.class, run.instance, run.environment, run.view);
            run.view = (run.view + run.view_step).fract();
            run.remaining -= 1;
            out
        };
        let spec = self.dataset.spec();
        let p = self.scenario.intruder_prob(index, self.config.num_segments);
        let (class, instance, environment, view) =
            if p > 0.0 && self.rng.next_f32() < p && spec.num_classes > 1 {
                // An intruder: one frame of a *different* class spliced into
                // the run, with its own instance/environment/view draw.
                let mut intruder = self.rng.below(spec.num_classes);
                if intruder == class {
                    intruder = (intruder + 1) % spec.num_classes;
                }
                deco_telemetry::counter!("scenario.intruders");
                (
                    intruder,
                    self.rng.below(spec.instances_per_class),
                    self.rng.below(spec.num_environments),
                    self.rng.next_f32(),
                )
            } else {
                (class, instance, environment, view)
            };
        let frame = self
            .dataset
            .render(class, instance, environment, view, &mut self.rng);
        (frame, class)
    }
}

impl<S: Scenario> Iterator for Stream<'_, S> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.emitted >= self.config.num_segments {
            return None;
        }
        let index = self.emitted;
        self.emitted += 1;
        let b = self.scenario.items_in_segment(&self.config, index).max(1);
        deco_telemetry::counter!("scenario.segments");
        deco_telemetry::counter!("scenario.items", b as u64);
        if b > self.config.segment_size {
            deco_telemetry::counter!("scenario.burst_segments");
        }
        let spec = self.dataset.spec();
        let mut data = Vec::with_capacity(b * self.dataset.frame_numel());
        let mut labels = Vec::with_capacity(b);
        for _ in 0..b {
            let (frame, label) = self.next_item(index);
            data.extend_from_slice(frame.data());
            labels.push(label);
        }
        Some(Segment {
            images: Tensor::from_vec(data, [b, spec.channels, spec.image_side, spec.image_side]),
            true_labels: labels,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.config.num_segments - self.emitted;
        (left, Some(left))
    }
}

impl<S: Scenario> ExactSizeIterator for Stream<'_, S> {}

/// Measures the empirical mean run length (consecutive same-class items) of
/// a label sequence — the observable STC.
pub fn empirical_stc(labels: &[usize]) -> f32 {
    if labels.is_empty() {
        return 0.0;
    }
    let mut runs = 1usize;
    for w in labels.windows(2) {
        if w[0] != w[1] {
            runs += 1;
        }
    }
    labels.len() as f32 / runs as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::core50;
    use crate::SyntheticVision;

    fn stream_labels(stc: usize, segments: usize, seed: u64) -> Vec<usize> {
        let data = SyntheticVision::new(core50());
        let cfg = StreamConfig {
            stc,
            segment_size: 32,
            num_segments: segments,
            seed,
        };
        Stream::new(&data, cfg)
            .flat_map(|s| s.true_labels)
            .collect()
    }

    #[test]
    fn stream_emits_exact_segment_count() {
        let data = SyntheticVision::new(core50());
        let cfg = StreamConfig {
            stc: 10,
            segment_size: 16,
            num_segments: 5,
            seed: 0,
        };
        let stream = Stream::new(&data, cfg);
        assert_eq!(stream.len(), 5);
        assert_eq!(stream.count(), 5);
    }

    #[test]
    fn segments_have_requested_shape() {
        let data = SyntheticVision::new(core50());
        let cfg = StreamConfig {
            stc: 10,
            segment_size: 8,
            num_segments: 1,
            seed: 0,
        };
        let seg = Stream::new(&data, cfg).next().unwrap();
        assert_eq!(seg.len(), 8);
        assert_eq!(seg.images.shape().dims(), &[8, 3, 16, 16]);
    }

    #[test]
    fn empirical_stc_tracks_configured_stc() {
        let labels = stream_labels(50, 40, 3);
        let measured = empirical_stc(&labels);
        assert!(
            (measured - 50.0).abs() < 20.0,
            "expected STC near 50, measured {measured}"
        );
    }

    #[test]
    fn higher_stc_means_longer_runs() {
        let low = empirical_stc(&stream_labels(5, 40, 1));
        let high = empirical_stc(&stream_labels(100, 40, 1));
        assert!(high > low * 3.0, "low {low}, high {high}");
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        assert_eq!(stream_labels(20, 4, 9), stream_labels(20, 4, 9));
        assert_ne!(stream_labels(20, 4, 9), stream_labels(20, 4, 10));
    }

    #[test]
    fn stream_visits_many_classes() {
        let labels = stream_labels(10, 40, 5);
        let mut seen: Vec<usize> = labels.clone();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 8, "saw only {} classes", seen.len());
    }

    #[test]
    fn cursor_seek_resumes_bitwise_mid_stream() {
        let data = SyntheticVision::new(core50());
        let cfg = StreamConfig {
            stc: 20,
            segment_size: 16,
            num_segments: 6,
            seed: 12,
        };
        let mut original = Stream::new(&data, cfg);
        // Advance past several run boundaries, then checkpoint.
        let _ = original.next();
        let _ = original.next();
        let cursor = original.cursor();
        let mut resumed = Stream::new(&data, cfg);
        resumed.seek(&cursor);
        for (a, b) in original.zip(resumed) {
            assert_eq!(a.true_labels, b.true_labels);
            assert_eq!(a.images.data(), b.images.data());
        }
    }

    #[test]
    fn cursor_of_fresh_stream_is_the_origin() {
        let data = SyntheticVision::new(core50());
        let cfg = StreamConfig {
            stc: 10,
            segment_size: 8,
            num_segments: 2,
            seed: 3,
        };
        let fresh = Stream::new(&data, cfg);
        let c = fresh.cursor();
        assert_eq!(c.emitted, 0);
        assert!(c.run.is_none());
    }

    #[test]
    fn empirical_stc_edge_cases() {
        assert_eq!(empirical_stc(&[]), 0.0);
        assert_eq!(empirical_stc(&[1, 1, 1, 1]), 4.0);
        assert_eq!(empirical_stc(&[1, 2, 3, 4]), 1.0);
    }

    /// Pins the exact value (down to the bit pattern) on a known mixed
    /// sequence: the scenario leaderboard exports `empirical_stc` per cell
    /// as the stream-difficulty measure, so its definition — total items
    /// over number of runs, runs delimited by label *changes* (a class
    /// recurring later counts as a new run) — must never drift silently.
    #[test]
    fn empirical_stc_pinned_on_known_sequence() {
        // Runs: [7,7,7] [2,2] [7] [5,5,5,5] [2] → 11 items / 5 runs.
        let labels = [7, 7, 7, 2, 2, 7, 5, 5, 5, 5, 2];
        let measured = empirical_stc(&labels);
        assert_eq!(measured, 11.0 / 5.0);
        assert_eq!(measured.to_bits(), 2.2f32.to_bits());
        // A single-item sequence is one run of length one.
        assert_eq!(empirical_stc(&[3]), 1.0);
    }
}
