//! Adversarial stream scenarios.
//!
//! The paper's streams are benign: every class is available from the first
//! segment, arrival rate is constant, runs are pure, and the acquisition
//! environment is drawn uniformly per run. A fleet serving millions of
//! heterogeneous users sees none of those luxuries. This module supplies
//! the [`Scenario`] hooks that turn the one stream generator of
//! `deco-datasets`, [`Stream`], into *hostile* workloads:
//!
//! * [`ClassIncremental`] — new classes appear mid-stream, exercising the
//!   condensed buffer's class-allocation path;
//! * [`Bursty`] — periodic rate spikes (oversized segments) that stress the
//!   serve scheduler's queue and LRU eviction under `DECO_SERVE_MEM_BYTES`;
//! * [`LabelNoiseRamp`] — a time-varying fraction of *intruder* frames
//!   breaks the temporal-correlation assumption majority voting relies on;
//! * [`DomainShift`] — an abrupt mid-stream shift of the render-environment
//!   pool.
//!
//! # Determinism contract
//!
//! A [`ScenarioStream`] is a [`Stream`] and so a pure function of
//! `(dataset, StreamConfig, ScenarioConfig)`. Every scenario decision —
//! burst placement, the class pool, the intruder probability, the
//! environment pool — depends only on the *segment index* and the config,
//! never on wall-clock, thread count or scheduling. Every scenario, the
//! baseline included, runs the same generator with the same
//! [`StreamCursor`](deco_datasets::StreamCursor), so a tenant can be
//! evicted to disk mid-scenario and rehydrated bitwise through the
//! unchanged serve-layer session format.

use std::ops::Range;

use deco_datasets::{BaselineScenario, Scenario, Stream, StreamConfig};

/// Position of segment `index` within a stream of `num_segments`, in
/// `[0, 1]` (0 for a single-segment stream).
fn progress(index: usize, num_segments: usize) -> f32 {
    if num_segments <= 1 {
        0.0
    } else {
        index as f32 / (num_segments - 1) as f32
    }
}

/// New classes appear over the stream: runs started in segment `index` draw
/// from a class-prefix that grows linearly from `start_frac` of the classes
/// to all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassIncremental {
    /// Fraction of the classes available at stream start (clamped so at
    /// least one class is always available).
    pub start_frac: f32,
}

impl Default for ClassIncremental {
    fn default() -> Self {
        ClassIncremental { start_frac: 0.3 }
    }
}

impl Scenario for ClassIncremental {
    fn name(&self) -> &'static str {
        "class_incremental"
    }

    fn rng_salt(&self) -> u64 {
        0xC1A5_51C0
    }

    fn available_classes(&self, num_classes: usize, index: usize, num_segments: usize) -> usize {
        let t = progress(index, num_segments);
        let frac = self.start_frac + (1.0 - self.start_frac) * t;
        (((num_classes as f32) * frac).ceil() as usize).clamp(1, num_classes)
    }
}

/// Periodic arrival-rate spikes: every `every`-th segment carries
/// `factor ×` the base item count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bursty {
    /// Burst period in segments (the last segment of each period bursts).
    pub every: usize,
    /// Item multiplier during a burst segment.
    pub factor: usize,
}

impl Default for Bursty {
    fn default() -> Self {
        Bursty {
            every: 3,
            factor: 4,
        }
    }
}

impl Bursty {
    /// Whether segment `index` is a burst segment.
    pub fn is_burst(&self, index: usize) -> bool {
        self.every > 0 && (index + 1).is_multiple_of(self.every)
    }
}

impl Scenario for Bursty {
    fn name(&self) -> &'static str {
        "bursty"
    }

    fn rng_salt(&self) -> u64 {
        0xB0B5_7321
    }

    fn items_in_segment(&self, base: &StreamConfig, index: usize) -> usize {
        if self.is_burst(index) {
            base.segment_size * self.factor.max(1)
        } else {
            base.segment_size
        }
    }
}

/// Temporal-correlation poisoning that worsens over the stream: each item
/// is replaced by an intruder frame of another class with a probability
/// ramping linearly from `start` to `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelNoiseRamp {
    /// Intruder probability at the first segment.
    pub start: f32,
    /// Intruder probability at the last segment.
    pub end: f32,
}

impl Default for LabelNoiseRamp {
    fn default() -> Self {
        LabelNoiseRamp {
            start: 0.0,
            end: 0.5,
        }
    }
}

impl Scenario for LabelNoiseRamp {
    fn name(&self) -> &'static str {
        "label_noise_ramp"
    }

    fn rng_salt(&self) -> u64 {
        0x4015_E4A8
    }

    fn intruder_prob(&self, index: usize, num_segments: usize) -> f32 {
        let t = progress(index, num_segments);
        (self.start + (self.end - self.start) * t).clamp(0.0, 0.999)
    }
}

/// An abrupt mid-stream environment shift: runs started before the shift
/// point draw environments from the first half of the pool, runs started
/// after draw from the second half.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainShift {
    /// Stream fraction in `[0, 1]` at which the shift happens.
    pub at: f32,
}

impl Default for DomainShift {
    fn default() -> Self {
        DomainShift { at: 0.5 }
    }
}

impl Scenario for DomainShift {
    fn name(&self) -> &'static str {
        "domain_shift"
    }

    fn rng_salt(&self) -> u64 {
        0xD0AA_5417
    }

    fn environment_range(
        &self,
        num_environments: usize,
        index: usize,
        num_segments: usize,
    ) -> Range<usize> {
        if num_environments <= 1 {
            return 0..num_environments;
        }
        let mid = (num_environments / 2).max(1);
        if progress(index, num_segments) >= self.at {
            mid..num_environments
        } else {
            0..mid
        }
    }
}

/// The serializable identity of a scenario: which generator, with which
/// parameters. `Copy + PartialEq` so it can live inside a
/// `deco-serve` `TenantSpec` and survive evict/rehydrate comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioConfig {
    /// The paper's benign stream: the [`BaselineScenario`] hooks, so a
    /// baseline scenario stream is [`Stream::new`]'s stream.
    Baseline,
    /// Class-incremental arrival.
    ClassIncremental(ClassIncremental),
    /// Bursty traffic.
    Bursty(Bursty),
    /// Ramping label noise.
    LabelNoiseRamp(LabelNoiseRamp),
    /// Mid-stream domain shift.
    DomainShift(DomainShift),
}

impl ScenarioConfig {
    /// The four adversarial scenarios with default parameters, in
    /// leaderboard order.
    pub fn adversarial() -> [ScenarioConfig; 4] {
        [
            ScenarioConfig::ClassIncremental(ClassIncremental::default()),
            ScenarioConfig::Bursty(Bursty::default()),
            ScenarioConfig::LabelNoiseRamp(LabelNoiseRamp::default()),
            ScenarioConfig::DomainShift(DomainShift::default()),
        ]
    }

    /// All five scenarios (baseline first).
    pub fn all() -> [ScenarioConfig; 5] {
        let [a, b, c, d] = Self::adversarial();
        [ScenarioConfig::Baseline, a, b, c, d]
    }

    /// The scenario's hook implementation.
    fn hooks(&self) -> &dyn Scenario {
        match self {
            ScenarioConfig::Baseline => &BaselineScenario,
            ScenarioConfig::ClassIncremental(s) => s,
            ScenarioConfig::Bursty(s) => s,
            ScenarioConfig::LabelNoiseRamp(s) => s,
            ScenarioConfig::DomainShift(s) => s,
        }
    }

    /// Stable snake_case name (leaderboard keys, telemetry, CLI).
    pub fn name(&self) -> &'static str {
        self.hooks().name()
    }

    /// Parses a scenario name (default parameters). Accepts `-` or `_`
    /// separators; returns `None` for unknown names.
    pub fn parse(s: &str) -> Option<ScenarioConfig> {
        match s.to_ascii_lowercase().replace('-', "_").as_str() {
            "baseline" => Some(ScenarioConfig::Baseline),
            "class_incremental" => {
                Some(ScenarioConfig::ClassIncremental(ClassIncremental::default()))
            }
            "bursty" => Some(ScenarioConfig::Bursty(Bursty::default())),
            "label_noise_ramp" | "label_noise" => {
                Some(ScenarioConfig::LabelNoiseRamp(LabelNoiseRamp::default()))
            }
            "domain_shift" => Some(ScenarioConfig::DomainShift(DomainShift::default())),
            _ => None,
        }
    }
}

impl std::fmt::Display for ScenarioConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Scenario for ScenarioConfig {
    fn name(&self) -> &'static str {
        self.hooks().name()
    }

    fn rng_salt(&self) -> u64 {
        self.hooks().rng_salt()
    }

    fn items_in_segment(&self, base: &StreamConfig, index: usize) -> usize {
        self.hooks().items_in_segment(base, index)
    }

    fn available_classes(&self, num_classes: usize, index: usize, num_segments: usize) -> usize {
        self.hooks()
            .available_classes(num_classes, index, num_segments)
    }

    fn environment_range(
        &self,
        num_environments: usize,
        index: usize,
        num_segments: usize,
    ) -> Range<usize> {
        self.hooks()
            .environment_range(num_environments, index, num_segments)
    }

    fn intruder_prob(&self, index: usize, num_segments: usize) -> f32 {
        self.hooks().intruder_prob(index, num_segments)
    }
}

/// A stream under one of the five scenarios: the one [`Stream`] generator
/// with a [`ScenarioConfig`]'s hooks.
///
/// ```
/// use deco_datasets::{core50, Stream, StreamConfig, SyntheticVision};
/// use deco_scenarios::{ScenarioConfig, ScenarioStream};
///
/// let data = SyntheticVision::new(core50());
/// let cfg = StreamConfig { stc: 20, segment_size: 16, num_segments: 4, seed: 1 };
/// let scenario = ScenarioConfig::parse("class-incremental").unwrap();
/// let stream: ScenarioStream = Stream::with_scenario(&data, cfg, scenario);
/// assert_eq!(stream.count(), 4);
/// ```
pub type ScenarioStream<'a> = Stream<'a, ScenarioConfig>;

#[cfg(test)]
mod tests {
    use super::*;
    use deco_datasets::{core50, empirical_stc, Segment, SyntheticVision};

    fn dataset() -> SyntheticVision {
        SyntheticVision::new(core50())
    }

    fn cfg(num_segments: usize, seed: u64) -> StreamConfig {
        StreamConfig {
            stc: 10,
            segment_size: 16,
            num_segments,
            seed,
        }
    }

    fn labels_of(segments: &[Segment]) -> Vec<usize> {
        segments
            .iter()
            .flat_map(|s| s.true_labels.clone())
            .collect()
    }

    #[test]
    fn every_scenario_is_deterministic_per_seed() {
        let data = dataset();
        for scenario in ScenarioConfig::all() {
            let a: Vec<Segment> = Stream::with_scenario(&data, cfg(5, 3), scenario).collect();
            let b: Vec<Segment> = Stream::with_scenario(&data, cfg(5, 3), scenario).collect();
            assert_eq!(a, b, "{scenario} not deterministic");
            let c: Vec<Segment> = Stream::with_scenario(&data, cfg(5, 4), scenario).collect();
            assert_ne!(labels_of(&a), labels_of(&c), "{scenario} ignores the seed");
        }
    }

    #[test]
    fn class_incremental_grows_the_class_pool() {
        let data = dataset();
        let scenario = ScenarioConfig::ClassIncremental(ClassIncremental { start_frac: 0.3 });
        let segs: Vec<Segment> = Stream::with_scenario(&data, cfg(10, 5), scenario).collect();
        // Early segments: only the initial prefix (3 of 10 classes, plus
        // the tail of runs — none here since runs start fresh).
        let early_max = segs[0].true_labels.iter().copied().max().unwrap();
        assert!(early_max < 3, "segment 0 leaked class {early_max}");
        // Over the whole stream, later classes must appear.
        let all = labels_of(&segs);
        let global_max = all.iter().copied().max().unwrap();
        assert!(global_max >= 7, "classes never grew past {global_max}");
    }

    #[test]
    fn bursty_segments_carry_factor_times_the_items() {
        let data = dataset();
        let burst = Bursty {
            every: 3,
            factor: 4,
        };
        let scenario = ScenarioConfig::Bursty(burst);
        let segs: Vec<Segment> = Stream::with_scenario(&data, cfg(6, 2), scenario).collect();
        for (i, seg) in segs.iter().enumerate() {
            let expect = if burst.is_burst(i) { 64 } else { 16 };
            assert_eq!(seg.len(), expect, "segment {i}");
            assert_eq!(seg.images.shape().dims()[0], expect);
        }
    }

    #[test]
    fn label_noise_ramp_destroys_temporal_correlation_late() {
        let data = dataset();
        let scenario = ScenarioConfig::LabelNoiseRamp(LabelNoiseRamp {
            start: 0.0,
            end: 0.6,
        });
        let c = StreamConfig {
            stc: 20,
            segment_size: 64,
            num_segments: 8,
            seed: 7,
        };
        let segs: Vec<Segment> = Stream::with_scenario(&data, c, scenario).collect();
        let early = empirical_stc(&labels_of(&segs[..2]));
        let late = empirical_stc(&labels_of(&segs[6..]));
        assert!(
            late < early * 0.5,
            "intruders should shorten runs: early STC {early}, late STC {late}"
        );
    }

    #[test]
    fn domain_shift_changes_environment_statistics() {
        let data = dataset();
        let scenario = ScenarioConfig::DomainShift(DomainShift { at: 0.5 });
        let c = StreamConfig {
            stc: 8,
            segment_size: 64,
            num_segments: 8,
            seed: 3,
        };
        let segs: Vec<Segment> = Stream::with_scenario(&data, c, scenario).collect();
        // Compare mean class-0 frames before and after the shift.
        let frame = data.frame_numel();
        let class_mean = |seg: &Segment| -> Option<f32> {
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for (i, &y) in seg.true_labels.iter().enumerate() {
                if y == 0 {
                    let row = &seg.images.data()[i * frame..(i + 1) * frame];
                    sum += row.iter().map(|&v| v as f64).sum::<f64>();
                    n += frame;
                }
            }
            (n > 0).then(|| (sum / n as f64) as f32)
        };
        let pre = segs[..3].iter().filter_map(class_mean).next();
        let post = segs[5..].iter().filter_map(class_mean).next();
        if let (Some(a), Some(b)) = (pre, post) {
            assert!((a - b).abs() > 1e-4, "no measurable shift: {a} vs {b}");
        }
    }

    #[test]
    fn cursor_seek_resumes_bitwise_for_every_scenario() {
        let data = dataset();
        for scenario in ScenarioConfig::all() {
            let c = cfg(6, 11);
            let mut original = Stream::with_scenario(&data, c, scenario);
            let _ = original.next();
            let _ = original.next();
            let cursor = original.cursor();
            let mut resumed = Stream::with_scenario(&data, c, scenario);
            resumed.seek(&cursor);
            for (a, b) in original.zip(resumed) {
                assert_eq!(a.true_labels, b.true_labels, "{scenario}");
                assert_eq!(a.images.data(), b.images.data(), "{scenario}");
            }
        }
    }

    #[test]
    fn scenario_names_parse_roundtrip() {
        for scenario in ScenarioConfig::all() {
            assert_eq!(ScenarioConfig::parse(scenario.name()), Some(scenario));
        }
        assert_eq!(
            ScenarioConfig::parse("class-incremental"),
            ScenarioConfig::parse("class_incremental")
        );
        assert_eq!(ScenarioConfig::parse("galactic"), None);
    }

    #[test]
    fn scenario_streams_are_exact_size_iterators() {
        let data = dataset();
        for scenario in ScenarioConfig::all() {
            let mut s = Stream::with_scenario(&data, cfg(3, 1), scenario);
            assert_eq!(s.len(), 3);
            let _ = s.next();
            assert_eq!(s.len(), 2);
            assert_eq!(s.count(), 2);
        }
    }

    #[test]
    fn available_classes_is_monotone_and_bounded() {
        let ci = ClassIncremental { start_frac: 0.3 };
        let mut prev = 0;
        for i in 0..12 {
            let a = ci.available_classes(10, i, 12);
            assert!((1..=10).contains(&a));
            assert!(a >= prev, "class pool shrank at segment {i}");
            prev = a;
        }
        assert_eq!(ci.available_classes(10, 11, 12), 10);
    }
}
