//! Property tests for `StreamCursor` seek under scenario wrappers: a
//! cursor captured *anywhere* mid-scenario — across ramp boundaries,
//! burst edges, hostile seeds — must reproduce the exact remaining
//! segment sequence on a fresh stream. This is the load-bearing property
//! behind serve-layer evict/rehydrate of scenario tenants.

use deco_datasets::{core50, DatasetSpec, Stream, StreamConfig, SyntheticVision};
use deco_scenarios::{Bursty, ClassIncremental, DomainShift, LabelNoiseRamp, ScenarioConfig};
use proptest::prelude::*;

fn spec_with(classes: usize, seed: u64) -> DatasetSpec {
    DatasetSpec {
        num_classes: classes,
        seed,
        ..core50()
    }
}

fn scenario_by_index(pick: usize) -> ScenarioConfig {
    // Hand-tuned hostile parameters, not the defaults: ramps that start
    // hot, bursts on every other segment, a shift right at the first
    // segment boundary.
    match pick % 5 {
        0 => ScenarioConfig::Baseline,
        1 => ScenarioConfig::ClassIncremental(ClassIncremental { start_frac: 0.1 }),
        2 => ScenarioConfig::Bursty(Bursty {
            every: 2,
            factor: 3,
        }),
        3 => ScenarioConfig::LabelNoiseRamp(LabelNoiseRamp {
            start: 0.3,
            end: 0.9,
        }),
        _ => ScenarioConfig::DomainShift(DomainShift { at: 0.25 }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeking to a cursor captured after `k` segments reproduces the
    /// remaining sequence bitwise, for every scenario kind, at arbitrary
    /// capture points (including burst edges and ramp boundaries — with
    /// `every: 2`, every capture point is adjacent to a burst).
    #[test]
    fn seek_mid_scenario_reproduces_the_remaining_sequence(
        scenario_pick in 0usize..5,
        classes in 2usize..6,
        stc in 2usize..30,
        num_segments in 2usize..7,
        captured_at in 0usize..6,
        seed in 0u64..1000,
    ) {
        let scenario = scenario_by_index(scenario_pick);
        let data = SyntheticVision::new(spec_with(classes, seed ^ 0xA11CE));
        let cfg = StreamConfig { stc, segment_size: 8, num_segments, seed };
        let k = captured_at % num_segments;

        let mut original = Stream::with_scenario(&data, cfg, scenario);
        for _ in 0..k {
            prop_assert!(original.next().is_some());
        }
        let cursor = original.cursor();
        prop_assert_eq!(cursor.emitted, k);

        let mut resumed = Stream::with_scenario(&data, cfg, scenario);
        resumed.seek(&cursor);
        let rest_original: Vec<_> = original.collect();
        let rest_resumed: Vec<_> = resumed.collect();
        prop_assert_eq!(rest_original.len(), num_segments - k);
        for (a, b) in rest_original.iter().zip(&rest_resumed) {
            prop_assert_eq!(&a.true_labels, &b.true_labels);
            let bits_a: Vec<u32> = a.images.data().iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u32> = b.images.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits_a, bits_b);
        }
        prop_assert_eq!(rest_original.len(), rest_resumed.len());
    }

    /// A cursor round-trips even when captured *between* construction and
    /// the first pull, and a seek backward to the origin replays the whole
    /// stream identically.
    #[test]
    fn seek_to_origin_replays_the_whole_stream(
        scenario_pick in 0usize..5,
        stc in 2usize..20,
        seed in 0u64..1000,
    ) {
        let scenario = scenario_by_index(scenario_pick);
        let data = SyntheticVision::new(spec_with(4, seed));
        let cfg = StreamConfig { stc, segment_size: 8, num_segments: 3, seed };

        let mut stream = Stream::with_scenario(&data, cfg, scenario);
        let origin = stream.cursor();
        let first: Vec<_> = stream.by_ref().collect();
        stream.seek(&origin);
        let replay: Vec<_> = stream.collect();
        prop_assert_eq!(first, replay);
    }

    /// Scenario labels always stay inside the dataset's class vocabulary,
    /// whatever the scenario does to the class pool.
    #[test]
    fn scenario_labels_are_valid_classes(
        scenario_pick in 0usize..5,
        classes in 2usize..6,
        stc in 2usize..30,
        seed in 0u64..1000,
    ) {
        let scenario = scenario_by_index(scenario_pick);
        let data = SyntheticVision::new(spec_with(classes, seed));
        let cfg = StreamConfig { stc, segment_size: 8, num_segments: 4, seed };
        for segment in Stream::with_scenario(&data, cfg, scenario) {
            prop_assert!(segment.true_labels.iter().all(|&y| y < classes));
        }
    }
}
