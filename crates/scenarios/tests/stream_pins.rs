//! Pins the exact bits every scenario stream emits: labels, image bits and
//! the final cursor, hashed per (scenario, seed). Six segments put a
//! `bursty` burst at segments 2 and 5 and the `domain_shift` midpoint at
//! segment 3, so every hook is exercised. A change to the stream generator
//! that moves any of these constants changes what every method, the
//! leaderboard and the serve fleet see.

use deco_datasets::{core50, Segment, Stream, StreamConfig, StreamCursor, SyntheticVision};
use deco_scenarios::ScenarioConfig;

/// 64-bit FNV-1a, folded into a running hash.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn digest(segments: &[Segment], end: &StreamCursor) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for segment in segments {
        h = fnv1a(h, &(segment.len() as u64).to_le_bytes());
        for &y in &segment.true_labels {
            h = fnv1a(h, &(y as u64).to_le_bytes());
        }
        for &v in segment.images.data() {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }
    h = fnv1a(h, &end.rng_state.to_le_bytes());
    fnv1a(h, &(end.emitted as u64).to_le_bytes())
}

fn cfg(seed: u64) -> StreamConfig {
    StreamConfig {
        stc: 10,
        segment_size: 16,
        num_segments: 6,
        seed,
    }
}

#[test]
fn every_scenario_stream_keeps_its_pinned_bits() {
    // (scenario, seed, digest).
    const PINS: [(&str, u64, u64); 10] = [
        ("baseline", 9, 0x6F32_3113_F3EE_B54A),
        ("baseline", 21, 0xB6A4_BFD6_6C38_F72F),
        ("class_incremental", 9, 0x0C17_8D37_AC27_36EB),
        ("class_incremental", 21, 0xCC15_EEC2_D634_7DA7),
        ("bursty", 9, 0xB35C_86CA_1A97_6E3D),
        ("bursty", 21, 0xB9F0_72CC_ACD1_EC08),
        ("label_noise_ramp", 9, 0xDCD1_F08E_C349_CDDC),
        ("label_noise_ramp", 21, 0x0A43_7A27_5D19_84F7),
        ("domain_shift", 9, 0xEDC1_424F_AD09_965A),
        ("domain_shift", 21, 0x21F6_FB60_927C_DEAC),
    ];
    let data = SyntheticVision::new(core50());
    let mut cases = Vec::new();
    for scenario in ScenarioConfig::all() {
        for seed in [9, 21] {
            let mut stream = Stream::with_scenario(&data, cfg(seed), scenario);
            let segments: Vec<Segment> = stream.by_ref().collect();
            assert_eq!(segments.len(), 6);
            cases.push((scenario.name(), seed, digest(&segments, &stream.cursor())));
        }
    }
    assert_eq!(cases, PINS, "stream bits moved; got {cases:#x?}");
    // The plain stream is the baseline scenario.
    for (seed, pin) in [(9, PINS[0].2), (21, PINS[1].2)] {
        let mut stream = Stream::new(&data, cfg(seed));
        let segments: Vec<Segment> = stream.by_ref().collect();
        assert_eq!(
            digest(&segments, &stream.cursor()),
            pin,
            "plain stream, seed {seed}"
        );
    }
}
