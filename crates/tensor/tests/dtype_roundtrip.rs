//! Property tests for the storage-precision round trips: ulp-derived
//! error bands for the float conversions, lattice exactness for the i8
//! affine quantizer, bit-pinned specials (NaN/±inf/±0/subnormals), and
//! byte-stability of `StoredTensor` across decode/encode cycles.

use deco_tensor::dtype::{
    bf16_to_f32, dequantize_i8, f16_to_f32, f32_to_bf16, f32_to_f16, i8_affine_params, quantize_i8,
    snap_to_dtype, snap_to_scalar,
};
use deco_tensor::{Rng, ScalarType, StorageDtype, StoredTensor, Tensor};
use proptest::prelude::*;

/// bf16 keeps 8 significand bits: round-to-nearest is within half an
/// ulp, 2⁻⁹ relative. The band allows 2× headroom.
const BF16_BAND: f32 = 1.0 / 256.0;
/// f16 keeps 11 significand bits: half-ulp is 2⁻¹¹; band is 2⁻¹⁰.
const F16_BAND: f32 = 1.0 / 1024.0;
/// Smallest f16 normal (2⁻¹⁴): below it the error is measured against
/// this magnitude, since subnormal steps are absolute, not relative.
const F16_MIN_NORMAL: f32 = 6.1035156e-5;

fn sub_f32(idx: usize) -> StorageDtype {
    [StorageDtype::Bf16, StorageDtype::F16, StorageDtype::I8][idx % 3]
}

proptest! {
    // --- ulp-derived bands for the float conversions ---

    #[test]
    fn bf16_roundtrip_error_is_within_the_band(seed in 0u64..2000, exp in -6i32..7) {
        let mut rng = Rng::new(seed);
        let x = rng.normal() * 10f32.powi(exp);
        let y = bf16_to_f32(f32_to_bf16(x));
        let rel = (y - x).abs() / x.abs().max(f32::MIN_POSITIVE);
        prop_assert!(rel <= BF16_BAND, "x={x:e} y={y:e} rel={rel:e}");
        // Idempotent: the round-tripped value is a fixed point.
        prop_assert_eq!(f32_to_bf16(y), f32_to_bf16(x));
    }

    #[test]
    fn f16_roundtrip_error_is_within_the_band(seed in 0u64..2000, exp in -4i32..3) {
        let mut rng = Rng::new(seed);
        let x = rng.normal() * 10f32.powi(exp);
        let y = f16_to_f32(f32_to_f16(x));
        let err = (y - x).abs() / x.abs().max(F16_MIN_NORMAL);
        prop_assert!(err <= F16_BAND, "x={x:e} y={y:e} err={err:e}");
        prop_assert_eq!(f32_to_f16(y), f32_to_f16(x));
    }

    #[test]
    fn bf16_bit_patterns_are_fixed_points(bits in 0u16..=0xFFFF) {
        // Every non-NaN bf16 value widens exactly and narrows back to
        // the identical bits; NaNs stay NaN (payload may quieten).
        let x = bf16_to_f32(bits);
        if x.is_nan() {
            prop_assert!(bf16_to_f32(f32_to_bf16(x)).is_nan());
        } else {
            prop_assert_eq!(f32_to_bf16(x), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn f16_bit_patterns_are_fixed_points(bits in 0u16..=0xFFFF) {
        let exp = (bits >> 10) & 0x1F;
        let x = f16_to_f32(bits);
        if exp == 0x1F && bits & 0x03FF != 0 {
            prop_assert!(f32_to_f16(x) & 0x7C00 == 0x7C00 && f32_to_f16(x) & 0x03FF != 0);
        } else {
            prop_assert_eq!(f32_to_f16(x), bits, "bits {bits:#06x}");
        }
    }

    // --- i8 affine lattice ---

    #[test]
    fn i8_lattice_points_are_exact(scale_m in 1u32..10_000, zero in -128i32..=127) {
        // quantize∘dequantize is the identity on every code, for any
        // parameters: lattice points carry no quantization error.
        let scale = scale_m as f32 * 1e-4;
        let zero = zero as i8;
        for q in i8::MIN..=i8::MAX {
            let x = dequantize_i8(q, scale, zero);
            prop_assert_eq!(quantize_i8(x, scale, zero), q, "code {q}");
        }
    }

    #[test]
    fn i8_derived_params_bound_the_error_by_half_a_step(seed in 0u64..2000, n in 2usize..64) {
        let mut rng = Rng::new(seed);
        let spread = rng.uniform(0.05, 8.0);
        let vals: Vec<f32> = (0..n).map(|_| rng.normal() * spread).collect();
        let (scale, zero) = i8_affine_params(&vals);
        prop_assert!(scale > 0.0 && scale.is_finite());
        // Zero round-trips exactly — the affine zero point is a code.
        prop_assert_eq!(dequantize_i8(quantize_i8(0.0, scale, zero), scale, zero), 0.0);
        for &v in &vals {
            let y = dequantize_i8(quantize_i8(v, scale, zero), scale, zero);
            // Half a step, plus headroom for f32 division rounding.
            prop_assert!((y - v).abs() <= 0.75 * scale, "v={v:e} y={y:e} scale={scale:e}");
        }
    }

    // --- StoredTensor round trips ---

    #[test]
    fn decode_encode_is_idempotent(
        dims in prop::collection::vec(1usize..=5, 1..=3),
        seed in 0u64..1000,
        which in 0usize..3,
    ) {
        let mut rng = Rng::new(seed);
        let t = Tensor::randn(dims, &mut rng);
        let dtype = sub_f32(which);
        let once = StoredTensor::encode(&t, dtype).decode();
        let twice = StoredTensor::encode(&once, dtype).decode();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&twice), bits(&once), "{}", dtype);
        // snap_to_dtype is decode∘encode in one pass, bitwise.
        prop_assert_eq!(bits(&snap_to_dtype(&t, dtype)), bits(&once), "{}", dtype);
    }

    #[test]
    fn encode_with_is_byte_stable_over_cycles(
        dims in prop::collection::vec(1usize..=5, 1..=3),
        seed in 0u64..1000,
        which in 0usize..4,
    ) {
        let mut rng = Rng::new(seed);
        let t = Tensor::randn(dims, &mut rng);
        let dtype = StorageDtype::ALL[which];
        let first = StoredTensor::encode(&t, dtype);
        let scalar = first.scalar_type();
        let mut cur = first.decode();
        for round in 0..3 {
            // Re-encoding through the carried scalar reproduces the
            // identical payload — the invariant serialized sessions
            // rely on for byte-stable save/load cycles.
            let re = StoredTensor::encode_with(&cur, scalar);
            prop_assert_eq!(re.raw_u16(), first.raw_u16(), "{} round {round}", dtype);
            prop_assert_eq!(
                re.raw_i8().map(|(d, s, z)| (d.to_vec(), s.to_bits(), z)),
                first.raw_i8().map(|(d, s, z)| (d.to_vec(), s.to_bits(), z)),
                "{} round {round}", dtype
            );
            // …and snapping lattice data through the scalar is a no-op.
            let snapped = snap_to_scalar(&cur, scalar);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&snapped), bits(&cur));
            cur = re.decode();
        }
    }

    #[test]
    fn f32_storage_is_bitwise_untouched(
        dims in prop::collection::vec(1usize..=6, 1..=3),
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let t = Tensor::randn(dims, &mut rng);
        let s = StoredTensor::encode(&t, StorageDtype::F32);
        // Zero-copy: the same buffer, identical bits.
        let inner = s.as_f32().expect("f32 wraps the tensor");
        prop_assert!(std::ptr::eq(inner.data().as_ptr(), t.data().as_ptr()));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&s.decode()), bits(&t));
    }
}

// --- pinned specials: deterministic, bit-exact expectations ---

#[test]
fn bf16_specials_are_pinned_bit_exactly() {
    assert_eq!(f32_to_bf16(0.0), 0x0000);
    assert_eq!(f32_to_bf16(-0.0), 0x8000);
    assert_eq!(f32_to_bf16(f32::INFINITY), 0x7F80);
    assert_eq!(f32_to_bf16(f32::NEG_INFINITY), 0xFF80);
    let nan = f32_to_bf16(f32::NAN);
    assert!(bf16_to_f32(nan).is_nan(), "NaN stays NaN");
    assert_ne!(nan & 0x007F, 0, "NaN never collapses to an infinity");
    // f32 subnormals share bf16's exponent range: they narrow to bf16
    // subnormals (or ±0) and never produce garbage exponents.
    let sub = f32::from_bits(0x0000_0001); // smallest positive subnormal
    let narrowed = bf16_to_f32(f32_to_bf16(sub));
    assert!(narrowed == 0.0 || narrowed.is_sign_positive() && narrowed < 1e-37);
}

#[test]
fn f16_specials_are_pinned_bit_exactly() {
    assert_eq!(f32_to_f16(0.0), 0x0000);
    assert_eq!(f32_to_f16(-0.0), 0x8000);
    assert_eq!(f32_to_f16(f32::INFINITY), 0x7C00);
    assert_eq!(f32_to_f16(f32::NEG_INFINITY), 0xFC00);
    assert_eq!(f32_to_f16(65520.0), 0x7C00, "overflow saturates to +inf");
    assert_eq!(f32_to_f16(-65520.0), 0xFC00, "overflow saturates to -inf");
    let nan = f32_to_f16(f32::NAN);
    assert_eq!(nan & 0x7C00, 0x7C00);
    assert_ne!(nan & 0x03FF, 0, "quiet bit keeps NaN a NaN");
    // The f16 subnormal range narrows with correct rounding: the
    // smallest subnormal (2⁻²⁴) is representable exactly…
    assert_eq!(f32_to_f16(5.9604645e-8), 0x0001);
    // …half of it ties to even (±0)…
    assert_eq!(f32_to_f16(2.9802322e-8), 0x0000);
    // …and anything below a quarter of it underflows to signed zero.
    assert_eq!(f32_to_f16(1e-9), 0x0000);
    assert_eq!(f32_to_f16(-1e-9), 0x8000);
}

#[test]
fn i8_specials_are_pinned() {
    assert_eq!(quantize_i8(f32::NAN, 0.1, 3), 0, "NaN quantizes to 0");
    assert_eq!(quantize_i8(f32::INFINITY, 0.1, 3), 127);
    assert_eq!(quantize_i8(f32::NEG_INFINITY, 0.1, 3), -128);
    // Saturation at the code range, not wrap-around.
    assert_eq!(quantize_i8(1e20, 0.1, 0), 127);
    assert_eq!(quantize_i8(-1e20, 0.1, 0), -128);
    // Degenerate all-equal input falls back to identity parameters.
    assert_eq!(i8_affine_params(&[2.5; 8][..0]), (1.0, 0));
    assert_eq!(i8_affine_params(&[0.0, 0.0, 0.0]), (1.0, 0));
}

#[test]
fn snap_to_scalar_handles_identity_i8_params() {
    // Buffers start from `ScalarType::identity_for(I8)` before their
    // first commit: the integer lattice, exact on small integers.
    let t = Tensor::from_vec(vec![1.0, -2.0, 3.4, 0.0], [4]);
    let snapped = snap_to_scalar(&t, ScalarType::identity_for(StorageDtype::I8));
    assert_eq!(snapped.data(), &[1.0, -2.0, 3.0, 0.0]);
}
