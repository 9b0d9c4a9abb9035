//! Sub-f32 *storage* precision: bf16 / i8 representations for tensors
//! held at rest, with all compute staying in f32.
//!
//! The paper's pitch is on-device **memory**: what the device must keep
//! resident between stream segments (the condensed synthetic set, the
//! replay buffer, serialized session checkpoints). This module provides
//! the storage side of that split:
//!
//! * [`StorageDtype`] — the parameter-free dtype axis (`f32`, `bf16`,
//!   `i8`) used for CLI flags and the wire format's dtype tag;
//! * [`ScalarType`] — the fully-parameterized element type, carrying the
//!   affine quantization parameters for `I8`;
//! * [`StoredTensor`] — a tensor encoded at a storage dtype. The `F32`
//!   variant wraps the [`Tensor`] itself (encode/decode are O(1) `Arc`
//!   clones — the default path is bitwise untouched), the sub-f32
//!   variants own compact element buffers;
//! * the conversion primitives (`f32_to_bf16`, the i8 affine quantizer)
//!   with IEEE round-to-nearest-even semantics and pinned
//!   NaN/±inf/subnormal behavior.
//!
//! ## Storage-vs-compute contract
//!
//! Conversion happens only at load/store boundaries. Every kernel,
//! every autograd node, and every accumulation runs in f32 on *decoded*
//! values. Widening to f32 is exact, and a committed value round-trips
//! bit-stably forever after: for bf16 re-encoding a widened value
//! reproduces the same bits, so decode∘encode is idempotent. For i8 it
//! is not — [`StoredTensor::encode`] re-derives the affine parameters,
//! and on lattice data they need not come back — so byte-stability goes
//! through [`StoredTensor::encode_with`] and the committed
//! [`ScalarType`]. Results therefore stay bitwise identical at any
//! `DECO_THREADS` setting for every dtype — the precision loss is a
//! deterministic function of the stored values, never of the schedule.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// The parameter-free storage-precision axis: which element encoding a
/// buffer at rest uses. This is the type CLI flags (`--storage-dtype`)
/// and the wire format's dtype tag carry; the
/// quantization *parameters* for `I8` live in [`ScalarType`] /
/// [`StoredTensor`], derived per tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageDtype {
    /// IEEE 754 binary32 — the compute type; storage is lossless.
    #[default]
    F32,
    /// bfloat16: f32's exponent range, 8-bit significand.
    Bf16,
    /// Affine-quantized 8-bit integers with per-tensor `scale`/`zero`.
    I8,
}

impl StorageDtype {
    /// Every supported dtype, in wire-tag order.
    pub const ALL: [StorageDtype; 3] = [StorageDtype::F32, StorageDtype::Bf16, StorageDtype::I8];

    /// Parses `"f32"` / `"bf16"` / `"i8"` (CLI axis).
    pub fn parse(s: &str) -> Option<StorageDtype> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(StorageDtype::F32),
            "bf16" => Some(StorageDtype::Bf16),
            "i8" => Some(StorageDtype::I8),
            _ => None,
        }
    }

    /// Display/key name (`"f32"`, `"bf16"`, `"i8"`).
    pub fn label(self) -> &'static str {
        match self {
            StorageDtype::F32 => "f32",
            StorageDtype::Bf16 => "bf16",
            StorageDtype::I8 => "i8",
        }
    }

    /// Bytes one stored element occupies.
    pub fn bytes_per_element(self) -> usize {
        match self {
            StorageDtype::F32 => 4,
            StorageDtype::Bf16 => 2,
            StorageDtype::I8 => 1,
        }
    }

    /// The stable wire tag. Tag 2 belonged to the retired f16 dtype and
    /// is never reissued.
    pub fn tag_byte(self) -> u8 {
        match self {
            StorageDtype::F32 => 0,
            StorageDtype::Bf16 => 1,
            StorageDtype::I8 => 3,
        }
    }

    /// Inverse of [`StorageDtype::tag_byte`]; `None` for unknown tags
    /// (hostile or future payloads, and the retired tag 2).
    pub fn from_tag_byte(tag: u8) -> Option<StorageDtype> {
        match tag {
            0 => Some(StorageDtype::F32),
            1 => Some(StorageDtype::Bf16),
            3 => Some(StorageDtype::I8),
            _ => None,
        }
    }
}

impl std::fmt::Display for StorageDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully-parameterized element type: the dtype plus, for `I8`, the
/// per-tensor affine quantization parameters
/// (`value = (q - zero) * scale`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarType {
    /// IEEE 754 binary32.
    F32,
    /// bfloat16.
    Bf16,
    /// Affine-quantized i8.
    I8 {
        /// Step between adjacent lattice points.
        scale: f32,
        /// The quantized code representing 0.0 exactly.
        zero: i8,
    },
}

impl ScalarType {
    /// The parameter-free axis value of this scalar type.
    pub fn storage_dtype(self) -> StorageDtype {
        match self {
            ScalarType::F32 => StorageDtype::F32,
            ScalarType::Bf16 => StorageDtype::Bf16,
            ScalarType::I8 { .. } => StorageDtype::I8,
        }
    }

    /// A placeholder scalar type for a dtype, with identity i8
    /// parameters (`scale = 1`, `zero = 0`). Buffers use this before
    /// their first commit derives real parameters from the data.
    pub fn identity_for(dtype: StorageDtype) -> ScalarType {
        match dtype {
            StorageDtype::F32 => ScalarType::F32,
            StorageDtype::Bf16 => ScalarType::Bf16,
            StorageDtype::I8 => ScalarType::I8 {
                scale: 1.0,
                zero: 0,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Conversion primitives.
// ---------------------------------------------------------------------------

/// f32 → bf16 with round-to-nearest-even. NaN payloads keep their sign
/// and top mantissa bits and are quietened (the result is never an
/// accidental infinity); ±inf and ±0 map exactly; f32 subnormals round
/// like any other small value (bf16 shares f32's exponent range, so
/// they stay representable as bf16 subnormals or round to ±0).
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round to nearest even on the truncated 16 bits.
    let lsb = (bits >> 16) & 1;
    (bits.wrapping_add(0x7FFF + lsb) >> 16) as u16
}

/// bf16 → f32: exact (bf16 values are a subset of f32).
pub fn bf16_to_f32(bits: u16) -> f32 {
    f32::from_bits(u32::from(bits) << 16)
}

/// Derives per-tensor affine i8 parameters from the finite value range:
/// `scale` spans `[min, max] ∪ {0}` over the 256 codes and `zero` is
/// the code for 0.0, so zero always round-trips exactly. Non-finite
/// values are ignored for the range (they saturate at quantize time).
/// Deterministic: a pure fold over the values in order.
pub fn i8_affine_params(values: &[f32]) -> (f32, i8) {
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if hi <= lo {
        return (1.0, 0);
    }
    let scale = ((hi - lo) / 255.0).max(f32::MIN_POSITIVE);
    let zero = (-128.0 - lo / scale).round().clamp(-128.0, 127.0) as i8;
    (scale, zero)
}

/// Quantizes one value: `round(x / scale) + zero`, saturating to the i8
/// range. Pinned non-finite behavior: `+inf → 127`, `-inf → -128`,
/// `NaN → 0` (Rust's saturating float→int cast), all deterministic.
pub fn quantize_i8(x: f32, scale: f32, zero: i8) -> i8 {
    let q = (x / scale).round() + f32::from(zero);
    q.clamp(-128.0, 127.0) as i8
}

/// Dequantizes one code: `(q - zero) * scale`. Exact on lattice points:
/// `quantize_i8(dequantize_i8(q, s, z), s, z) == q` for every code `q`.
pub fn dequantize_i8(q: i8, scale: f32, zero: i8) -> f32 {
    f32::from(i16::from(q) - i16::from(zero)) * scale
}

// ---------------------------------------------------------------------------
// StoredTensor.
// ---------------------------------------------------------------------------

/// The encoded payload of a [`StoredTensor`].
#[derive(Debug, Clone)]
enum Repr {
    /// Lossless: the tensor itself (O(1) `Arc` clone, bitwise exact).
    F32(Tensor),
    /// bf16 element bits.
    Bf16(Vec<u16>),
    /// Affine-quantized codes plus the per-tensor parameters.
    I8 { data: Vec<i8>, scale: f32, zero: i8 },
}

/// A tensor held at a storage dtype: the at-rest form of synthetic
/// buffers, replay slots, and checkpoint payloads.
///
/// Encoding an f32 tensor to `F32` wraps it without copying, so the
/// default precision path is bitwise identical to not using
/// `StoredTensor` at all. Sub-f32 encodings own compact buffers;
/// [`StoredTensor::decode`] widens back to f32 (exactly — see the
/// module docs for the byte-stability contract).
#[derive(Debug, Clone)]
pub struct StoredTensor {
    dims: Vec<usize>,
    repr: Repr,
}

impl StoredTensor {
    /// Encodes `t` at `dtype`. For [`StorageDtype::F32`] this is an
    /// O(1) `Arc` clone; sub-f32 dtypes convert every element (i8
    /// derives its affine parameters from the tensor's value range).
    pub fn encode(t: &Tensor, dtype: StorageDtype) -> StoredTensor {
        let dims = t.shape().dims().to_vec();
        let repr = match dtype {
            StorageDtype::F32 => {
                return StoredTensor {
                    dims,
                    repr: Repr::F32(t.clone()),
                }
            }
            StorageDtype::Bf16 => Repr::Bf16(t.data().iter().map(|&x| f32_to_bf16(x)).collect()),
            StorageDtype::I8 => {
                let (scale, zero) = i8_affine_params(t.data());
                Repr::I8 {
                    data: t
                        .data()
                        .iter()
                        .map(|&x| quantize_i8(x, scale, zero))
                        .collect(),
                    scale,
                    zero,
                }
            }
        };
        StoredTensor { dims, repr }
    }

    /// Encodes `t` at an explicit scalar type: like
    /// [`StoredTensor::encode`] but reusing the given i8 affine
    /// parameters instead of deriving fresh ones from `t`'s range.
    ///
    /// This is the *byte-stable* encode: re-deriving i8 parameters from
    /// data that is already on a lattice does not in general reproduce
    /// the original parameters (the quantized extremes shift by
    /// rounding), so anything that must serialize identically across
    /// decode/encode cycles — committed buffers, session payloads —
    /// carries its [`ScalarType`] and encodes through it.
    pub fn encode_with(t: &Tensor, scalar: ScalarType) -> StoredTensor {
        match scalar {
            ScalarType::I8 { scale, zero } => {
                let dims = t.shape().dims().to_vec();
                StoredTensor {
                    dims,
                    repr: Repr::I8 {
                        data: t
                            .data()
                            .iter()
                            .map(|&x| quantize_i8(x, scale, zero))
                            .collect(),
                        scale,
                        zero,
                    },
                }
            }
            _ => StoredTensor::encode(t, scalar.storage_dtype()),
        }
    }

    /// Widens back to an f32 [`Tensor`]. O(1) for the `F32` variant;
    /// sub-f32 variants materialize a fresh f32 buffer.
    pub fn decode(&self) -> Tensor {
        match &self.repr {
            Repr::F32(t) => t.clone(),
            _ => {
                let mut out = vec![0.0f32; self.numel()];
                self.widen_into(&mut out);
                Tensor::from_vec(out, Shape::new(self.dims.clone()))
            }
        }
    }

    /// Widens every element into a caller-owned f32 buffer (the kernel
    /// behind [`StoredTensor::decode`]).
    ///
    /// # Panics
    /// Panics unless `out.len()` equals the element count.
    pub fn widen_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.numel(), "widen_into length mismatch");
        match &self.repr {
            Repr::F32(t) => out.copy_from_slice(t.data()),
            Repr::Bf16(v) => {
                for (o, &b) in out.iter_mut().zip(v) {
                    *o = bf16_to_f32(b);
                }
            }
            Repr::I8 { data, scale, zero } => {
                for (o, &q) in out.iter_mut().zip(data) {
                    *o = dequantize_i8(q, *scale, *zero);
                }
            }
        }
    }

    /// The parameter-free dtype of the stored payload.
    pub fn dtype(&self) -> StorageDtype {
        match &self.repr {
            Repr::F32(_) => StorageDtype::F32,
            Repr::Bf16(_) => StorageDtype::Bf16,
            Repr::I8 { .. } => StorageDtype::I8,
        }
    }

    /// The fully-parameterized scalar type (carries i8 parameters).
    pub fn scalar_type(&self) -> ScalarType {
        match &self.repr {
            Repr::F32(_) => ScalarType::F32,
            Repr::Bf16(_) => ScalarType::Bf16,
            Repr::I8 { scale, zero, .. } => ScalarType::I8 {
                scale: *scale,
                zero: *zero,
            },
        }
    }

    /// The logical dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Heap bytes of the *stored* payload — the at-rest footprint the
    /// memory accounting and Table 2 compare (element buffer plus the
    /// i8 affine parameters; f32 reports the wrapped tensor's bytes).
    pub fn heap_bytes(&self) -> u64 {
        match &self.repr {
            Repr::F32(t) => t.heap_bytes(),
            Repr::Bf16(v) => (v.len() * 2) as u64,
            Repr::I8 { data, .. } => data.len() as u64 + 5,
        }
    }

    /// The wrapped tensor when the dtype is `F32` (lossless fast path).
    pub fn as_f32(&self) -> Option<&Tensor> {
        match &self.repr {
            Repr::F32(t) => Some(t),
            _ => None,
        }
    }

    /// The raw 16-bit element payload for `Bf16` (wire format).
    pub fn raw_u16(&self) -> Option<&[u16]> {
        match &self.repr {
            Repr::Bf16(v) => Some(v),
            _ => None,
        }
    }

    /// The raw i8 payload and affine parameters (wire format).
    pub fn raw_i8(&self) -> Option<(&[i8], f32, i8)> {
        match &self.repr {
            Repr::I8 { data, scale, zero } => Some((data, *scale, *zero)),
            _ => None,
        }
    }

    /// Rebuilds a `Bf16` payload from wire bytes.
    ///
    /// # Panics
    /// Panics on an element-count mismatch.
    pub fn from_raw_bf16(dims: Vec<usize>, data: Vec<u16>) -> StoredTensor {
        assert_eq!(dims.iter().product::<usize>(), data.len());
        StoredTensor {
            dims,
            repr: Repr::Bf16(data),
        }
    }

    /// Rebuilds an `I8` payload from wire bytes.
    ///
    /// # Panics
    /// Panics on an element-count mismatch.
    pub fn from_raw_i8(dims: Vec<usize>, data: Vec<i8>, scale: f32, zero: i8) -> StoredTensor {
        assert_eq!(dims.iter().product::<usize>(), data.len());
        StoredTensor {
            dims,
            repr: Repr::I8 { data, scale, zero },
        }
    }
}

/// Snaps every element of `t` onto the dtype's representable lattice:
/// `decode(encode(t))` as one pass, without allocating a stored copy.
/// Identity (and O(1)) for `F32`. This is what buffers apply when they
/// *commit* values to storage at a segment boundary.
pub fn snap_to_dtype(t: &Tensor, dtype: StorageDtype) -> Tensor {
    match dtype {
        StorageDtype::I8 => {
            let (scale, zero) = i8_affine_params(t.data());
            snap_to_scalar(t, ScalarType::I8 { scale, zero })
        }
        _ => snap_to_scalar(t, ScalarType::identity_for(dtype)),
    }
}

/// [`snap_to_dtype`] with explicit i8 parameters: snaps every element
/// onto the lattice the given [`ScalarType`] describes. Idempotent for
/// any fixed `scalar` (lattice points quantize back to themselves), so
/// a buffer that remembers its committed scalar type can re-snap and
/// re-encode byte-stably forever.
pub fn snap_to_scalar(t: &Tensor, scalar: ScalarType) -> Tensor {
    match scalar {
        ScalarType::F32 => t.clone(),
        ScalarType::Bf16 => t.map(|x| bf16_to_f32(f32_to_bf16(x))),
        ScalarType::I8 { scale, zero } => {
            t.map(|x| dequantize_i8(quantize_i8(x, scale, zero), scale, zero))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn bf16_roundtrip_is_exact_on_bf16_values() {
        for bits in [0u16, 0x8000, 0x3F80, 0xC000, 0x7F80, 0xFF80, 0x0001] {
            assert_eq!(f32_to_bf16(bf16_to_f32(bits)), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn specials_are_pinned() {
        assert_eq!(f32_to_bf16(f32::INFINITY), 0x7F80);
        assert_eq!(f32_to_bf16(f32::NEG_INFINITY), 0xFF80);
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        assert_eq!(quantize_i8(f32::NAN, 0.1, 3), 0);
        assert_eq!(quantize_i8(f32::INFINITY, 0.1, 3), 127);
        assert_eq!(quantize_i8(f32::NEG_INFINITY, 0.1, 3), -128);
    }

    #[test]
    fn i8_lattice_points_roundtrip_exactly() {
        let (scale, zero) = (0.05f32, -7i8);
        for q in i8::MIN..=i8::MAX {
            let x = dequantize_i8(q, scale, zero);
            assert_eq!(quantize_i8(x, scale, zero), q, "code {q}");
        }
    }

    #[test]
    fn stored_f32_is_zero_copy_and_bitwise() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn([3, 4], &mut rng);
        let s = StoredTensor::encode(&t, StorageDtype::F32);
        let inner = s.as_f32().expect("f32 wraps the tensor");
        assert!(std::ptr::eq(inner.data().as_ptr(), t.data().as_ptr()));
        let back = s.decode();
        assert_eq!(back.data(), t.data());
        assert_eq!(s.heap_bytes(), t.heap_bytes());
    }

    #[test]
    fn sub_f32_shrinks_and_reencodes_stably() {
        let mut rng = Rng::new(2);
        let t = Tensor::randn([4, 8], &mut rng);
        for dtype in [StorageDtype::Bf16, StorageDtype::I8] {
            let s = StoredTensor::encode(&t, dtype);
            assert!(
                s.heap_bytes() <= t.heap_bytes() / 2 + 8,
                "{dtype}: {} vs {}",
                s.heap_bytes(),
                t.heap_bytes()
            );
            let once = s.decode();
            // bf16 decode∘encode is idempotent; i8 re-derives its affine
            // parameters, so its stability goes through `encode_with`
            // (next test).
            if dtype == StorageDtype::Bf16 {
                let twice = StoredTensor::encode(&once, dtype).decode();
                assert_eq!(once.data(), twice.data(), "{dtype}");
            }
            // snap_to_dtype is decode∘encode in one pass.
            let snapped = snap_to_dtype(&t, dtype);
            assert_eq!(snapped.data(), once.data(), "{dtype}");
        }
    }

    #[test]
    fn encode_with_is_byte_stable_across_decode_cycles() {
        let mut rng = Rng::new(4);
        let t = Tensor::randn([6, 7], &mut rng);
        for dtype in StorageDtype::ALL {
            let first = StoredTensor::encode(&t, dtype);
            let scalar = first.scalar_type();
            // decode → encode_with(remembered scalar) reproduces the
            // identical payload, any number of times.
            let mut cur = first.decode();
            for round in 0..3 {
                let re = StoredTensor::encode_with(&cur, scalar);
                assert_eq!(re.scalar_type(), scalar, "{dtype} round {round}");
                assert_eq!(
                    re.raw_u16(),
                    first.raw_u16(),
                    "{dtype} round {round}: u16 payload drifted"
                );
                assert_eq!(
                    re.raw_i8().map(|(d, s, z)| (d.to_vec(), s, z)),
                    first.raw_i8().map(|(d, s, z)| (d.to_vec(), s, z)),
                    "{dtype} round {round}: i8 payload drifted"
                );
                // snap_to_scalar is idempotent on lattice data.
                assert_eq!(snap_to_scalar(&cur, scalar).data(), cur.data());
                cur = re.decode();
            }
        }
    }

    #[test]
    fn dtype_tags_roundtrip() {
        for d in StorageDtype::ALL {
            assert_eq!(StorageDtype::from_tag_byte(d.tag_byte()), Some(d));
            assert_eq!(StorageDtype::parse(d.label()), Some(d));
        }
        // Tag 2 (the retired f16) stays unassigned.
        assert_eq!(StorageDtype::from_tag_byte(2), None);
        assert_eq!(StorageDtype::from_tag_byte(9), None);
        assert_eq!(StorageDtype::parse("f64"), None);
        assert_eq!(StorageDtype::parse("f16"), None);
    }
}
