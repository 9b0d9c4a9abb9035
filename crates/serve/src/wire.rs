//! The versioned binary session format.
//!
//! The repo's JSON codec prints every number through `f64`, which silently
//! corrupts `u64` RNG state above 2⁵³ and loses `f32` bit patterns such as
//! `-0.0` — fatal for a format whose contract is *bitwise* rehydration. So
//! sessions use a dependency-free little-endian binary layout instead:
//! `f32` travels as its raw bits, `u64` as eight exact bytes.
//!
//! Layout: a 4-byte magic, a `u32` format version, the versioned payload,
//! and a trailing FNV-1a checksum over everything before it. Every read
//! path returns a typed [`WireError`] — a corrupted or truncated file can
//! never panic or over-allocate.

use std::path::Path;

use deco_tensor::{StorageDtype, StoredTensor, Tensor};

/// File magic of the session format (`DSRV`).
pub const MAGIC: [u8; 4] = *b"DSRV";

/// The format version, and the only one a reader accepts. Bump on any
/// layout change; readers reject every other version with
/// [`WireError::UnsupportedVersion`] instead of misparsing.
///
/// Version history:
/// - **1** — all tensors stored as raw `f32` bits. No longer read.
/// - **2** — the synthetic buffer travels as a dtype-tagged
///   [`StoredTensor`] record (bf16 halves, i8 quarters its payload;
///   i8 carries its affine parameters so re-serialization is
///   byte-identical). Tags: f32 = 0, bf16 = 1, i8 = 3.
///
///   Tag 2 (f16) is retired and now reads as an unknown tag. The
///   version stays 2 anyway: no writer in this tree ever emits tag 2,
///   every other byte is unchanged, and spill files do not outlive the
///   process that wrote them.
pub const FORMAT_VERSION: u32 = 2;

/// Upper bound on a single tensor's element count accepted by the reader —
/// a corrupt length field must fail cleanly, not attempt a huge allocation.
const MAX_TENSOR_NUMEL: u64 = 1 << 31;

/// Typed failure of session encoding/decoding.
#[derive(Debug)]
pub enum WireError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the session magic.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The payload ended before a field was complete.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload is structurally invalid (bad checksum, impossible
    /// lengths, trailing garbage, …).
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "session i/o error: {e}"),
            WireError::BadMagic => write!(f, "not a session file (bad magic)"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported session format version {v} (reader understands {FORMAT_VERSION})")
            }
            WireError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated session payload at offset {offset}: needed {needed} bytes, {available} available"
            ),
            WireError::Corrupt(msg) => write!(f, "corrupt session payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// 64-bit FNV-1a over a byte slice — the integrity check appended to every
/// session file. Not cryptographic; it catches the torn writes and bit rot
/// an evict/rehydrate cycle must fail loudly on.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Little-endian binary writer backing the session format.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer pre-loaded with the magic and the format version.
    pub fn with_header() -> Writer {
        let mut w = Writer {
            buf: MAGIC.to_vec(),
        };
        w.put_u32(FORMAT_VERSION);
        w
    }

    /// Appends the checksum and returns the finished byte vector.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.put_u64(sum);
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` as its exact bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an optional `f32` (presence flag + bits).
    pub fn put_opt_f32(&mut self, v: Option<f32>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f32(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends a tensor: rank, dims, then raw `f32` bits.
    pub fn put_tensor(&mut self, t: &Tensor) {
        let dims = t.shape().dims();
        self.put_u32(dims.len() as u32);
        for &d in dims {
            self.put_u64(d as u64);
        }
        for &v in t.data() {
            self.put_f32(v);
        }
    }

    /// Appends a tensor list with a count prefix.
    pub fn put_tensor_vec(&mut self, ts: &[Tensor]) {
        self.put_u32(ts.len() as u32);
        for t in ts {
            self.put_tensor(t);
        }
    }

    /// Appends an optional-tensor list (optimizer velocity slots).
    pub fn put_opt_tensor_vec(&mut self, ts: &[Option<Tensor>]) {
        self.put_u32(ts.len() as u32);
        for t in ts {
            match t {
                Some(t) => {
                    self.put_u8(1);
                    self.put_tensor(t);
                }
                None => self.put_u8(0),
            }
        }
    }

    /// Appends a dtype-tagged stored tensor: tag, rank, dims, then the
    /// payload at its native width (`u16` bits for bf16; the affine
    /// parameters followed by the quantized bytes for i8). Carrying the
    /// i8 parameters — rather than re-deriving them on read — is what
    /// makes a decode/re-encode cycle byte-identical.
    pub fn put_stored_tensor(&mut self, t: &StoredTensor) {
        self.put_u8(t.dtype().tag_byte());
        let dims = t.dims();
        self.put_u32(dims.len() as u32);
        for &d in dims {
            self.put_u64(d as u64);
        }
        match t.dtype() {
            StorageDtype::F32 => {
                for &v in t.as_f32().expect("f32 stored tensor").data() {
                    self.put_f32(v);
                }
            }
            StorageDtype::Bf16 => {
                for &bits in t.raw_u16().expect("bf16 stored tensor") {
                    self.put_u16(bits);
                }
            }
            StorageDtype::I8 => {
                let (data, scale, zero) = t.raw_i8().expect("i8 stored tensor");
                self.put_f32(scale);
                self.put_u8(zero as u8);
                for &q in data {
                    self.put_u8(q as u8);
                }
            }
        }
    }
}

/// Bounds-checked reader over a sealed session payload.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validates magic, version, and checksum, returning a reader scoped
    /// to the payload between header and checksum.
    ///
    /// # Errors
    /// Returns the typed [`WireError`] describing the first defect found.
    pub fn open(bytes: &'a [u8]) -> Result<Reader<'a>, WireError> {
        // magic(4) + version(4) + checksum(8)
        if bytes.len() < 16 {
            return Err(WireError::Truncated {
                offset: 0,
                needed: 16,
                available: bytes.len(),
            });
        }
        if bytes[..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
        let actual = fnv1a64(&bytes[..body_end]);
        if stored != actual {
            return Err(WireError::Corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            )));
        }
        Ok(Reader {
            bytes: &bytes[..body_end],
            pos: 8,
        })
    }

    /// Bytes left before the checksum.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Asserts the payload was fully consumed.
    ///
    /// # Errors
    /// Returns [`WireError::Corrupt`] on trailing bytes.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` into a `usize`.
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::Corrupt(format!("count {v} exceeds usize")))
    }

    /// Reads an `f32` from its exact bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an optional `f32`.
    pub fn get_opt_f32(&mut self) -> Result<Option<f32>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f32()?)),
            tag => Err(WireError::Corrupt(format!("bad option tag {tag}"))),
        }
    }

    /// Reads a tensor, validating its geometry before allocating.
    pub fn get_tensor(&mut self) -> Result<Tensor, WireError> {
        let (dims, numel) = self.get_checked_dims()?;
        // Check the data is actually present before allocating for it.
        self.ensure_payload(numel, 4)?;
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            data.push(self.get_f32()?);
        }
        Ok(Tensor::from_vec(data, dims))
    }

    /// Reads a stored tensor written by [`Writer::put_stored_tensor`],
    /// validating the dtype tag and geometry before allocating.
    pub fn get_stored_tensor(&mut self) -> Result<StoredTensor, WireError> {
        let tag = self.get_u8()?;
        let dtype = StorageDtype::from_tag_byte(tag)
            .ok_or_else(|| WireError::Corrupt(format!("unknown storage dtype tag {tag}")))?;
        let (dims, numel) = self.get_checked_dims()?;
        match dtype {
            StorageDtype::F32 => {
                self.ensure_payload(numel, 4)?;
                let mut data = Vec::with_capacity(numel);
                for _ in 0..numel {
                    data.push(self.get_f32()?);
                }
                Ok(StoredTensor::encode(
                    &Tensor::from_vec(data, dims),
                    StorageDtype::F32,
                ))
            }
            StorageDtype::Bf16 => {
                self.ensure_payload(numel, 2)?;
                let mut bits = Vec::with_capacity(numel);
                for _ in 0..numel {
                    bits.push(self.get_u16()?);
                }
                Ok(StoredTensor::from_raw_bf16(dims, bits))
            }
            StorageDtype::I8 => {
                let scale = self.get_f32()?;
                let zero = self.get_u8()? as i8;
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(WireError::Corrupt(format!(
                        "i8 scale {scale} is not a positive finite value"
                    )));
                }
                self.ensure_payload(numel, 1)?;
                let mut data = Vec::with_capacity(numel);
                for _ in 0..numel {
                    data.push(self.get_u8()? as i8);
                }
                Ok(StoredTensor::from_raw_i8(dims, data, scale, zero))
            }
        }
    }

    /// Reads and validates a rank + dims prefix shared by the tensor
    /// record kinds, rejecting impossible geometry before any payload
    /// allocation.
    fn get_checked_dims(&mut self) -> Result<(Vec<usize>, usize), WireError> {
        let rank = self.get_u32()? as usize;
        if rank > 8 {
            return Err(WireError::Corrupt(format!("tensor rank {rank} too large")));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut numel: u64 = 1;
        for _ in 0..rank {
            let d = self.get_u64()?;
            numel = numel
                .checked_mul(d)
                .filter(|&n| n <= MAX_TENSOR_NUMEL)
                .ok_or_else(|| {
                    WireError::Corrupt(format!("tensor dims overflow: {dims:?} × {d}"))
                })?;
            dims.push(d as usize);
        }
        Ok((dims, numel as usize))
    }

    /// Fails with [`WireError::Truncated`] if fewer than
    /// `numel × bytes_per_element` payload bytes remain.
    fn ensure_payload(&self, numel: usize, bytes_per_element: usize) -> Result<(), WireError> {
        let needed = numel * bytes_per_element;
        if self.remaining() < needed {
            return Err(WireError::Truncated {
                offset: self.pos,
                needed,
                available: self.remaining(),
            });
        }
        Ok(())
    }

    /// Reads a count-prefixed tensor list.
    pub fn get_tensor_vec(&mut self) -> Result<Vec<Tensor>, WireError> {
        let n = self.get_u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(self.get_tensor()?);
        }
        Ok(out)
    }

    /// Reads an optional-tensor list.
    pub fn get_opt_tensor_vec(&mut self) -> Result<Vec<Option<Tensor>>, WireError> {
        let n = self.get_u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(match self.get_u8()? {
                0 => None,
                1 => Some(self.get_tensor()?),
                tag => return Err(WireError::Corrupt(format!("bad option tag {tag}"))),
            });
        }
        Ok(out)
    }
}

/// Writes sealed bytes to `path` atomically enough for a single host: a
/// temp file in the same directory, then a rename.
///
/// # Errors
/// Returns any I/O error.
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), WireError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a whole session file.
///
/// # Errors
/// Returns any I/O error.
pub fn read_file(path: &Path) -> Result<Vec<u8>, WireError> {
    Ok(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_tensor::Rng;

    impl Writer {
        /// A writer whose header claims `version`, for the rejection tests.
        fn with_header_version(version: u32) -> Writer {
            let mut w = Writer {
                buf: MAGIC.to_vec(),
            };
            w.put_u32(version);
            w
        }
    }

    #[test]
    fn primitives_roundtrip_exactly() {
        let mut w = Writer::with_header();
        w.put_u64(u64::MAX - 12); // beyond f64's exact-integer range
        w.put_f32(-0.0);
        w.put_f32(f32::NAN);
        w.put_opt_f32(None);
        w.put_opt_f32(Some(f32::MIN_POSITIVE));
        let bytes = w.seal();
        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 12);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.get_opt_f32().unwrap(), None);
        assert_eq!(
            r.get_opt_f32().unwrap().unwrap().to_bits(),
            f32::MIN_POSITIVE.to_bits()
        );
        r.finish().unwrap();
    }

    #[test]
    fn tensor_roundtrip_is_bitwise() {
        let mut rng = Rng::new(5);
        let t = Tensor::randn([3, 2, 4], &mut rng);
        let mut w = Writer::with_header();
        w.put_tensor(&t);
        let bytes = w.seal();
        let mut r = Reader::open(&bytes).unwrap();
        let back = r.get_tensor().unwrap();
        r.finish().unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in t.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = Writer::with_header().seal();
        bytes[0] = b'X';
        assert!(matches!(Reader::open(&bytes), Err(WireError::BadMagic)));
    }

    #[test]
    fn future_version_is_rejected() {
        let bytes = Writer::with_header_version(FORMAT_VERSION + 1).seal();
        assert!(matches!(
            Reader::open(&bytes),
            Err(WireError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn flipped_byte_fails_checksum() {
        let mut w = Writer::with_header();
        w.put_u64(42);
        let mut bytes = w.seal();
        bytes[9] ^= 0x40;
        assert!(matches!(Reader::open(&bytes), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut w = Writer::with_header();
        let mut rng = Rng::new(6);
        w.put_tensor(&Tensor::randn([4, 4], &mut rng));
        let bytes = w.seal();
        for cut in 0..bytes.len() {
            let err = Reader::open(&bytes[..cut])
                .and_then(|mut r| r.get_tensor().map(|_| ()))
                .expect_err("truncated payload must fail");
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::Corrupt(_)),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn absurd_tensor_dims_fail_before_allocating() {
        // Hand-craft a tensor whose dims claim ~10^18 elements.
        let mut w = Writer::with_header();
        w.put_u32(2); // rank
        w.put_u64(1 << 30);
        w.put_u64(1 << 30);
        let bytes = w.seal();
        let mut r = Reader::open(&bytes).unwrap();
        assert!(matches!(r.get_tensor(), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn stored_tensor_roundtrips_bitwise_per_dtype() {
        let mut rng = Rng::new(11);
        let t = Tensor::randn([2, 3, 4], &mut rng);
        for dtype in StorageDtype::ALL {
            let stored = StoredTensor::encode(&t, dtype);
            let mut w = Writer::with_header();
            w.put_stored_tensor(&stored);
            let bytes = w.seal();
            let mut r = Reader::open(&bytes).unwrap();
            let back = r.get_stored_tensor().unwrap();
            r.finish().unwrap();
            assert_eq!(back.dtype(), dtype);
            assert_eq!(back.dims(), stored.dims());
            assert_eq!(back.scalar_type(), stored.scalar_type(), "{dtype}");
            let (a, b) = (stored.decode(), back.decode());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{dtype}");
            }
            // Re-serializing the decoded record reproduces the bytes.
            let mut w2 = Writer::with_header();
            w2.put_stored_tensor(&back);
            assert_eq!(w2.seal(), bytes, "{dtype}");
        }
    }

    #[test]
    fn stored_tensor_sub_f32_payloads_shrink() {
        let mut rng = Rng::new(12);
        let t = Tensor::randn([8, 8], &mut rng);
        let size = |dtype| {
            let mut w = Writer::with_header();
            w.put_stored_tensor(&StoredTensor::encode(&t, dtype));
            w.seal().len()
        };
        // 16 header/checksum + tag + rank + dims overhead is shared; the
        // 64-element payload drops 4 → 2 → 1 bytes per element.
        let overhead = 16 + 1 + 4 + 2 * 8;
        assert_eq!(size(StorageDtype::F32) - overhead, 256);
        assert_eq!(size(StorageDtype::Bf16) - overhead, 128);
        assert_eq!(size(StorageDtype::I8) - overhead, 64 + 5);
    }

    #[test]
    fn unknown_dtype_tag_is_corrupt_not_a_panic() {
        // Tag 2 is the retired f16 tag; 9 was never assigned.
        for tag in [2u8, 9] {
            let mut w = Writer::with_header();
            w.put_u8(tag);
            w.put_u32(1);
            w.put_u64(1);
            w.put_f32(0.0);
            let bytes = w.seal();
            let mut r = Reader::open(&bytes).unwrap();
            assert!(matches!(
                r.get_stored_tensor(),
                Err(WireError::Corrupt(msg)) if msg.contains(&format!("dtype tag {tag}"))
            ));
        }
    }

    #[test]
    fn nonpositive_i8_scale_is_corrupt() {
        for scale in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
            let mut w = Writer::with_header();
            w.put_u8(StorageDtype::I8.tag_byte());
            w.put_u32(1); // rank
            w.put_u64(1);
            w.put_f32(scale);
            w.put_u8(0); // zero point
            w.put_u8(0); // datum
            let bytes = w.seal();
            let mut r = Reader::open(&bytes).unwrap();
            assert!(
                matches!(r.get_stored_tensor(), Err(WireError::Corrupt(_))),
                "scale {scale} must be rejected"
            );
        }
    }

    #[test]
    fn version_zero_is_rejected() {
        // Version 1 (all-f32 tensors) is no longer read either.
        for version in [0u32, 1] {
            let bytes = Writer::with_header_version(version).seal();
            assert!(matches!(
                Reader::open(&bytes),
                Err(WireError::UnsupportedVersion(v)) if v == version
            ));
        }
    }
}
