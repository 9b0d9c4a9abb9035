//! The synthetic data buffer `S`: a class-balanced set of learnable images.

use deco_datasets::LabeledSet;
use deco_tensor::dtype::snap_to_scalar;
use deco_tensor::{Rng, ScalarType, StorageDtype, StoredTensor, Tensor};

/// The condensed dataset stored on the device: `ipc` learnable images per
/// class with fixed labels, kept class-balanced by construction (rows
/// `[c·ipc, (c+1)·ipc)` always belong to class `c`).
///
/// ```
/// use deco_condense::SyntheticBuffer;
/// use deco_tensor::Rng;
///
/// let mut rng = Rng::new(0);
/// let buf = SyntheticBuffer::new_random(2, 10, [3, 16, 16], &mut rng);
/// assert_eq!(buf.len(), 20);
/// assert_eq!(buf.labels()[3], 1); // row 3 = class 1 (ipc = 2)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticBuffer {
    images: Tensor,
    labels: Vec<usize>,
    ipc: usize,
    num_classes: usize,
    /// The committed scalar type the buffer is held at *at rest*. The
    /// `images` tensor is the f32 working mirror condense iterations
    /// update; [`SyntheticBuffer::commit_storage`] snaps it onto this
    /// scalar type's lattice at segment boundaries (re-deriving the i8
    /// affine parameters from the pre-snap mirror), and
    /// [`SyntheticBuffer::stored_images`] produces the compact encoded
    /// form for serialization and byte accounting. Carrying the full
    /// [`ScalarType`] (not just the dtype) is what makes serialization
    /// byte-stable: i8 parameters re-derived from already-quantized
    /// data would drift, so they are remembered instead.
    scalar: ScalarType,
}

impl SyntheticBuffer {
    /// Random-noise initialization (standard normal pixels).
    ///
    /// # Panics
    /// Panics if `ipc` or `num_classes` is zero or `frame_dims` is not CHW.
    pub fn new_random(
        ipc: usize,
        num_classes: usize,
        frame_dims: [usize; 3],
        rng: &mut Rng,
    ) -> Self {
        assert!(ipc > 0, "IpC must be positive");
        assert!(num_classes > 0, "need at least one class");
        let n = ipc * num_classes;
        let images = Tensor::randn([n, frame_dims[0], frame_dims[1], frame_dims[2]], rng);
        let labels = (0..n).map(|i| i / ipc).collect();
        SyntheticBuffer {
            images,
            labels,
            ipc,
            num_classes,
            scalar: ScalarType::F32,
        }
    }

    /// Initializes from labeled (pre-training) data: the first `ipc` samples
    /// of every class, as the paper initializes the buffer from data
    /// condensed offline before deployment.
    ///
    /// Classes with fewer than `ipc` samples are topped up with noisy copies
    /// of their available samples; classes with none fall back to noise.
    ///
    /// # Panics
    /// Panics if the set is empty or `ipc`/`num_classes` is zero.
    pub fn from_labeled(set: &LabeledSet, ipc: usize, num_classes: usize, rng: &mut Rng) -> Self {
        assert!(
            ipc > 0 && num_classes > 0,
            "IpC and class count must be positive"
        );
        assert!(!set.is_empty(), "cannot initialize from an empty set");
        let frame: Vec<usize> = set.images.shape().dims()[1..].to_vec();
        let frame_numel: usize = frame.iter().product();
        let n = ipc * num_classes;
        let mut data = Vec::with_capacity(n * frame_numel);
        for class in 0..num_classes {
            let idx = set.indices_of_class(class);
            for k in 0..ipc {
                if idx.is_empty() {
                    for _ in 0..frame_numel {
                        data.push(rng.normal());
                    }
                } else {
                    let src = idx[k % idx.len()];
                    let row = set.images.select_rows(&[src]);
                    if k < idx.len() {
                        data.extend_from_slice(row.data());
                    } else {
                        // Duplicate with noise so repeated rows can diverge.
                        data.extend(row.data().iter().map(|&v| v + rng.normal_with(0.0, 0.05)));
                    }
                }
            }
        }
        let mut dims = vec![n];
        dims.extend_from_slice(&frame);
        SyntheticBuffer {
            images: Tensor::from_vec(data, dims),
            labels: (0..n).map(|i| i / ipc).collect(),
            ipc,
            num_classes,
            scalar: ScalarType::F32,
        }
    }

    /// Sets the at-rest storage precision (builder style) and commits
    /// the current images onto its lattice, so a freshly-built buffer
    /// starts from stored-precision values exactly as a rehydrated one
    /// would. Identity for [`StorageDtype::F32`].
    pub fn with_storage_dtype(mut self, dtype: StorageDtype) -> Self {
        self.set_storage_dtype(dtype);
        self
    }

    /// The at-rest storage precision.
    pub fn storage_dtype(&self) -> StorageDtype {
        self.scalar.storage_dtype()
    }

    /// The committed scalar type (dtype plus i8 affine parameters).
    pub fn scalar_type(&self) -> ScalarType {
        self.scalar
    }

    /// Re-applies a storage dtype (configuration path): sets the dtype
    /// and commits the current images, deriving fresh i8 parameters
    /// from them.
    pub fn set_storage_dtype(&mut self, dtype: StorageDtype) {
        self.scalar = ScalarType::identity_for(dtype);
        self.commit_storage();
    }

    /// Re-applies a committed scalar type verbatim (restore path):
    /// unlike [`SyntheticBuffer::set_storage_dtype`] this reuses the
    /// captured i8 parameters instead of re-deriving them, so a
    /// rehydrated buffer serializes byte-identically to the captured
    /// one. Snapping with a remembered scalar type is idempotent, so
    /// this changes no bytes of an on-lattice mirror.
    pub fn restore_scalar(&mut self, scalar: ScalarType) {
        self.scalar = scalar;
        if !matches!(scalar, ScalarType::F32) {
            self.images = snap_to_scalar(&self.images, scalar);
        }
    }

    /// Snaps the f32 working mirror onto the storage lattice —
    /// `decode(encode(images))` in one pass. Called at segment
    /// boundaries: condense iterations *within* a segment keep full f32
    /// precision, and everything held *between* segments is exactly
    /// what the compact encoding represents. For i8, fresh affine
    /// parameters are derived from the pre-snap mirror (the stored
    /// range tracks the images as they evolve) and remembered for
    /// [`SyntheticBuffer::stored_images`]. No-op (and allocation-free)
    /// for `F32`.
    pub fn commit_storage(&mut self) {
        match self.scalar.storage_dtype() {
            StorageDtype::F32 => {}
            StorageDtype::I8 => {
                let stored = StoredTensor::encode(&self.images, StorageDtype::I8);
                self.scalar = stored.scalar_type();
                self.images = stored.decode();
            }
            _ => self.images = snap_to_scalar(&self.images, self.scalar),
        }
    }

    /// The image stack encoded at the committed scalar type — the
    /// serialization form. Exact after
    /// [`SyntheticBuffer::commit_storage`]: committed mirror values are
    /// lattice points of the remembered parameters, so encode is
    /// lossless (and byte-stable) on them.
    pub fn stored_images(&self) -> StoredTensor {
        StoredTensor::encode_with(&self.images, self.scalar)
    }

    /// Images per class.
    pub fn ipc(&self) -> usize {
        self.ipc
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total stored images (`ipc · num_classes`).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the buffer holds no images (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The `[n, c, h, w]` image stack.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// The fixed labels (row `i` → class `i / ipc`).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Approximate heap bytes held by the buffer *at rest*: the single
    /// contiguous `[ipc·C, c, h, w]` image stack at the storage dtype's
    /// width (plus the i8 affine parameters where applicable) and the
    /// label vector. The condensed-memory number Table 2 compares
    /// against `ReplayBuffer::approx_bytes` in `deco-replay`; under
    /// sub-f32 storage it reflects the compact encoding the buffer
    /// serializes to (the f32 mirror is transient compute state,
    /// already on the dtype's lattice after commit).
    pub fn approx_bytes(&self) -> u64 {
        let dtype = self.storage_dtype();
        let pixels = self.images.numel() as u64 * dtype.bytes_per_element() as u64;
        let params = if dtype == StorageDtype::I8 { 5 } else { 0 };
        pixels + params + (self.labels.len() * std::mem::size_of::<usize>()) as u64
    }

    /// Row indices of one class.
    ///
    /// # Panics
    /// Panics if `class` is out of range.
    pub fn class_rows(&self, class: usize) -> std::ops::Range<usize> {
        assert!(class < self.num_classes, "class {class} out of range");
        class * self.ipc..(class + 1) * self.ipc
    }

    /// Row indices of several classes, concatenated in the given order.
    pub fn rows_for_classes(&self, classes: &[usize]) -> Vec<usize> {
        classes.iter().flat_map(|&c| self.class_rows(c)).collect()
    }

    /// Replaces the whole image stack (used by optimizers).
    ///
    /// # Panics
    /// Panics if the shape changes.
    pub fn set_images(&mut self, images: Tensor) {
        assert_eq!(images.shape(), self.images.shape(), "buffer shape change");
        self.images = images;
    }

    /// Applies an in-place additive update to a subset of rows:
    /// `images[rows] += alpha · delta`.
    ///
    /// # Panics
    /// Panics if `delta`'s row count differs from `rows.len()` or its frame
    /// shape differs from the buffer's.
    pub fn add_scaled_rows(&mut self, rows: &[usize], delta: &Tensor, alpha: f32) {
        assert_eq!(delta.shape().dim(0), rows.len(), "row count mismatch");
        let frame_numel = self.images.numel() / self.len();
        assert_eq!(
            delta.numel(),
            rows.len() * frame_numel,
            "frame shape mismatch"
        );
        let data = self.images.data_mut();
        for (r, &row) in rows.iter().enumerate() {
            let dst = &mut data[row * frame_numel..(row + 1) * frame_numel];
            let src = &delta.data()[r * frame_numel..(r + 1) * frame_numel];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += alpha * s;
            }
        }
    }

    /// The buffer as a labeled training batch.
    pub fn as_training_batch(&self) -> (Tensor, Vec<usize>) {
        (self.images.clone(), self.labels.clone())
    }

    /// Verifies the class-balance invariant (each class holds exactly `ipc`
    /// rows at its canonical position). Used by tests and debug assertions.
    pub fn check_invariants(&self) {
        assert_eq!(self.labels.len(), self.ipc * self.num_classes);
        for (i, &y) in self.labels.iter().enumerate() {
            assert_eq!(y, i / self.ipc, "row {i} mislabeled");
        }
        assert_eq!(self.images.shape().dim(0), self.labels.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_datasets::{core50, SyntheticVision};

    #[test]
    fn random_buffer_is_balanced() {
        let mut rng = Rng::new(1);
        let buf = SyntheticBuffer::new_random(3, 4, [1, 4, 4], &mut rng);
        buf.check_invariants();
        assert_eq!(buf.len(), 12);
        assert_eq!(buf.class_rows(2), 6..9);
    }

    #[test]
    fn from_labeled_copies_class_samples() {
        let data = SyntheticVision::new(core50());
        let set = data.pretrain_set(3);
        let mut rng = Rng::new(2);
        let buf = SyntheticBuffer::from_labeled(&set, 2, 10, &mut rng);
        buf.check_invariants();
        // Row 0 must equal the first class-0 sample of the set.
        let first_c0 = set.indices_of_class(0)[0];
        let expect = set.images.select_rows(&[first_c0]);
        let got = buf.images().select_rows(&[0]);
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn from_labeled_tops_up_scarce_classes() {
        let data = SyntheticVision::new(core50());
        let set = data.pretrain_set(1); // one sample per class
        let mut rng = Rng::new(3);
        let buf = SyntheticBuffer::from_labeled(&set, 3, 10, &mut rng);
        buf.check_invariants();
        // Duplicated rows must not be bit-identical (they carry noise).
        let a = buf.images().select_rows(&[0]);
        let b = buf.images().select_rows(&[1]);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn rows_for_classes_concatenates() {
        let mut rng = Rng::new(4);
        let buf = SyntheticBuffer::new_random(2, 5, [1, 2, 2], &mut rng);
        assert_eq!(buf.rows_for_classes(&[3, 0]), vec![6, 7, 0, 1]);
    }

    #[test]
    fn add_scaled_rows_updates_only_target_rows() {
        let mut rng = Rng::new(5);
        let mut buf = SyntheticBuffer::new_random(1, 3, [1, 2, 2], &mut rng);
        let before = buf.images().clone();
        let delta = Tensor::ones([1, 1, 2, 2]);
        buf.add_scaled_rows(&[1], &delta, 0.5);
        for i in 0..3 {
            let row = buf.images().select_rows(&[i]);
            let orig = before.select_rows(&[i]);
            if i == 1 {
                for (a, b) in row.data().iter().zip(orig.data()) {
                    assert!((a - b - 0.5).abs() < 1e-6);
                }
            } else {
                assert_eq!(row.data(), orig.data());
            }
        }
    }

    #[test]
    fn commit_storage_snaps_once_and_shrinks_accounting() {
        let mut rng = Rng::new(9);
        let f32_buf = SyntheticBuffer::new_random(2, 3, [1, 4, 4], &mut rng);
        let label_bytes = std::mem::size_of_val(f32_buf.labels()) as u64;
        let f32_pixels = f32_buf.approx_bytes() - label_bytes;
        for (dtype, shrink) in [(StorageDtype::Bf16, 2u64), (StorageDtype::I8, 4u64)] {
            let buf = f32_buf.clone().with_storage_dtype(dtype);
            assert_eq!(buf.storage_dtype(), dtype);
            buf.check_invariants();
            // Committed values are lattice points: a second commit (and
            // an encode/decode round trip) is the identity.
            let mut again = buf.clone();
            again.commit_storage();
            assert_eq!(again.images().data(), buf.images().data(), "{dtype}");
            assert_eq!(
                buf.stored_images().decode().data(),
                buf.images().data(),
                "{dtype}"
            );
            // At-rest accounting shrinks by the width ratio (i8 carries
            // its 5 parameter bytes).
            let pixels =
                buf.approx_bytes() - label_bytes - if dtype == StorageDtype::I8 { 5 } else { 0 };
            assert_eq!(f32_pixels, shrink * pixels, "{dtype}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_rows_checks_range() {
        let mut rng = Rng::new(6);
        let buf = SyntheticBuffer::new_random(1, 2, [1, 2, 2], &mut rng);
        let _ = buf.class_rows(2);
    }
}
