//! The bounded replay buffer of real samples used by all selection-based
//! baselines.

use deco_tensor::dtype::snap_to_dtype;
use deco_tensor::{StorageDtype, Tensor};

/// One stored sample: an image, its (pseudo-)label, and the model
/// confidence recorded when it was offered.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferItem {
    /// `[c, h, w]` image.
    pub image: Tensor,
    /// Label under which the sample is replayed.
    pub label: usize,
    /// Model confidence of that label when the sample arrived.
    pub confidence: f32,
}

/// A capacity-bounded store of [`BufferItem`]s.
///
/// The buffer itself is policy-free: a [`SelectionStrategy`] decides
/// which items enter and which leave.
///
/// [`SelectionStrategy`]: crate::SelectionStrategy
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    items: Vec<BufferItem>,
    /// Total number of items ever offered (used by reservoir sampling).
    seen: usize,
    /// Storage precision items are held at. Incoming images are snapped
    /// onto this dtype's representable lattice on entry, so every pixel
    /// the buffer holds (and replays) is exactly a stored-precision
    /// value; compute on batches stays f32.
    dtype: StorageDtype,
}

impl ReplayBuffer {
    /// An empty buffer with the given capacity, storing items at f32.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_storage_dtype(capacity, StorageDtype::F32)
    }

    /// An empty buffer storing item images at `dtype` precision.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_storage_dtype(capacity: usize, dtype: StorageDtype) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        ReplayBuffer {
            capacity,
            items: Vec::with_capacity(capacity),
            seen: 0,
            dtype,
        }
    }

    /// The storage precision item images are held at.
    pub fn storage_dtype(&self) -> StorageDtype {
        self.dtype
    }

    /// Maximum number of stored items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Total number of items ever offered through [`ReplayBuffer::record_seen`].
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Increments the offered-item counter and returns the new count.
    pub fn record_seen(&mut self) -> usize {
        self.seen += 1;
        self.seen
    }

    /// The stored items.
    pub fn items(&self) -> &[BufferItem] {
        &self.items
    }

    /// Appends an item.
    ///
    /// # Panics
    /// Panics if the buffer is full (strategies must evict first).
    pub fn push(&mut self, item: BufferItem) {
        assert!(!self.is_full(), "push into a full buffer");
        self.items.push(self.store(item));
    }

    /// Replaces the item at `index`, returning the evicted item.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn replace(&mut self, index: usize, item: BufferItem) -> BufferItem {
        assert!(
            index < self.items.len(),
            "replace index {index} out of range"
        );
        let item = self.store(item);
        std::mem::replace(&mut self.items[index], item)
    }

    /// Snaps an incoming item's image onto the buffer's storage lattice
    /// (identity at f32).
    fn store(&self, mut item: BufferItem) -> BufferItem {
        if self.dtype != StorageDtype::F32 {
            item.image = snap_to_dtype(&item.image, self.dtype);
        }
        item
    }

    /// Stacks the buffer into training tensors: `[n, c, h, w]` images, the
    /// labels, and the recorded confidences.
    ///
    /// # Panics
    /// Panics if the buffer is empty.
    pub fn as_training_batch(&self) -> (Tensor, Vec<usize>, Vec<f32>) {
        assert!(!self.is_empty(), "cannot batch an empty buffer");
        let images: Vec<&Tensor> = self.items.iter().map(|i| &i.image).collect();
        let frame_dims = images[0].shape().dims().to_vec();
        let mut data = Vec::with_capacity(images.len() * images[0].numel());
        for img in &images {
            assert_eq!(img.shape().dims(), frame_dims, "inhomogeneous image shapes");
            data.extend_from_slice(img.data());
        }
        let mut dims = vec![self.items.len()];
        dims.extend_from_slice(&frame_dims);
        (
            Tensor::from_vec(data, dims),
            self.items.iter().map(|i| i.label).collect(),
            self.items.iter().map(|i| i.confidence).collect(),
        )
    }

    /// Heap bytes one stored item costs beyond its pixels and its
    /// inline `BufferItem` slot: the `Arc` control block plus inner
    /// `Vec` header (40) and the shape's dimension vector (3 × 8) —
    /// per-image allocations a contiguous condensed stack amortizes
    /// into one.
    pub const PER_ITEM_HEAP_OVERHEAD: usize = 64;

    /// Approximate heap bytes held by the buffer: the reserved item
    /// slots (`capacity × size_of::<BufferItem>()`) plus, per stored
    /// image, its pixel buffer *at the storage dtype's width* and
    /// allocation overhead. This is the raw-replay cost the paper's
    /// Table 2 compares against condensed buffers; under bf16/i8
    /// storage the pixel term reflects the 2-byte/1-byte at-rest
    /// encoding (the in-process f32 mirror is transient compute state,
    /// already on the dtype's lattice).
    pub fn approx_bytes(&self) -> u64 {
        let slots = self.capacity.max(self.items.capacity()) * std::mem::size_of::<BufferItem>();
        let per_item = (self.items.len() * Self::PER_ITEM_HEAP_OVERHEAD) as u64;
        let bpe = self.dtype.bytes_per_element() as u64;
        slots as u64
            + per_item
            + self
                .items
                .iter()
                .map(|i| i.image.numel() as u64 * bpe)
                .sum::<u64>()
    }

    /// Per-class item counts (length = `num_classes`).
    pub fn class_histogram(&self, num_classes: usize) -> Vec<usize> {
        let mut hist = vec![0usize; num_classes];
        for item in &self.items {
            if item.label < num_classes {
                hist[item.label] += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(label: usize, conf: f32) -> BufferItem {
        BufferItem {
            image: Tensor::full([1, 2, 2], label as f32),
            label,
            confidence: conf,
        }
    }

    #[test]
    fn push_until_full() {
        let mut buf = ReplayBuffer::new(2);
        buf.push(item(0, 0.5));
        assert!(!buf.is_full());
        buf.push(item(1, 0.6));
        assert!(buf.is_full());
        assert_eq!(buf.len(), 2);
    }

    #[test]
    #[should_panic(expected = "full buffer")]
    fn push_into_full_panics() {
        let mut buf = ReplayBuffer::new(1);
        buf.push(item(0, 0.5));
        buf.push(item(1, 0.5));
    }

    #[test]
    fn replace_returns_evicted() {
        let mut buf = ReplayBuffer::new(1);
        buf.push(item(0, 0.5));
        let old = buf.replace(0, item(7, 0.9));
        assert_eq!(old.label, 0);
        assert_eq!(buf.items()[0].label, 7);
    }

    #[test]
    fn training_batch_stacks_in_order() {
        let mut buf = ReplayBuffer::new(3);
        buf.push(item(2, 0.1));
        buf.push(item(5, 0.2));
        let (images, labels, confs) = buf.as_training_batch();
        assert_eq!(images.shape().dims(), &[2, 1, 2, 2]);
        assert_eq!(labels, vec![2, 5]);
        assert_eq!(confs, vec![0.1, 0.2]);
        assert_eq!(images.at(&[1, 0, 0, 0]), 5.0);
    }

    #[test]
    fn class_histogram_counts() {
        let mut buf = ReplayBuffer::new(4);
        buf.push(item(0, 0.5));
        buf.push(item(0, 0.5));
        buf.push(item(3, 0.5));
        assert_eq!(buf.class_histogram(4), vec![2, 0, 0, 1]);
    }

    #[test]
    fn seen_counter_advances() {
        let mut buf = ReplayBuffer::new(1);
        assert_eq!(buf.record_seen(), 1);
        assert_eq!(buf.record_seen(), 2);
        assert_eq!(buf.seen(), 2);
    }

    #[test]
    fn approx_bytes_is_capacity_slots_plus_pixels() {
        let mut buf = ReplayBuffer::new(4);
        let slots = (4 * std::mem::size_of::<BufferItem>()) as u64;
        assert_eq!(buf.approx_bytes(), slots);
        buf.push(item(0, 0.5));
        buf.push(item(1, 0.5));
        // Each [1, 2, 2] image holds 4 f32 = 16 heap bytes, plus the
        // per-item allocation overhead.
        let per_item = 16 + ReplayBuffer::PER_ITEM_HEAP_OVERHEAD as u64;
        assert_eq!(buf.approx_bytes(), slots + 2 * per_item);
    }

    #[test]
    fn sub_f32_storage_snaps_images_and_shrinks_accounting() {
        let mut rng = deco_tensor::Rng::new(5);
        let img = Tensor::randn([1, 4, 4], &mut rng);
        let f32_buf = {
            let mut b = ReplayBuffer::new(2);
            b.push(BufferItem {
                image: img.clone(),
                label: 0,
                confidence: 0.5,
            });
            b
        };
        for (dtype, shrink) in [(StorageDtype::Bf16, 2u64), (StorageDtype::I8, 4u64)] {
            let mut b = ReplayBuffer::with_storage_dtype(2, dtype);
            assert_eq!(b.storage_dtype(), dtype);
            b.push(BufferItem {
                image: img.clone(),
                label: 0,
                confidence: 0.5,
            });
            let stored = &b.items()[0].image;
            // On-lattice: snapping again changes nothing.
            assert_eq!(snap_to_dtype(stored, dtype).data(), stored.data());
            // Pixel accounting shrinks by exactly the width ratio.
            let pixels = |buf: &ReplayBuffer| {
                buf.approx_bytes()
                    - (2 * std::mem::size_of::<BufferItem>() + ReplayBuffer::PER_ITEM_HEAP_OVERHEAD)
                        as u64
            };
            assert_eq!(pixels(&f32_buf), shrink * pixels(&b), "{dtype}");
        }
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn batching_empty_buffer_panics() {
        let buf = ReplayBuffer::new(1);
        let _ = buf.as_training_batch();
    }
}
