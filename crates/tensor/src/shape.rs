//! Tensor shapes, strides and broadcasting rules.
//!
//! Shapes are dense, row-major (C order). Broadcasting follows the usual
//! numpy convention: trailing axes are aligned, and axes of size 1 stretch.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Ranks up to this many axes are stored inline (no heap allocation).
/// Everything in the reproduction is rank ≤ 4 (NCHW), so in practice
/// shape construction never allocates; higher ranks spill to a `Vec`.
pub(crate) const INLINE_RANK: usize = 4;

/// The dimensions of a [`Tensor`](crate::Tensor), row-major.
///
/// Shapes of rank ≤ 4 are stored inline — constructing one allocates
/// nothing, which is part of the kernels' zero-heap-alloc steady-state
/// contract (`pool_steady_state.rs` asserts it). Higher ranks fall back
/// to heap storage transparently.
///
/// ```
/// use deco_tensor::Shape;
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone)]
pub struct Shape(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, dims: [usize; INLINE_RANK] },
    Heap(Vec<usize>),
}

impl Shape {
    /// Creates a shape from a dimension slice without allocating for
    /// rank ≤ 4. The single construction path behind every `From` impl.
    fn from_dims(src: &[usize]) -> Self {
        if src.len() <= INLINE_RANK {
            let mut dims = [0usize; INLINE_RANK];
            dims[..src.len()].copy_from_slice(src);
            Shape(Repr::Inline {
                len: src.len() as u8,
                dims,
            })
        } else {
            Shape(Repr::Heap(src.to_vec()))
        }
    }

    /// Creates a shape from its dimension list. A zero-rank shape denotes a
    /// scalar with one element.
    pub fn new(dims: Vec<usize>) -> Self {
        if dims.len() <= INLINE_RANK {
            Shape::from_dims(&dims)
        } else {
            Shape(Repr::Heap(dims))
        }
    }

    /// Scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape::from_dims(&[])
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        match &self.0 {
            Repr::Inline { len, dims } => &dims[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Size along axis `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims()[axis]
    }

    /// Total number of elements (product of dims; 1 for a scalar).
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Row-major strides in elements.
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![0; dims.len()];
        let mut acc = 1;
        for (i, &d) in dims.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }

    /// Whether the two shapes are broadcast-compatible (numpy rules).
    pub fn broadcast_compatible(&self, other: &Shape) -> bool {
        self.broadcast(other).is_some()
    }

    /// The broadcast result shape, or `None` when incompatible.
    ///
    /// ```
    /// use deco_tensor::Shape;
    /// let a = Shape::new(vec![4, 1, 3]);
    /// let b = Shape::new(vec![2, 3]);
    /// assert_eq!(a.broadcast(&b), Some(Shape::new(vec![4, 2, 3])));
    /// ```
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let (sd, od) = (self.dims(), other.dims());
        let rank = sd.len().max(od.len());
        let mut dims = [0usize; INLINE_RANK];
        let mut heap;
        let out: &mut [usize] = if rank <= INLINE_RANK {
            &mut dims[..rank]
        } else {
            heap = vec![0; rank];
            &mut heap
        };
        for (i, dim) in out.iter_mut().enumerate() {
            let a = if i < rank - sd.len() {
                1
            } else {
                sd[i - (rank - sd.len())]
            };
            let b = if i < rank - od.len() {
                1
            } else {
                od[i - (rank - od.len())]
            };
            *dim = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return None;
            };
        }
        Some(Shape::from_dims(out))
    }

    /// Converts a flat row-major index into per-axis coordinates.
    pub fn unravel(&self, mut index: usize) -> Vec<usize> {
        let mut coords = vec![0; self.rank()];
        for (i, s) in self.strides().iter().enumerate() {
            coords[i] = index / s;
            index %= s;
        }
        coords
    }

    /// Converts per-axis coordinates into a flat row-major index.
    ///
    /// # Panics
    /// Panics if `coords.len() != rank`.
    pub fn ravel(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.rank(), "coordinate rank mismatch");
        coords.iter().zip(self.strides()).map(|(c, s)| c * s).sum()
    }
}

/// Equality, hashing and ordering all key on the dimension *list*, so
/// an inline shape and a heap shape with the same dims are
/// interchangeable (they can both occur for the same dims only via
/// future API changes, but the invariant is cheap to uphold).
impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for Shape {}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl Default for Shape {
    fn default() -> Self {
        Shape::scalar()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::from_dims(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::from_dims(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn broadcast_equal_shapes() {
        let a = Shape::new(vec![2, 3]);
        assert_eq!(a.broadcast(&a), Some(a.clone()));
    }

    #[test]
    fn broadcast_stretches_ones() {
        let a = Shape::new(vec![2, 1, 4]);
        let b = Shape::new(vec![1, 3, 1]);
        assert_eq!(a.broadcast(&b), Some(Shape::new(vec![2, 3, 4])));
    }

    #[test]
    fn broadcast_aligns_trailing_axes() {
        let a = Shape::new(vec![5, 2, 3]);
        let b = Shape::new(vec![3]);
        assert_eq!(a.broadcast(&b), Some(Shape::new(vec![5, 2, 3])));
    }

    #[test]
    fn broadcast_rejects_mismatch() {
        let a = Shape::new(vec![2, 3]);
        let b = Shape::new(vec![2, 4]);
        assert_eq!(a.broadcast(&b), None);
        assert!(!a.broadcast_compatible(&b));
    }

    #[test]
    fn scalar_broadcasts_with_anything() {
        let a = Shape::scalar();
        let b = Shape::new(vec![7, 2]);
        assert_eq!(a.broadcast(&b), Some(b.clone()));
    }

    #[test]
    fn ravel_unravel_roundtrip() {
        let s = Shape::new(vec![3, 4, 5]);
        for i in 0..s.numel() {
            assert_eq!(s.ravel(&s.unravel(i)), i);
        }
    }

    #[test]
    fn inline_and_heap_ranks_agree_on_api_and_equality() {
        // Rank 5 spills to the heap; rank ≤ 4 stays inline. Both must
        // behave identically through the public API.
        let five = Shape::new(vec![2, 3, 4, 5, 6]);
        assert_eq!(five.rank(), 5);
        assert_eq!(five.numel(), 720);
        assert_eq!(five.dims(), &[2, 3, 4, 5, 6]);
        assert_eq!(five.strides(), vec![360, 120, 30, 6, 1]);
        let four_a = Shape::from([2, 3, 4, 5]);
        let four_b = Shape::new(vec![2, 3, 4, 5]);
        assert_eq!(four_a, four_b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |s: &Shape| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&four_a), h(&four_b));
        assert_eq!(Shape::default(), Shape::scalar());
        assert_eq!(format!("{five:?}"), "Shape[2, 3, 4, 5, 6]");
    }

    #[test]
    fn unravel_first_and_last() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.unravel(0), vec![0, 0]);
        assert_eq!(s.unravel(5), vec![1, 2]);
    }
}
