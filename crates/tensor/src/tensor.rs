//! The dense `f32` tensor type.

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::rng::Rng;
use crate::shape::{Shape, INLINE_RANK};

/// A dense, row-major `f32` tensor.
///
/// Storage is shared (`Arc`), so `clone` is O(1); mutating accessors use
/// copy-on-write semantics. All numeric code in the reproduction — network
/// weights, images, gradients — is built on this type.
///
/// ```
/// use deco_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// assert_eq!(t.shape().dims(), &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// ```
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Shape,
}

/// Counts a fresh heap buffer of `numel` elements against the telemetry
/// registry. No-op (one relaxed load) when telemetry is disabled.
#[inline]
fn track_buffer(numel: usize) {
    deco_telemetry::counter!("tensor.alloc.count");
    deco_telemetry::counter!(
        "tensor.alloc.bytes",
        (numel * std::mem::size_of::<f32>()) as u64
    );
}

/// Max parked `Arc` shells per thread. Shells are tiny (an empty `Vec`
/// inside an `Arc` control block), so the cap only bounds pathological
/// churn.
const STORAGE_FREELIST_CAP: usize = 256;

thread_local! {
    /// Empty `Arc<Vec<f32>>` shells parked by [`Tensor`]'s `Drop` for
    /// reuse by [`alloc_storage`]. Together with the buffer pool this
    /// makes steady-state kernel outputs fully allocation-free: the
    /// f32 buffer comes from [`crate::pool`] and the `Arc` control
    /// block from here.
    static STORAGE_FREELIST: RefCell<Vec<Arc<Vec<f32>>>> = const { RefCell::new(Vec::new()) };
}

/// Wraps `buf` in shared storage, reusing a parked `Arc` shell when one
/// is available instead of allocating a control block.
fn alloc_storage(buf: Vec<f32>) -> Arc<Vec<f32>> {
    let recycled = STORAGE_FREELIST
        .try_with(|fl| fl.borrow_mut().pop())
        .ok()
        .flatten();
    match recycled {
        Some(mut arc) => {
            // Parked shells are uniquely owned by construction (Drop
            // only parks after proving unique ownership).
            *Arc::get_mut(&mut arc).expect("parked storage shell must be unique") = buf;
            arc
        }
        None => Arc::new(buf),
    }
}

/// Shared empty storage swapped into a tensor being dropped so its real
/// buffer can be extracted without allocating a replacement.
fn hollow_storage() -> Arc<Vec<f32>> {
    static HOLLOW: OnceLock<Arc<Vec<f32>>> = OnceLock::new();
    Arc::clone(HOLLOW.get_or_init(|| Arc::new(Vec::new())))
}

/// Recycles pool-compatible buffers when the last owner drops: a
/// uniquely-owned backing buffer is offered back to the thread-local
/// [`crate::pool`] (which accepts exactly the power-of-two capacities it
/// hands out), closing the allocate/reuse loop for kernel outputs and
/// gradients without any manual recycle calls. Shared buffers and
/// exact-size vectors from ordinary constructors pass through to the
/// normal deallocation path.
impl Drop for Tensor {
    fn drop(&mut self) {
        if Arc::strong_count(&self.data) != 1 || self.data.capacity() == 0 {
            return;
        }
        let mut data = std::mem::replace(&mut self.data, hollow_storage());
        if Arc::get_mut(&mut data)
            .map(|buf| crate::pool::give(std::mem::take(buf)))
            .is_some()
        {
            // The buffer went back to the pool; park the now-empty Arc
            // shell so the next output tensor skips the control-block
            // allocation too.
            let _ = STORAGE_FREELIST.try_with(|fl| {
                let mut fl = fl.borrow_mut();
                if fl.len() < STORAGE_FREELIST_CAP {
                    fl.push(data);
                }
            });
        }
    }
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        track_buffer(data.len());
        Tensor {
            data: alloc_storage(data),
            shape,
        }
    }

    /// Wraps a buffer obtained from [`crate::pool::take`] without
    /// counting a fresh allocation (the pool's own hit/miss counters
    /// already account for it).
    pub(crate) fn from_pool_buf(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        debug_assert_eq!(data.len(), shape.numel());
        Tensor {
            data: alloc_storage(data),
            shape,
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        let mut buf = crate::pool::take_scratch(1);
        buf[0] = value;
        Tensor {
            data: alloc_storage(buf),
            shape: Shape::scalar(),
        }
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: alloc_storage(crate::pool::take(shape.numel())),
            shape,
        }
    }

    /// All-one tensor of the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant tensor of the given shape.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let mut buf = crate::pool::take_scratch(shape.numel());
        buf.fill(value);
        Tensor {
            data: alloc_storage(buf),
            shape,
        }
    }

    /// Tensor of iid standard-normal samples.
    pub fn randn(shape: impl Into<Shape>, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.normal()).collect();
        track_buffer(shape.numel());
        Tensor {
            data: alloc_storage(data),
            shape,
        }
    }

    /// Tensor of iid uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.uniform(lo, hi)).collect();
        track_buffer(shape.numel());
        Tensor {
            data: alloc_storage(data),
            shape,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// The flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Bytes of the heap buffer backing this tensor. Clones share the
    /// buffer, so summing `heap_bytes` over clones double-counts; callers
    /// accounting memory should sum over owning collections only.
    pub fn heap_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Mutable access to the data (copy-on-write if shared).
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// The element at the given coordinates.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-range coordinates.
    pub fn at(&self, coords: &[usize]) -> f32 {
        self.data[self.shape.ravel(coords)]
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {}", self.shape);
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "cannot reshape {} into {}",
            self.shape,
            shape
        );
        Tensor {
            data: Arc::clone(&self.data),
            shape,
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = crate::pool::take_scratch(self.data.len());
        for (slot, &x) in out.iter_mut().zip(self.data.iter()) {
            *slot = f(x);
        }
        Tensor {
            data: alloc_storage(out),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f(self_elem, other_elem)` with numpy-style broadcasting.
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.shape == other.shape {
            let mut data = crate::pool::take_scratch(self.data.len());
            for (slot, (&a, &b)) in data.iter_mut().zip(self.data.iter().zip(other.data.iter())) {
                *slot = f(a, b);
            }
            return Tensor {
                data: alloc_storage(data),
                shape: self.shape.clone(),
            };
        }
        let out_shape = self.shape.broadcast(&other.shape).unwrap_or_else(|| {
            panic!(
                "shapes {} and {} not broadcastable",
                self.shape, other.shape
            )
        });
        // Every output slot is written below, so unzeroed scratch is safe.
        let mut out = crate::pool::take_scratch(out_shape.numel());
        let (a, b) = (self.data(), other.data());
        for_each_broadcast(&out_shape, [&self.shape, &other.shape], |i, [ia, ib]| {
            out[i] = f(a[ia], b[ib]);
        });
        Tensor {
            data: alloc_storage(out),
            shape: out_shape,
        }
    }

    /// In-place `self += alpha * other` (same shape required).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        let dst = self.data_mut();
        for (d, &s) in dst.iter_mut().zip(other.data.iter()) {
            *d += alpha * s;
        }
    }

    /// In-place elementwise scale.
    pub fn scale_mut(&mut self, alpha: f32) {
        for d in self.data_mut() {
            *d *= alpha;
        }
    }

    /// Sum of all elements (f64 accumulation for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(self.numel() > 0, "max of empty tensor");
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(self.numel() > 0, "min of empty tensor");
        self.data.iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        (self
            .data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>())
        .sqrt() as f32
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum::<f64>() as f32
    }

    /// Whether every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Reduces this tensor (a broadcast result gradient) back to `target`,
    /// summing over broadcast axes. This is the adjoint of broadcasting and
    /// is used by autograd backward passes.
    ///
    /// # Panics
    /// Panics if `target` is not broadcast-compatible with `self.shape()`.
    pub fn sum_to(&self, target: &Shape) -> Tensor {
        if &self.shape == target {
            return self.clone();
        }
        assert!(
            target.broadcast(&self.shape) == Some(self.shape.clone()),
            "cannot reduce {} to {}",
            self.shape,
            target
        );
        let mut out = crate::pool::take(target.numel());
        // Source elements accumulate into their target slots in source
        // order — the transpose of the forward broadcast walk.
        let src = self.data();
        for_each_broadcast(&self.shape, [target], |i, [t]| out[t] += src[i]);
        Tensor {
            data: alloc_storage(out),
            shape: target.clone(),
        }
    }
}

/// Walks the broadcast result shape `out` in row-major order, calling
/// `f(i, idx)` for output element `i` with `idx[s]` the flat index of the
/// element of `srcs[s]` that feeds it (stride 0 on stretched and missing
/// leading axes). An incremental odometer advances every source index per
/// step, so the walk never unravels a coordinate vector per element and,
/// for rank ≤ [`INLINE_RANK`], never touches the heap.
pub(crate) fn for_each_broadcast<const N: usize>(
    out: &Shape,
    srcs: [&Shape; N],
    mut f: impl FnMut(usize, [usize; N]),
) {
    // Per output axis: (size, per-source stride, odometer position).
    let rank = out.rank();
    let mut inline = [(0usize, [0usize; N], 0usize); INLINE_RANK];
    let mut heap;
    let axes: &mut [(usize, [usize; N], usize)] = if rank <= INLINE_RANK {
        &mut inline[..rank]
    } else {
        heap = vec![(0usize, [0usize; N], 0usize); rank];
        &mut heap
    };
    for (ax, axis) in axes.iter_mut().enumerate() {
        axis.0 = out.dim(ax);
    }
    for (s, src) in srcs.iter().enumerate() {
        let offset = rank - src.rank();
        let mut stride = 1usize;
        for ax in (0..src.rank()).rev() {
            let d = src.dim(ax);
            if d != 1 {
                axes[ax + offset].1[s] = stride;
            }
            stride *= d;
        }
    }
    let mut idx = [0usize; N];
    for i in 0..out.numel() {
        f(i, idx);
        for (size, strides, pos) in axes.iter_mut().rev() {
            *pos += 1;
            for (x, &st) in idx.iter_mut().zip(strides.iter()) {
                *x += st;
            }
            if *pos < *size {
                break;
            }
            for (x, &st) in idx.iter_mut().zip(strides.iter()) {
                *x -= st * *size;
            }
            *pos = 0;
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).cloned().collect();
        let ellipsis = if self.numel() > 8 { ", …" } else { "" };
        write!(f, "Tensor({} {:?}{})", self.shape, preview, ellipsis)
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

// ---- elementwise operators (broadcasting) ----

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $f:expr) => {
        impl std::ops::$trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_broadcast(rhs, $f)
            }
        }
        impl std::ops::$trait<Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
        impl std::ops::$trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|x| $f(x, rhs))
            }
        }
        impl std::ops::$trait<f32> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|x| $f(x, rhs))
            }
        }
    };
}

impl_binop!(Add, add, |a: f32, b: f32| a + b);
impl_binop!(Sub, sub, |a: f32, b: f32| a - b);
impl_binop!(Mul, mul, |a: f32, b: f32| a * b);
impl_binop!(Div, div, |a: f32, b: f32| a / b);

impl std::ops::Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl std::ops::Neg for Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0; 6], [2, 3]);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], [2, 3]);
    }

    #[test]
    fn clone_is_shallow_mutation_is_cow() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data()[0], 1.0);
        assert_eq!(b.data()[0], 9.0);
    }

    #[test]
    fn elementwise_add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        assert_eq!((&a + &b).data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn broadcast_row_vector_over_matrix() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let r = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        let out = &m + &r;
        assert_eq!(out.shape().dims(), &[2, 3]);
        assert_eq!(out.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_vector_over_matrix() {
        let m = Tensor::ones([2, 3]);
        let c = Tensor::from_vec(vec![1.0, 2.0], [2, 1]);
        let out = &m * &c;
        assert_eq!(out.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_vec(vec![1.0, -2.0], [2]);
        assert_eq!((&a * 2.0).data(), &[2.0, -4.0]);
        assert_eq!((&a + 1.0).data(), &[2.0, -1.0]);
        assert_eq!((-&a).data(), &[-1.0, 2.0]);
    }

    #[test]
    fn sum_to_reverses_broadcast() {
        let g = Tensor::ones([2, 3]);
        let reduced = g.sum_to(&Shape::new(vec![3]));
        assert_eq!(reduced.data(), &[2.0, 2.0, 2.0]);
        let reduced2 = g.sum_to(&Shape::new(vec![2, 1]));
        assert_eq!(reduced2.data(), &[3.0, 3.0]);
    }

    #[test]
    fn broadcast_walk_matches_coordinate_unravel() {
        // Source index of every output element, recomputed the slow way
        // (unravel, then drop stretched and missing axes). Rank 5 takes
        // the walk's heap path; the others stay inline.
        let naive = |src: &Shape, out: &Shape, i: usize| {
            let coords = out.unravel(i);
            let offset = out.rank() - src.rank();
            let strides = src.strides();
            (0..src.rank())
                .map(|ax| {
                    if src.dim(ax) == 1 {
                        0
                    } else {
                        coords[ax + offset] * strides[ax]
                    }
                })
                .sum::<usize>()
        };
        for (a, b) in [
            (vec![2, 1, 3], vec![4, 1]),
            (vec![1, 3, 1, 2], vec![2, 1, 4, 1]),
            (vec![2, 1, 3, 1, 2], vec![1, 2, 1, 3, 1]),
            (vec![], vec![2, 2]),
        ] {
            let (sa, sb) = (Shape::new(a), Shape::new(b));
            let out = sa.broadcast(&sb).expect("compatible");
            let x = Tensor::from_vec((0..sa.numel()).map(|v| v as f32).collect(), sa.clone());
            let y = Tensor::from_vec(
                (0..sb.numel()).map(|v| 1e3 * v as f32).collect(),
                sb.clone(),
            );
            let z = &x + &y;
            for i in 0..out.numel() {
                let want = naive(&sa, &out, i) as f32 + 1e3 * naive(&sb, &out, i) as f32;
                assert_eq!(z.data()[i], want, "{out} element {i}");
            }
            // sum_to is the adjoint: scattering ones counts how many output
            // elements each source element feeds.
            let counts = Tensor::ones(out.clone()).sum_to(&sa);
            let mut want = vec![0.0f32; sa.numel()];
            for i in 0..out.numel() {
                want[naive(&sa, &out, i)] += 1.0;
            }
            assert_eq!(counts.data(), &want[..], "{out} -> {sa}");
        }
    }

    #[test]
    fn sum_to_scalar() {
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        assert_eq!(g.sum_to(&Shape::scalar()).item(), 6.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::from_vec(vec![3.0, 4.0], [2]);
        assert_eq!(a.l2_norm(), 5.0);
        let b = Tensor::from_vec(vec![1.0, 2.0], [2]);
        assert_eq!(a.dot(&b), 11.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let r = t.reshape([4]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[4]);
    }

    #[test]
    fn add_scaled_in_place() {
        let mut a = Tensor::zeros([3]);
        let b = Tensor::ones([3]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[0.5, 0.5, 0.5]);
    }

    #[test]
    fn randn_is_seeded() {
        let mut r1 = Rng::new(5);
        let mut r2 = Rng::new(5);
        let a = Tensor::randn([4, 4], &mut r1);
        let b = Tensor::randn([4, 4], &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::ones([2]);
        assert!(t.is_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.is_finite());
    }
}
