//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Var`] wraps a [`Tensor`] plus the recipe that produced it. Calling
//! [`Var::backward`] on a scalar output walks the recorded graph in reverse
//! topological order and accumulates gradients into every upstream node that
//! requires them — network parameters *and* input images alike, which is
//! exactly what dataset condensation needs (the synthetic images are leaves
//! with `requires_grad = true`).
//!
//! The graph is rebuilt on every forward pass (define-by-run); nodes are
//! reference-counted and freed when the last `Var` handle drops.
//!
//! ```
//! use deco_tensor::{Tensor, Var};
//! let x = Var::leaf(Tensor::from_vec(vec![1.0, 2.0], [2]), true);
//! let y = x.mul(&x).sum(); // y = Σ x²
//! y.backward();
//! assert_eq!(x.grad().unwrap().data(), &[2.0, 4.0]); // dy/dx = 2x
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use crate::ops::conv::{self, Conv2dSpec};
use crate::shape::Shape;
use crate::tensor::Tensor;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    // Live-tape byte accounting. The tape is Rc-based and therefore
    // confined to one thread, so plain Cells suffice; the global
    // tracker's AutogradTape component is updated alongside so
    // process-wide snapshots see the sum over threads.
    static TAPE_BYTES: Cell<i64> = const { Cell::new(0) };
    static TAPE_PEAK: Cell<i64> = const { Cell::new(0) };
    static ARENA: RefCell<ArenaState> = RefCell::new(ArenaState::new());
}

/// Upper bound on recycled `Rc<Node>` allocations parked between arena
/// scopes (a hollow node is ~100 bytes, so the cap is ~1 MiB/thread).
const NODE_FREE_CAP: usize = 8192;
/// Upper bound on recycled (empty) parent vectors.
const PARENT_FREE_CAP: usize = 8192;

/// Per-thread tape arena. While a scope opened by [`with_tape_arena`]
/// is active, every node built on this thread is also registered here;
/// when the scope ends, registered nodes whose last external handle has
/// dropped are *reset* (value hollowed, grad cleared, parents detached,
/// closure freed — each returning its heap to the buffer pool) and the
/// `Rc<Node>` allocation plus the parent `Vec` are parked on free lists
/// for the next tape instead of round-tripping the global allocator.
///
/// Nodes still referenced at scope end — `Param`-bound leaves, returned
/// gradients — are skipped and drop normally later, so the arena never
/// changes what a caller can observe. Reused nodes are stamped with a
/// fresh id ([`fresh_id`]), which `backward_with`'s visited-set relies
/// on.
struct ArenaState {
    /// Registry length at entry of each active (possibly nested) scope.
    scope_starts: Vec<usize>,
    /// Every node created while a scope was active, in creation order.
    registry: Vec<Var>,
    node_free: Vec<Rc<Node>>,
    parent_free: Vec<Vec<Var>>,
    /// Peak number of simultaneously registered nodes (proxy for the
    /// largest single tape built on this thread).
    high_water: u64,
}

impl ArenaState {
    fn new() -> Self {
        ArenaState {
            scope_starts: Vec::new(),
            registry: Vec::new(),
            node_free: Vec::new(),
            parent_free: Vec::new(),
            high_water: 0,
        }
    }
}

/// Runs `f` inside an autograd node-arena scope: tape nodes built
/// during `f` whose handles are dropped by the time the scope ends are
/// reset and recycled for the next scope on this thread instead of
/// round-tripping the global allocator. Values and gradients are
/// unaffected; scopes nest.
pub fn with_tape_arena<R>(f: impl FnOnce() -> R) -> R {
    // Scope end must run even if `f` panics, or the registry would pin
    // nodes (and their tensors) for the life of the thread.
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            arena_end_scope();
        }
    }
    let _ = ARENA.try_with(|a| {
        let mut a = a.borrow_mut();
        let len = a.registry.len();
        a.scope_starts.push(len);
    });
    let _guard = Guard;
    f()
}

/// High-water mark of live arena-scope nodes on this thread (a proxy
/// for the largest tape a single scope built). Mirrored to the
/// `tensor.tape.arena_node_high_water` telemetry gauge.
pub fn arena_node_high_water() -> u64 {
    ARENA.try_with(|a| a.borrow().high_water).unwrap_or(0)
}

fn arena_end_scope() {
    let _ = ARENA.try_with(|a| {
        let mut a = a.borrow_mut();
        let Some(start) = a.scope_starts.pop() else {
            return;
        };
        let live = a.registry.len() as u64;
        if live > a.high_water {
            a.high_water = live;
        }
        // Mirrored unconditionally, not just on a new record: a
        // telemetry reset clears the gauge registry, and an
        // already-reached high water would otherwise never re-register.
        deco_telemetry::gauge_set!(
            "tensor.tape.arena_node_high_water",
            a.high_water.min(i64::MAX as u64) as i64
        );
        // Reverse creation order: children release their parent handles
        // first, so by the time a parent is popped it is usually
        // uniquely owned and can be reset in place (this also turns the
        // recursive drop of deep graphs into an iterative sweep).
        while a.registry.len() > start {
            let var = a.registry.pop().expect("registry length checked");
            let Var { node } = var;
            let mut rc = node;
            let Some(node) = Rc::get_mut(&mut rc) else {
                // Still referenced outside the scope (Param-bound leaf,
                // returned output); it drops normally later.
                continue;
            };
            // Release the byte charge now and zero it so the eventual
            // Node::drop of the recycled allocation stays balanced.
            if node.tracked_bytes != 0 {
                TAPE_BYTES.with(|b| b.set(b.get() - node.tracked_bytes as i64));
                deco_telemetry::global_tracker().free(
                    deco_telemetry::MemoryComponent::AutogradTape,
                    node.tracked_bytes,
                );
                node.tracked_bytes = 0;
            }
            node.value = Tensor::hollow();
            *node.grad.borrow_mut() = None;
            let mut parents = std::mem::take(&mut node.parents);
            parents.clear();
            if a.parent_free.len() < PARENT_FREE_CAP {
                a.parent_free.push(parents);
            }
            // The boxed closure itself is freed, not recycled: its size
            // varies per op, so a free list could not reuse it anyway.
            node.backward = None;
            if a.node_free.len() < NODE_FREE_CAP {
                a.node_free.push(rc);
            }
        }
    });
}

fn fresh_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Bytes held by autograd nodes still alive on this thread's tape.
pub fn tape_current_bytes() -> u64 {
    TAPE_BYTES.with(|c| c.get()).max(0) as u64
}

/// High-water mark of this thread's live tape since the last
/// [`reset_tape_peak`]. Zero unless telemetry was enabled while graphs
/// were built.
pub fn tape_peak_bytes() -> u64 {
    TAPE_PEAK.with(|c| c.get()).max(0) as u64
}

/// Resets this thread's tape high-water mark to the current level.
pub fn reset_tape_peak() {
    TAPE_BYTES.with(|b| TAPE_PEAK.with(|p| p.set(b.get())));
}

/// Accounts a freshly created node; returns the bytes to remember for
/// the matching free on drop (0 when telemetry is disabled).
fn track_node(value: &Tensor) -> u64 {
    if !deco_telemetry::is_enabled() {
        return 0;
    }
    let bytes = value.heap_bytes() + std::mem::size_of::<Node>() as u64;
    TAPE_BYTES.with(|b| {
        let now = b.get() + bytes as i64;
        b.set(now);
        TAPE_PEAK.with(|p| p.set(p.get().max(now)));
    });
    deco_telemetry::global_tracker().alloc(deco_telemetry::MemoryComponent::AutogradTape, bytes);
    bytes
}

/// Reduction mode for loss-style operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Sum over the batch.
    Sum,
    /// Mean over the batch.
    #[default]
    Mean,
}

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Option<Tensor>>>;

/// Cap on recycled parent-gradient vectors parked per thread (each is
/// a handful of machine words once cleared).
const GRADVEC_FREE_CAP: usize = 64;

thread_local! {
    /// Spent parent-gradient vectors recycled by [`Var::backward_with`]
    /// so steady-state backward passes stop allocating the per-node
    /// return `Vec`.
    static GRADVEC_FREE: RefCell<Vec<Vec<Option<Tensor>>>> = const { RefCell::new(Vec::new()) };
    /// Recycled traversal state for `backward_with` (topological order,
    /// visited set, DFS stack), reused across backward passes.
    static BWD_SCRATCH: RefCell<Option<BackwardScratch>> = const { RefCell::new(None) };
}

/// An empty parent-gradient vector from the thread's free list, keeping
/// whatever capacity its previous life grew to. Used via `grads!`.
fn take_grad_vec() -> Vec<Option<Tensor>> {
    GRADVEC_FREE
        .try_with(|fl| fl.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Parks a spent parent-gradient vector for reuse; its elements must
/// already have been taken.
fn park_grad_vec(mut v: Vec<Option<Tensor>>) {
    v.clear();
    let _ = GRADVEC_FREE.try_with(|fl| {
        let mut fl = fl.borrow_mut();
        if fl.len() < GRADVEC_FREE_CAP {
            fl.push(v);
        }
    });
}

/// Builds a backward closure's return vector from the recycled pool
/// instead of a fresh `vec![...]` allocation.
macro_rules! grads {
    ($($g:expr),* $(,)?) => {{
        let mut v = take_grad_vec();
        $(v.push($g);)*
        v
    }};
}

/// DFS work item for `backward_with`'s iterative topological sort.
enum Visit {
    Enter(Var),
    Exit(Var),
}

/// Reusable traversal state for `backward_with`.
#[derive(Default)]
struct BackwardScratch {
    order: Vec<Var>,
    seen: HashSet<u64>,
    stack: Vec<Visit>,
}

struct Node {
    id: u64,
    value: Tensor,
    requires_grad: bool,
    grad: RefCell<Option<Tensor>>,
    parents: Vec<Var>,
    /// Maps the output gradient to one gradient per parent (None for parents
    /// that do not require gradients).
    backward: Option<BackwardFn>,
    /// Bytes charged to the tape when this node was created; released on
    /// drop. Zero when telemetry was disabled at creation.
    tracked_bytes: u64,
}

impl Drop for Node {
    fn drop(&mut self) {
        if self.tracked_bytes == 0 {
            return;
        }
        // Release unconditionally (not gated on is_enabled) so charges
        // balance even if telemetry is toggled while nodes are live.
        TAPE_BYTES.with(|b| b.set(b.get() - self.tracked_bytes as i64));
        deco_telemetry::global_tracker().free(
            deco_telemetry::MemoryComponent::AutogradTape,
            self.tracked_bytes,
        );
    }
}

/// A node in the autograd graph: a tensor value plus its differentiation
/// recipe. Cloning is cheap (shared node).
#[derive(Clone)]
pub struct Var {
    node: Rc<Node>,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Var(id={}, value={:?}, requires_grad={})",
            self.node.id, self.node.value, self.node.requires_grad
        )
    }
}

impl Var {
    /// Creates a graph leaf. Pass `requires_grad = true` for anything whose
    /// gradient you want to read after `backward` (parameters, synthetic
    /// images); `false` for plain data.
    pub fn leaf(value: Tensor, requires_grad: bool) -> Var {
        Var::alloc_node(value, requires_grad, &[], None)
    }

    /// A leaf that never receives gradients (e.g. labels, masks).
    pub fn constant(value: Tensor) -> Var {
        Var::leaf(value, false)
    }

    fn from_op(value: Tensor, parents: &[&Var], backward: BackwardFn) -> Var {
        let requires_grad = parents.iter().any(|p| p.requires_grad());
        let backward = if requires_grad { Some(backward) } else { None };
        Var::alloc_node(value, requires_grad, parents, backward)
    }

    /// Builds a node, reusing a recycled allocation and parent vector
    /// from the thread's arena when a scope is active (see
    /// [`ArenaState`]). Recycled nodes get a fresh id — `backward`'s
    /// visited set keys on ids, so reuse must never repeat one.
    fn alloc_node(
        value: Tensor,
        requires_grad: bool,
        parents: &[&Var],
        backward: Option<BackwardFn>,
    ) -> Var {
        let tracked_bytes = track_node(&value);
        let (slot, mut parent_vec) = ARENA
            .try_with(|a| {
                let mut a = a.borrow_mut();
                if a.scope_starts.is_empty() {
                    (None, Vec::new())
                } else {
                    (a.node_free.pop(), a.parent_free.pop().unwrap_or_default())
                }
            })
            .unwrap_or((None, Vec::new()));
        parent_vec.reserve(parents.len());
        for p in parents {
            parent_vec.push((*p).clone());
        }
        let var = match slot {
            Some(mut rc) => {
                let node = Rc::get_mut(&mut rc).expect("arena freelist node is uniquely owned");
                node.id = fresh_id();
                node.value = value;
                node.requires_grad = requires_grad;
                node.parents = parent_vec;
                node.backward = backward;
                node.tracked_bytes = tracked_bytes;
                debug_assert!(node.grad.borrow().is_none(), "recycled node kept a grad");
                Var { node: rc }
            }
            None => Var {
                node: Rc::new(Node {
                    id: fresh_id(),
                    value,
                    requires_grad,
                    grad: RefCell::new(None),
                    parents: parent_vec,
                    backward,
                    tracked_bytes,
                }),
            },
        };
        let _ = ARENA.try_with(|a| {
            let mut a = a.borrow_mut();
            if !a.scope_starts.is_empty() {
                a.registry.push(var.clone());
            }
        });
        var
    }

    /// The forward value.
    pub fn value(&self) -> &Tensor {
        &self.node.value
    }

    /// The value's shape.
    pub fn shape(&self) -> &Shape {
        self.node.value.shape()
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// The accumulated gradient, if `backward` has run through this node.
    pub fn grad(&self) -> Option<Tensor> {
        self.node.grad.borrow().clone()
    }

    /// Clears this node's accumulated gradient.
    pub fn zero_grad(&self) {
        *self.node.grad.borrow_mut() = None;
    }

    /// A detached copy: same value, no history, no gradient flow.
    pub fn detach(&self) -> Var {
        Var::constant(self.node.value.clone())
    }

    /// Runs reverse-mode differentiation from this node, seeding with a
    /// gradient of ones (call on scalars for standard loss semantics).
    pub fn backward(&self) {
        self.backward_with(Tensor::ones(self.shape().clone()));
    }

    /// Runs reverse-mode differentiation with an explicit seed gradient.
    ///
    /// # Panics
    /// Panics if the seed's shape differs from this node's value shape.
    pub fn backward_with(&self, seed: Tensor) {
        assert_eq!(
            seed.shape(),
            self.shape(),
            "seed gradient shape {} does not match value shape {}",
            seed.shape(),
            self.shape()
        );
        if !self.requires_grad() {
            return;
        }
        // Topological order over the subgraph that requires gradients,
        // using recycled traversal scratch (fresh only on first use or
        // under reentrancy). Iterative DFS avoids recursion limits.
        let mut scratch = BWD_SCRATCH
            .try_with(|s| s.borrow_mut().take())
            .ok()
            .flatten()
            .unwrap_or_default();
        let BackwardScratch { order, seen, stack } = &mut scratch;
        stack.push(Visit::Enter(self.clone()));
        while let Some(v) = stack.pop() {
            match v {
                Visit::Enter(var) => {
                    if seen.contains(&var.node.id) || !var.requires_grad() {
                        continue;
                    }
                    seen.insert(var.node.id);
                    stack.push(Visit::Exit(var.clone()));
                    for p in &var.node.parents {
                        stack.push(Visit::Enter(p.clone()));
                    }
                }
                Visit::Exit(var) => order.push(var),
            }
        }
        // Seed and propagate in reverse topological order.
        accumulate(&self.node.grad, seed);
        for var in order.iter().rev() {
            let Some(backward) = var.node.backward.as_ref() else {
                continue;
            };
            let grad_out = var
                .node
                .grad
                .borrow()
                .clone()
                .expect("node visited without gradient");
            let mut parent_grads = backward(&grad_out);
            assert_eq!(
                parent_grads.len(),
                var.node.parents.len(),
                "backward returned wrong number of parent gradients"
            );
            for (p, slot) in var.node.parents.iter().zip(parent_grads.iter_mut()) {
                if let Some(g) = slot.take() {
                    if p.requires_grad() {
                        assert_eq!(
                            g.shape(),
                            p.shape(),
                            "gradient shape {} does not match parent shape {}",
                            g.shape(),
                            p.shape()
                        );
                        accumulate(&p.node.grad, g);
                    }
                }
            }
            park_grad_vec(parent_grads);
            // This non-leaf node's gradient has been fully consumed;
            // release it eagerly so its buffer returns to the pool
            // instead of living until the graph drops. Leaves (no
            // backward fn) keep theirs — they are what callers read.
            *var.node.grad.borrow_mut() = None;
        }
        // Release the node handles (the arena relies on unique ownership
        // at scope end) and park the scratch for the next pass.
        order.clear();
        seen.clear();
        let _ = BWD_SCRATCH.try_with(|s| *s.borrow_mut() = Some(scratch));
    }

    // ---- elementwise arithmetic (broadcasting) ----

    /// Elementwise sum with broadcasting.
    pub fn add(&self, rhs: &Var) -> Var {
        let value = self.value() + rhs.value();
        let (sa, sb) = (self.shape().clone(), rhs.shape().clone());
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| grads![Some(g.sum_to(&sa)), Some(g.sum_to(&sb))]),
        )
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&self, rhs: &Var) -> Var {
        let value = self.value() - rhs.value();
        let (sa, sb) = (self.shape().clone(), rhs.shape().clone());
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| grads![Some(g.sum_to(&sa)), Some((-g).sum_to(&sb))]),
        )
    }

    /// Elementwise product with broadcasting.
    pub fn mul(&self, rhs: &Var) -> Var {
        let value = self.value() * rhs.value();
        let (sa, sb) = (self.shape().clone(), rhs.shape().clone());
        let (va, vb) = (self.value().clone(), rhs.value().clone());
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| grads![Some((g * &vb).sum_to(&sa)), Some((g * &va).sum_to(&sb))]),
        )
    }

    /// Elementwise quotient with broadcasting.
    pub fn div(&self, rhs: &Var) -> Var {
        let value = self.value() / rhs.value();
        let (sa, sb) = (self.shape().clone(), rhs.shape().clone());
        let (va, vb) = (self.value().clone(), rhs.value().clone());
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| {
                let ga = (g / &vb).sum_to(&sa);
                let gb = (&(&(-g) * &va) / &(&vb * &vb)).sum_to(&sb);
                grads![Some(ga), Some(gb)]
            }),
        )
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        let value = -self.value();
        Var::from_op(value, &[self], Box::new(move |g| grads![Some(-g)]))
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, c: f32) -> Var {
        let value = self.value() + c;
        Var::from_op(value, &[self], Box::new(move |g| grads![Some(g.clone())]))
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, c: f32) -> Var {
        let value = self.value() * c;
        Var::from_op(value, &[self], Box::new(move |g| grads![Some(g * c)]))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let v = self.value().clone();
        let value = self.value() * self.value();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(&(g * 2.0) * &v)]),
        )
    }

    /// Elementwise square root.
    ///
    /// The derivative is `1 / (2√x)`; keep inputs positive for stability.
    pub fn sqrt(&self) -> Var {
        let value = self.value().map(f32::sqrt);
        let out = value.clone();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(g * &out.map(|y| 0.5 / y))]),
        )
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Var {
        let value = self.value().map(f32::exp);
        let out = value.clone();
        Var::from_op(value, &[self], Box::new(move |g| grads![Some(g * &out)]))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        let v = self.value().clone();
        let value = self.value().map(f32::ln);
        Var::from_op(value, &[self], Box::new(move |g| grads![Some(g / &v)]))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let v = self.value().clone();
        let value = self.value().map(|x| x.max(0.0));
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                grads![Some(g.zip_broadcast(&v, |gi, xi| if xi > 0.0 {
                    gi
                } else {
                    0.0
                }),)]
            }),
        )
    }

    /// Subtracts a scalar.
    pub fn sub_scalar(&self, c: f32) -> Var {
        self.add_scalar(-c)
    }

    /// Divides by a scalar.
    ///
    /// # Panics
    /// Panics if `c == 0`.
    pub fn div_scalar(&self, c: f32) -> Var {
        assert!(c != 0.0, "division by zero scalar");
        self.mul_scalar(1.0 / c)
    }

    /// Elementwise integer power (composed from repeated squaring of the
    /// graph for small `n`; use `square` for `n = 2`).
    ///
    /// # Panics
    /// Panics if `n == 0` (a constant; differentiate nothing instead).
    pub fn powi(&self, n: u32) -> Var {
        assert!(n >= 1, "powi(0) is a constant — use a constant Var");
        let mut acc = self.clone();
        for _ in 1..n {
            acc = acc.mul(self);
        }
        acc
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.value().map(f32::tanh);
        let out = value.clone();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(g * &out.map(|y| 1.0 - y * y))]),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.value().map(|x| 1.0 / (1.0 + (-x).exp()));
        let out = value.clone();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(g * &out.map(|y| y * (1.0 - y)))]),
        )
    }

    /// Leaky rectified linear unit with negative slope `slope`.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let v = self.value().clone();
        let value = self.value().map(|x| if x > 0.0 { x } else { slope * x });
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                grads![Some(g.zip_broadcast(&v, |gi, xi| {
                    if xi > 0.0 {
                        gi
                    } else {
                        slope * gi
                    }
                }))]
            }),
        )
    }

    /// Elementwise absolute value (subgradient 0 at the origin).
    pub fn abs(&self) -> Var {
        let v = self.value().clone();
        let value = self.value().map(f32::abs);
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                grads![Some(g.zip_broadcast(&v, |gi, xi| {
                    if xi == 0.0 {
                        0.0
                    } else {
                        gi * xi.signum()
                    }
                }))]
            }),
        )
    }

    // ---- structure ----

    /// Reshapes without copying.
    pub fn reshape(&self, dims: impl Into<Shape>) -> Var {
        let dims = dims.into();
        let value = self.value().reshape(dims);
        let orig = self.shape().clone();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(g.reshape(orig.clone()))]),
        )
    }

    /// Gathers rows by index (axis 0); gradient scatters back, accumulating
    /// over repeated indices.
    pub fn select_rows(&self, indices: &[usize]) -> Var {
        let value = self.value().select_rows(indices);
        let idx = indices.to_vec();
        let n = self.shape().dim(0);
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(g.scatter_rows_add(&idx, n))]),
        )
    }

    /// Concatenates along axis 0.
    ///
    /// # Panics
    /// Panics on an empty slice or mismatched trailing dims.
    pub fn concat_rows(parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows needs at least one Var");
        let tensors: Vec<&Tensor> = parts.iter().map(Var::value).collect();
        let value = Tensor::concat_rows(&tensors);
        let row_counts: Vec<usize> = parts.iter().map(|p| p.shape().dim(0)).collect();
        let parent_refs: Vec<&Var> = parts.iter().collect();
        Var::from_op(
            value,
            &parent_refs,
            Box::new(move |g| {
                let mut grads = take_grad_vec();
                grads.reserve(row_counts.len());
                let mut start = 0usize;
                for &rows in &row_counts {
                    let idx: Vec<usize> = (start..start + rows).collect();
                    grads.push(Some(g.select_rows(&idx)));
                    start += rows;
                }
                grads
            }),
        )
    }

    /// Spatial translation (NCHW); gradient is the opposite translation.
    pub fn shift2d(&self, dy: isize, dx: isize) -> Var {
        let value = self.value().shift2d(dy, dx);
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(g.shift2d(-dy, -dx))]),
        )
    }

    /// Horizontal mirror (NCHW); gradient mirrors back.
    pub fn flip_w(&self) -> Var {
        let value = self.value().flip_w();
        Var::from_op(value, &[self], Box::new(move |g| grads![Some(g.flip_w())]))
    }

    // ---- linear algebra ----

    /// Matrix product of rank-2 vars.
    pub fn matmul(&self, rhs: &Var) -> Var {
        let value = self.value().matmul(rhs.value());
        let (a, b) = (self.value().clone(), rhs.value().clone());
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| {
                let ga = g.matmul(&b.transpose2());
                let gb = a.transpose2().matmul(g);
                grads![Some(ga), Some(gb)]
            }),
        )
    }

    /// Rank-2 transpose.
    pub fn t(&self) -> Var {
        let value = self.value().transpose2();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(g.transpose2())]),
        )
    }

    // ---- convolution ----

    /// 2-D convolution; gradients flow to input, weight and bias.
    ///
    /// When the node records a backward, the forward lowers the whole
    /// input batch into one im2col slab that the node keeps: the weight
    /// gradient multiplies against it instead of lowering the input a
    /// second time, and it is freed with the tape. No-grad convolutions
    /// lower image by image into scratch, exactly like
    /// [`Tensor::conv2d`]; both routes produce identical bits.
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, spec: Conv2dSpec) -> Var {
        let parents_need_grad =
            self.requires_grad() || weight.requires_grad() || bias.is_some_and(Var::requires_grad);
        let b = bias.map(Var::value);
        if !parents_need_grad {
            let value = conv::conv2d_impl(self.value(), weight.value(), b, spec, None);
            return match bias {
                Some(b) => Var::alloc_node(value, false, &[self, weight, b], None),
                None => Var::alloc_node(value, false, &[self, weight], None),
            };
        }
        let slab = conv::im2col_slab(self.value(), spec);
        let value = conv::conv2d_impl(self.value(), weight.value(), b, spec, Some(&slab));
        let x = self.value().clone();
        let w = weight.value().clone();
        let hw = (self.shape().dim(2), self.shape().dim(3));
        let kernel = spec.kernel;
        let has_bias = bias.is_some();
        let backward: BackwardFn = Box::new(move |g| {
            let gx = g.conv2d_input_grad(&w, hw, spec);
            let gw = conv::conv2d_weight_grad_impl(g, &x, kernel, spec, Some(&slab));
            let mut out = grads![Some(gx), Some(gw)];
            if has_bias {
                out.push(Some(g.conv2d_bias_grad()));
            }
            out
        });
        match bias {
            Some(b) => Var::from_op(value, &[self, weight, b], backward),
            None => Var::from_op(value, &[self, weight], backward),
        }
    }

    /// Non-overlapping average pooling.
    pub fn avg_pool2d(&self, k: usize) -> Var {
        let value = self.value().avg_pool2d(k);
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(g.avg_pool2d_grad(k))]),
        )
    }

    /// Non-overlapping max pooling; the gradient routes to the winning
    /// input positions.
    pub fn max_pool2d(&self, k: usize) -> Var {
        let (value, indices) = self.value().max_pool2d(k);
        let input_numel = self.value().numel();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(g.max_pool2d_grad(&indices, input_numel))]),
        )
    }

    // ---- reductions ----

    /// Sum of all elements (scalar output).
    pub fn sum(&self) -> Var {
        let value = Tensor::scalar(self.value().sum());
        let shape = self.shape().clone();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| grads![Some(Tensor::full(shape.clone(), g.item()))]),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Var {
        let n = self.value().numel() as f32;
        self.sum().mul_scalar(1.0 / n)
    }

    /// Sum over axes, keeping reduced axes with size 1.
    pub fn sum_axes_keepdim(&self, axes: &[usize]) -> Var {
        let value = self.value().sum_axes(axes, true);
        let shape = self.shape().clone();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                // Broadcast the reduced gradient back over the summed axes.
                grads![Some(
                    g.zip_broadcast(&Tensor::zeros(shape.clone()), |a, _| a,)
                )]
            }),
        )
    }

    /// Mean over axes, keeping reduced axes with size 1.
    pub fn mean_axes_keepdim(&self, axes: &[usize]) -> Var {
        let count: usize = axes.iter().map(|&a| self.shape().dim(a)).product();
        self.sum_axes_keepdim(axes).mul_scalar(1.0 / count as f32)
    }

    // ---- classification heads ----

    /// Row-wise log-softmax of a rank-2 tensor (`[n, classes]`).
    ///
    /// # Panics
    /// Panics unless the input is rank 2.
    pub fn log_softmax(&self) -> Var {
        assert_eq!(self.shape().rank(), 2, "log_softmax needs [n, classes]");
        let (n, c) = (self.shape().dim(0), self.shape().dim(1));
        let x = self.value().data();
        let mut out = vec![0.0f32; n * c];
        for i in 0..n {
            let row = &x[i * c..(i + 1) * c];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
            for j in 0..c {
                out[i * c + j] = row[j] - lse;
            }
        }
        let value = Tensor::from_vec(out, [n, c]);
        let logp = value.clone();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                // dx = g - softmax * rowsum(g)
                let gd = g.data();
                let lp = logp.data();
                let mut gx = vec![0.0f32; n * c];
                for i in 0..n {
                    let gsum: f32 = gd[i * c..(i + 1) * c].iter().sum();
                    for j in 0..c {
                        let p = lp[i * c + j].exp();
                        gx[i * c + j] = gd[i * c + j] - p * gsum;
                    }
                }
                grads![Some(Tensor::from_vec(gx, [n, c]))]
            }),
        )
    }

    /// Negative log-likelihood from row-wise log-probabilities, with
    /// optional per-sample weights (the paper's Eq. 4 confidence weighting).
    ///
    /// `self` must be `[n, classes]` log-probabilities (from
    /// [`Var::log_softmax`]).
    ///
    /// # Panics
    /// Panics on label/weight length mismatches or out-of-range labels.
    pub fn nll(&self, labels: &[usize], weights: Option<&[f32]>, reduction: Reduction) -> Var {
        assert_eq!(self.shape().rank(), 2, "nll needs [n, classes] log-probs");
        let (n, c) = (self.shape().dim(0), self.shape().dim(1));
        assert_eq!(labels.len(), n, "label count mismatch");
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "weight count mismatch");
        }
        let w: Vec<f32> = weights.map(<[f32]>::to_vec).unwrap_or_else(|| vec![1.0; n]);
        let lp = self.value().data();
        let mut total = 0.0f64;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range ({c} classes)");
            total -= (w[i] * lp[i * c + y]) as f64;
        }
        let scale = match reduction {
            Reduction::Sum => 1.0,
            Reduction::Mean => 1.0 / n as f32,
        };
        let value = Tensor::scalar(total as f32 * scale);
        let labels = labels.to_vec();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                let gv = g.item() * scale;
                let mut gx = vec![0.0f32; n * c];
                for (i, &y) in labels.iter().enumerate() {
                    gx[i * c + y] = -w[i] * gv;
                }
                grads![Some(Tensor::from_vec(gx, [n, c]))]
            }),
        )
    }

    /// Row-wise masked log-sum-exp of a rank-2 tensor: for each row `i`,
    /// `ln Σ_j mask[i,j]·exp(x[i,j])` over entries where `mask` is nonzero.
    /// Used by the feature-discrimination (contrastive) loss denominator.
    ///
    /// # Panics
    /// Panics on shape mismatch or if any row of `mask` is entirely zero.
    pub fn masked_log_sum_exp_rows(&self, mask: &Tensor) -> Var {
        assert_eq!(self.shape().rank(), 2, "masked LSE needs a rank-2 input");
        assert_eq!(self.shape(), mask.shape(), "mask shape mismatch");
        let (n, c) = (self.shape().dim(0), self.shape().dim(1));
        let x = self.value().data();
        let m = mask.data();
        let mut out = vec![0.0f32; n];
        let mut soft = vec![0.0f32; n * c]; // masked softmax, saved for backward
        for i in 0..n {
            let row = &x[i * c..(i + 1) * c];
            let mrow = &m[i * c..(i + 1) * c];
            let mx = row
                .iter()
                .zip(mrow)
                .filter(|(_, &mi)| mi != 0.0)
                .map(|(&v, _)| v)
                .fold(f32::NEG_INFINITY, f32::max);
            assert!(
                mx.is_finite(),
                "masked_log_sum_exp_rows: row {i} has an all-zero mask"
            );
            let mut z = 0.0f32;
            for j in 0..c {
                if mrow[j] != 0.0 {
                    let e = (row[j] - mx).exp();
                    soft[i * c + j] = e;
                    z += e;
                }
            }
            for j in 0..c {
                soft[i * c + j] /= z;
            }
            out[i] = mx + z.ln();
        }
        let value = Tensor::from_vec(out, [n]);
        let soft = Tensor::from_vec(soft, [n, c]);
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                let gd = g.data();
                let s = soft.data();
                let mut gx = vec![0.0f32; n * c];
                for i in 0..n {
                    for j in 0..c {
                        gx[i * c + j] = gd[i] * s[i * c + j];
                    }
                }
                grads![Some(Tensor::from_vec(gx, [n, c]))]
            }),
        )
    }

    // ---- fused ConvNet-block ops (bitwise-preserving) ----
    //
    // Each op below runs a fused single-node kernel from
    // `crate::ops::fused` in place of a chain of the tape ops above. The
    // fused kernels replicate the chain's per-element f32 operation and
    // accumulation order, so both produce identical bits — fusion only
    // changes how many tape nodes and intermediate tensors exist.
    // `deco-conformance` keeps the chains as reference implementations and
    // holds these ops to them bit for bit.

    /// Fused group normalization (over `groups` channel groups, epsilon
    /// `eps`) with `[1, c, 1, 1]` affine parameters, followed by relu.
    ///
    /// Bitwise identical to
    /// `reshape → mean → sub → square → mean → add_scalar → sqrt → div →
    /// reshape → mul(gamma) → add(beta) → relu`, but records one tape
    /// node and runs one backward kernel instead of eleven.
    ///
    /// # Panics
    /// Panics unless `self` is `[n, c, h, w]` with `c % groups == 0` and
    /// `gamma`/`beta` have `c` elements.
    pub fn group_norm_relu(&self, gamma: &Var, beta: &Var, groups: usize, eps: f32) -> Var {
        crate::fusion::count_group_norm_relu();
        let (out, mean, std) = crate::ops::fused::group_norm_relu_fwd(
            self.value(),
            gamma.value(),
            beta.value(),
            groups,
            eps,
        );
        let x = self.value().clone();
        let gam = gamma.value().clone();
        let (gshape, bshape) = (gamma.shape().clone(), beta.shape().clone());
        let saved_out = out.clone();
        Var::from_op(
            out,
            &[self, gamma, beta],
            Box::new(move |g| {
                crate::fusion::count_fused_backward();
                let (gx, ggamma, gbeta) = crate::ops::fused::group_norm_relu_bwd(
                    g, &x, &saved_out, &mean, &std, &gam, groups,
                );
                vec![
                    Some(gx),
                    Some(ggamma.reshape(gshape.clone())),
                    Some(gbeta.reshape(bshape.clone())),
                ]
            }),
        )
    }

    /// Fused relu followed by non-overlapping `k×k` average pooling.
    ///
    /// Bitwise identical to `self.relu().avg_pool2d(k)`, but the relu'd
    /// intermediate is never materialized and the backward collapses the
    /// pool-scatter and relu-mask passes into one kernel.
    pub fn relu_avg_pool2d(&self, k: usize) -> Var {
        crate::fusion::count_relu_avg_pool2d();
        let value = crate::ops::fused::relu_avg_pool2d_fwd(self.value(), k);
        let x = self.value().clone();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                crate::fusion::count_fused_backward();
                grads![Some(crate::ops::fused::relu_avg_pool2d_bwd(g, &x, k))]
            }),
        )
    }

    /// Fused row-wise log-softmax + weighted negative log-likelihood.
    ///
    /// Bitwise identical to
    /// `self.log_softmax().nll(labels, weights, reduction)`, but the
    /// `[n, classes]` log-probability matrix is never materialized: the
    /// forward saves only the per-row log-sum-exp and the backward emits
    /// the logits gradient directly.
    ///
    /// # Panics
    /// Panics on label/weight length mismatches or out-of-range labels.
    pub fn log_softmax_cross_entropy(
        &self,
        labels: &[usize],
        weights: Option<&[f32]>,
        reduction: Reduction,
    ) -> Var {
        crate::fusion::count_log_softmax_ce();
        assert_eq!(self.shape().rank(), 2, "cross-entropy needs [n, classes]");
        let n = self.shape().dim(0);
        let scale = match reduction {
            Reduction::Sum => 1.0,
            Reduction::Mean => 1.0 / n as f32,
        };
        let (value, lse) =
            crate::ops::fused::log_softmax_ce_fwd(self.value(), labels, weights, scale);
        let logits = self.value().clone();
        let labels = labels.to_vec();
        let weights = weights.map(<[f32]>::to_vec);
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                crate::fusion::count_fused_backward();
                grads![Some(crate::ops::fused::log_softmax_ce_bwd(
                    g,
                    &logits,
                    &lse,
                    &labels,
                    weights.as_deref(),
                    scale,
                ))]
            }),
        )
    }
}

fn accumulate(slot: &RefCell<Option<Tensor>>, g: Tensor) {
    let mut borrow = slot.borrow_mut();
    match borrow.as_mut() {
        Some(acc) => acc.add_scaled(&g, 1.0),
        None => *borrow = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: bit mismatch at {i}: {x} vs {y}"
            );
        }
    }

    /// Runs `fused` and `reference` over fresh leaves at 1 and 4 threads
    /// and asserts the forward value and every leaf gradient are bitwise
    /// identical across all four runs.
    fn assert_matches_reference(
        leaves: &[Tensor],
        fused: impl Fn(&[Var]) -> Var,
        reference: impl Fn(&[Var]) -> Var,
    ) {
        let run = |build: &dyn Fn(&[Var]) -> Var, threads: usize| {
            deco_runtime::with_thread_count(threads, || {
                let vars: Vec<Var> = leaves.iter().map(|t| Var::leaf(t.clone(), true)).collect();
                let loss = build(&vars);
                loss.backward();
                let grads: Vec<Tensor> = vars
                    .iter()
                    .map(|v| v.grad().expect("leaf gradient"))
                    .collect();
                (loss.value().clone(), grads)
            })
        };
        let (value, grads) = run(&fused, 1);
        for (build, threads, what) in [
            (&fused as &dyn Fn(&[Var]) -> Var, 4, "fused/4t"),
            (&reference, 1, "reference/1t"),
            (&reference, 4, "reference/4t"),
        ] {
            let (v, g) = run(build, threads);
            assert_bits_eq(&value, &v, &format!("{what} forward value"));
            for (i, (a, b)) in grads.iter().zip(&g).enumerate() {
                assert_bits_eq(a, b, &format!("{what} gradient of leaf {i}"));
            }
        }
    }

    /// The tape-op chains the fused ops replace (the same chains
    /// `deco-conformance` holds them to).
    fn reference_group_norm_relu(x: &Var, gamma: &Var, beta: &Var, groups: usize, eps: f32) -> Var {
        let (n, c) = (x.shape().dim(0), x.shape().dim(1));
        let (h, w) = (x.shape().dim(2), x.shape().dim(3));
        let grouped = x.reshape([n, groups, (c / groups) * h * w]);
        let mean = grouped.mean_axes_keepdim(&[2]);
        let centered = grouped.sub(&mean);
        let var = centered.square().mean_axes_keepdim(&[2]);
        let std = var.add_scalar(eps).sqrt();
        let normed = centered.div(&std).reshape([n, c, h, w]);
        normed.mul(gamma).add(beta).relu()
    }

    #[test]
    fn group_norm_relu_matches_reference_bitwise() {
        let mut rng = Rng::new(90);
        for groups in [1usize, 2, 4] {
            let x = Tensor::randn([2, 4, 3, 3], &mut rng);
            let gamma = Tensor::rand_uniform([1, 4, 1, 1], 0.5, 1.5, &mut rng);
            let beta = Tensor::randn([1, 4, 1, 1], &mut rng);
            assert_matches_reference(
                &[x, gamma, beta],
                |v| {
                    v[0].group_norm_relu(&v[1], &v[2], groups, 1e-5)
                        .square()
                        .sum()
                },
                |v| {
                    reference_group_norm_relu(&v[0], &v[1], &v[2], groups, 1e-5)
                        .square()
                        .sum()
                },
            );
        }
    }

    #[test]
    fn relu_avg_pool2d_matches_reference_bitwise() {
        let mut rng = Rng::new(91);
        for (side, k) in [(4usize, 2usize), (6, 3), (6, 2)] {
            let x = Tensor::randn([2, 3, side, side], &mut rng);
            assert_matches_reference(
                &[x],
                |v| v[0].relu_avg_pool2d(k).square().sum(),
                |v| v[0].relu().avg_pool2d(k).square().sum(),
            );
        }
    }

    #[test]
    fn log_softmax_cross_entropy_matches_reference_bitwise() {
        let mut rng = Rng::new(92);
        let labels = [3usize, 0, 2, 2];
        for reduction in [Reduction::Sum, Reduction::Mean] {
            for weights in [None, Some([0.5f32, 2.0, 0.0, 1.0])] {
                let x = Tensor::randn([4, 5], &mut rng);
                let w = weights.as_ref().map(|w| &w[..]);
                assert_matches_reference(
                    &[x],
                    |v| v[0].log_softmax_cross_entropy(&labels, w, reduction),
                    |v| v[0].log_softmax().nll(&labels, w, reduction),
                );
            }
        }
    }

    #[test]
    fn fused_block_chain_matches_reference_bitwise() {
        // conv-bias epilogue + group_norm_relu + pool + fused CE in one
        // graph, with gradients flowing to images and all parameters.
        let mut rng = Rng::new(93);
        let x = Tensor::randn([2, 2, 8, 8], &mut rng);
        let w = &Tensor::randn([4, 2, 3, 3], &mut rng) * 0.4;
        let b = Tensor::randn([4], &mut rng);
        let gamma = Tensor::rand_uniform([1, 4, 1, 1], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn([1, 4, 1, 1], &mut rng);
        let labels = [1usize, 0];
        let spec = Conv2dSpec::new(3, 1, 1);
        let head = |h: Var| {
            let n = h.shape().dim(0);
            let flat: usize = h.shape().dims()[1..].iter().product();
            h.reshape([n, flat])
        };
        assert_matches_reference(
            &[x, w, b, gamma, beta],
            |v| {
                let h = v[0].conv2d(&v[1], Some(&v[2]), spec);
                let h = h.group_norm_relu(&v[3], &v[4], 4, 1e-5).avg_pool2d(2);
                head(h).log_softmax_cross_entropy(&labels, None, Reduction::Sum)
            },
            |v| {
                let h = v[0]
                    .conv2d(&v[1], None, spec)
                    .add(&v[2].reshape([1, 4, 1, 1]));
                let h = reference_group_norm_relu(&h, &v[3], &v[4], 4, 1e-5).avg_pool2d(2);
                head(h).log_softmax().nll(&labels, None, Reduction::Sum)
            },
        );
    }

    #[test]
    fn add_grads_are_ones() {
        let a = Var::leaf(Tensor::from_vec(vec![1.0, 2.0], [2]), true);
        let b = Var::leaf(Tensor::from_vec(vec![3.0, 4.0], [2]), true);
        a.add(&b).sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0, 1.0]);
        assert_eq!(b.grad().unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_grads_swap_operands() {
        let a = Var::leaf(Tensor::from_vec(vec![2.0, 3.0], [2]), true);
        let b = Var::leaf(Tensor::from_vec(vec![5.0, 7.0], [2]), true);
        a.mul(&b).sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[5.0, 7.0]);
        assert_eq!(b.grad().unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn broadcast_add_reduces_gradient() {
        let m = Var::leaf(Tensor::ones([2, 3]), true);
        let r = Var::leaf(Tensor::ones([3]), true);
        m.add(&r).sum().backward();
        assert_eq!(r.grad().unwrap().data(), &[2.0, 2.0, 2.0]);
        assert_eq!(m.grad().unwrap().shape().dims(), &[2, 3]);
    }

    #[test]
    fn div_gradient() {
        let a = Var::leaf(Tensor::from_vec(vec![6.0], [1]), true);
        let b = Var::leaf(Tensor::from_vec(vec![3.0], [1]), true);
        a.div(&b).sum().backward();
        assert!((a.grad().unwrap().data()[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((b.grad().unwrap().data()[0] + 6.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn chain_rule_through_square() {
        let x = Var::leaf(Tensor::from_vec(vec![3.0], [1]), true);
        // y = (2x)² → dy/dx = 8x = 24
        x.mul_scalar(2.0).square().sum().backward();
        assert!((x.grad().unwrap().data()[0] - 24.0).abs() < 1e-5);
    }

    #[test]
    fn shared_subexpression_accumulates() {
        let x = Var::leaf(Tensor::from_vec(vec![1.0], [1]), true);
        // y = x + x → dy/dx = 2
        x.add(&x).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn relu_masks_negative_side() {
        let x = Var::leaf(Tensor::from_vec(vec![-1.0, 2.0], [2]), true);
        x.relu().sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn matmul_gradients_match_formulas() {
        let mut rng = Rng::new(1);
        let a = Var::leaf(Tensor::randn([2, 3], &mut rng), true);
        let b = Var::leaf(Tensor::randn([3, 4], &mut rng), true);
        a.matmul(&b).sum().backward();
        // dL/dA = 1 Bᵀ, dL/dB = Aᵀ 1
        let ones = Tensor::ones([2, 4]);
        let expect_a = ones.matmul(&b.value().transpose2());
        let expect_b = a.value().transpose2().matmul(&ones);
        for (g, e) in a.grad().unwrap().data().iter().zip(expect_a.data()) {
            assert!((g - e).abs() < 1e-5);
        }
        for (g, e) in b.grad().unwrap().data().iter().zip(expect_b.data()) {
            assert!((g - e).abs() < 1e-5);
        }
    }

    #[test]
    fn constants_receive_no_gradient() {
        let x = Var::leaf(Tensor::ones([2]), true);
        let c = Var::constant(Tensor::ones([2]));
        x.mul(&c).sum().backward();
        assert!(c.grad().is_none());
        assert!(x.grad().is_some());
    }

    #[test]
    fn detach_blocks_gradient_flow() {
        let x = Var::leaf(Tensor::from_vec(vec![2.0], [1]), true);
        let d = x.detach();
        d.square().sum().backward();
        assert!(x.grad().is_none());
    }

    #[test]
    fn log_softmax_rows_sum_to_one_in_prob_space() {
        let mut rng = Rng::new(2);
        let x = Var::leaf(Tensor::randn([4, 7], &mut rng), true);
        let lp = x.log_softmax();
        for i in 0..4 {
            let s: f32 = (0..7).map(|j| lp.value().at(&[i, j]).exp()).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_gradient_is_p_minus_y() {
        let mut rng = Rng::new(3);
        let logits = Var::leaf(Tensor::randn([3, 5], &mut rng), true);
        let labels = [0usize, 2, 4];
        logits
            .log_softmax()
            .nll(&labels, None, Reduction::Sum)
            .backward();
        let g = logits.grad().unwrap();
        let lp = logits.log_softmax();
        for (i, &label) in labels.iter().enumerate() {
            for j in 0..5 {
                let p = lp.value().at(&[i, j]).exp();
                let y = if label == j { 1.0 } else { 0.0 };
                assert!((g.at(&[i, j]) - (p - y)).abs() < 1e-5, "({i},{j})");
            }
        }
    }

    #[test]
    fn weighted_nll_scales_gradient() {
        let mut rng = Rng::new(4);
        let t = Tensor::randn([2, 3], &mut rng);
        let l1 = Var::leaf(t.clone(), true);
        let l2 = Var::leaf(t, true);
        let labels = [1usize, 2];
        l1.log_softmax()
            .nll(&labels, Some(&[2.0, 2.0]), Reduction::Sum)
            .backward();
        l2.log_softmax()
            .nll(&labels, None, Reduction::Sum)
            .backward();
        let g1 = l1.grad().unwrap();
        let g2 = l2.grad().unwrap();
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((a - 2.0 * b).abs() < 1e-5);
        }
    }

    #[test]
    fn mean_reduction_divides_by_batch() {
        let mut rng = Rng::new(5);
        let t = Tensor::randn([4, 3], &mut rng);
        let a = Var::leaf(t.clone(), true);
        let b = Var::leaf(t, true);
        let labels = [0usize, 1, 2, 0];
        a.log_softmax()
            .nll(&labels, None, Reduction::Mean)
            .backward();
        b.log_softmax()
            .nll(&labels, None, Reduction::Sum)
            .backward();
        for (x, y) in a
            .grad()
            .unwrap()
            .data()
            .iter()
            .zip(b.grad().unwrap().data())
        {
            assert!((4.0 * x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn masked_lse_matches_manual() {
        let x = Var::leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]), true);
        let mask = Tensor::from_vec(vec![1.0, 0.0, 1.0, 1.0], [2, 2]);
        let lse = x.masked_log_sum_exp_rows(&mask);
        assert!((lse.value().data()[0] - 1.0).abs() < 1e-5); // only x[0,0]
        let expect = (3.0f32.exp() + 4.0f32.exp()).ln();
        assert!((lse.value().data()[1] - expect).abs() < 1e-5);
    }

    #[test]
    fn masked_lse_gradient_is_masked_softmax() {
        let x = Var::leaf(Tensor::from_vec(vec![1.0, 2.0, 5.0], [1, 3]), true);
        let mask = Tensor::from_vec(vec![1.0, 1.0, 0.0], [1, 3]);
        x.masked_log_sum_exp_rows(&mask).sum().backward();
        let g = x.grad().unwrap();
        let z = 1.0f32.exp() + 2.0f32.exp();
        assert!((g.data()[0] - 1.0f32.exp() / z).abs() < 1e-5);
        assert!((g.data()[1] - 2.0f32.exp() / z).abs() < 1e-5);
        assert_eq!(g.data()[2], 0.0);
    }

    #[test]
    #[should_panic(expected = "all-zero mask")]
    fn masked_lse_rejects_empty_rows() {
        let x = Var::leaf(Tensor::ones([1, 2]), true);
        let mask = Tensor::zeros([1, 2]);
        let _ = x.masked_log_sum_exp_rows(&mask);
    }

    #[test]
    fn select_rows_gradient_scatters() {
        let x = Var::leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], [3, 1]), true);
        x.select_rows(&[2, 2, 0]).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0, 0.0, 2.0]);
    }

    #[test]
    fn concat_rows_splits_gradient() {
        let a = Var::leaf(Tensor::ones([2, 2]), true);
        let b = Var::leaf(Tensor::ones([1, 2]), true);
        let c = Var::concat_rows(&[a.clone(), b.clone()]);
        c.mul_scalar(3.0).sum().backward();
        assert_eq!(a.grad().unwrap().shape().dims(), &[2, 2]);
        assert_eq!(b.grad().unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn conv_and_pool_backward_shapes() {
        let mut rng = Rng::new(6);
        let x = Var::leaf(Tensor::randn([2, 3, 8, 8], &mut rng), true);
        let w = Var::leaf(Tensor::randn([4, 3, 3, 3], &mut rng), true);
        let b = Var::leaf(Tensor::zeros([4]), true);
        let y = x
            .conv2d(&w, Some(&b), Conv2dSpec::default())
            .relu()
            .avg_pool2d(2);
        y.sum().backward();
        assert_eq!(x.grad().unwrap().shape().dims(), &[2, 3, 8, 8]);
        assert_eq!(w.grad().unwrap().shape().dims(), &[4, 3, 3, 3]);
        assert_eq!(b.grad().unwrap().shape().dims(), &[4]);
    }

    #[test]
    fn sum_axes_keepdim_backward_broadcasts() {
        let x = Var::leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]), true);
        let s = x.sum_axes_keepdim(&[1]);
        assert_eq!(s.shape().dims(), &[2, 1]);
        s.mul_scalar(2.0).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn shift_and_flip_gradients_are_adjoint() {
        let mut rng = Rng::new(7);
        let x = Var::leaf(Tensor::randn([1, 1, 4, 4], &mut rng), true);
        let seed = Tensor::randn([1, 1, 4, 4], &mut rng);
        let y = x.shift2d(1, -1).flip_w();
        y.backward_with(seed.clone());
        // <y, seed> should equal <x, grad_x> (linear map adjoint property).
        let lhs = y.value().dot(&seed);
        let rhs = x.value().dot(&x.grad().unwrap());
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn backward_with_custom_seed() {
        let x = Var::leaf(Tensor::ones([2]), true);
        let y = x.mul_scalar(3.0);
        y.backward_with(Tensor::from_vec(vec![1.0, 10.0], [2]));
        assert_eq!(x.grad().unwrap().data(), &[3.0, 30.0]);
    }

    #[test]
    fn backward_on_no_grad_graph_is_noop() {
        let x = Var::constant(Tensor::ones([2]));
        let y = x.mul_scalar(2.0).sum();
        y.backward(); // must not panic
        assert!(x.grad().is_none());
    }

    #[test]
    fn tanh_gradient_is_one_minus_square() {
        let x = Var::leaf(Tensor::from_vec(vec![0.5, -1.0], [2]), true);
        x.tanh().sum().backward();
        let g = x.grad().unwrap();
        for (i, &xi) in [0.5f32, -1.0].iter().enumerate() {
            let t = xi.tanh();
            assert!((g.data()[i] - (1.0 - t * t)).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_gradient_peaks_at_zero() {
        let x = Var::leaf(Tensor::from_vec(vec![0.0, 4.0], [2]), true);
        x.sigmoid().sum().backward();
        let g = x.grad().unwrap();
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
        assert!(g.data()[1] < 0.05);
    }

    #[test]
    fn leaky_relu_scales_negative_side() {
        let x = Var::leaf(Tensor::from_vec(vec![-2.0, 3.0], [2]), true);
        x.leaky_relu(0.1).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.1, 1.0]);
    }

    #[test]
    fn abs_gradient_is_sign() {
        let x = Var::leaf(Tensor::from_vec(vec![-2.0, 0.0, 3.0], [3]), true);
        x.abs().sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn powi_matches_repeated_mul() {
        let x = Var::leaf(Tensor::from_vec(vec![2.0], [1]), true);
        x.powi(3).sum().backward();
        // d(x³)/dx = 3x² = 12
        assert!((x.grad().unwrap().item() - 12.0).abs() < 1e-5);
    }

    #[test]
    fn scalar_helpers_compose() {
        let x = Var::leaf(Tensor::from_vec(vec![6.0], [1]), true);
        let y = x.sub_scalar(2.0).div_scalar(2.0); // (x-2)/2 = 2
        assert_eq!(y.value().item(), 2.0);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 0.5);
    }

    #[test]
    fn arena_scope_recycles_and_preserves_results() {
        let reference = {
            let x = Var::leaf(Tensor::from_vec(vec![1.0, 2.0], [2]), true);
            x.mul(&x).sum().backward();
            x.grad().unwrap()
        };
        for _ in 0..3 {
            let g = with_tape_arena(|| {
                let x = Var::leaf(Tensor::from_vec(vec![1.0, 2.0], [2]), true);
                x.mul(&x).sum().backward();
                x.grad().unwrap()
            });
            assert_eq!(g.data(), reference.data());
        }
        let parked = ARENA.with(|a| a.borrow().node_free.len());
        assert!(
            parked > 0,
            "arena should park recycled nodes between scopes"
        );
        assert!(arena_node_high_water() > 0);
    }

    #[test]
    fn var_held_across_scope_end_stays_valid() {
        // Externally held nodes (e.g. Param-bound leaves) must survive
        // the end-of-scope reset untouched.
        let x = with_tape_arena(|| Var::leaf(Tensor::from_vec(vec![7.0], [1]), true));
        assert_eq!(x.value().data(), &[7.0]);
    }

    #[test]
    fn recycled_nodes_get_fresh_ids() {
        // backward's visited set keys on node ids; a recycled node that
        // kept its old id would corrupt topological traversal.
        let ids = |()| {
            with_tape_arena(|| {
                let x = Var::leaf(Tensor::scalar(1.0), true);
                let y = x.add_scalar(1.0);
                (x.node.id, y.node.id)
            })
        };
        let (x1, y1) = ids(());
        let (x2, y2) = ids(());
        assert!(x1 != x2 && y1 != y2 && x2 != y2);
    }

    #[test]
    fn nested_arena_scopes_balance() {
        let g = with_tape_arena(|| {
            let inner = with_tape_arena(|| {
                let x = Var::leaf(Tensor::scalar(3.0), true);
                x.square().backward();
                x.grad().unwrap()
            });
            let x = Var::leaf(Tensor::scalar(3.0), true);
            x.square().backward();
            assert_eq!(inner.data(), x.grad().unwrap().data());
            x.grad().unwrap()
        });
        assert_eq!(g.data(), &[6.0]);
        ARENA.with(|a| assert!(a.borrow().scope_starts.is_empty()));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut v = Var::leaf(Tensor::scalar(1.0), true);
        let x = v.clone();
        for _ in 0..5000 {
            v = v.add_scalar(1.0);
        }
        v.backward();
        assert_eq!(x.grad().unwrap().item(), 1.0);
    }
}
