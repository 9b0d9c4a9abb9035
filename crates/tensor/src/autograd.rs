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

use crate::ops::conv::Conv2dSpec;
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

/// DFS work item for `backward_with`'s iterative topological sort.
enum Visit {
    Enter(Var),
    Exit(Var),
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

    /// Builds a node with a fresh id (`backward`'s visited set keys on
    /// ids) and charges it to the tape accounting.
    fn alloc_node(
        value: Tensor,
        requires_grad: bool,
        parents: &[&Var],
        backward: Option<BackwardFn>,
    ) -> Var {
        let tracked_bytes = track_node(&value);
        Var {
            node: Rc::new(Node {
                id: fresh_id(),
                value,
                requires_grad,
                grad: RefCell::new(None),
                parents: parents.iter().map(|&p| p.clone()).collect(),
                backward,
                tracked_bytes,
            }),
        }
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
        // Topological order over the subgraph that requires gradients.
        // Iterative DFS avoids recursion limits.
        let mut order = Vec::new();
        let mut seen = HashSet::new();
        let mut stack = Vec::new();
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
            let parent_grads = backward(&grad_out);
            assert_eq!(
                parent_grads.len(),
                var.node.parents.len(),
                "backward returned wrong number of parent gradients"
            );
            for (p, g) in var.node.parents.iter().zip(parent_grads) {
                if let Some(g) = g {
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
            // This non-leaf node's gradient has been fully consumed;
            // release it eagerly so its buffer returns to the pool
            // instead of living until the graph drops. Leaves (no
            // backward fn) keep theirs — they are what callers read.
            *var.node.grad.borrow_mut() = None;
        }
    }

    // ---- elementwise arithmetic (broadcasting) ----

    /// Elementwise sum with broadcasting.
    pub fn add(&self, rhs: &Var) -> Var {
        let value = self.value() + rhs.value();
        let sa = self.requires_grad().then(|| self.shape().clone());
        let sb = rhs.requires_grad().then(|| rhs.shape().clone());
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| {
                vec![
                    sa.as_ref().map(|sa| g.sum_to(sa)),
                    sb.as_ref().map(|sb| g.sum_to(sb)),
                ]
            }),
        )
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&self, rhs: &Var) -> Var {
        let value = self.value() - rhs.value();
        let sa = self.requires_grad().then(|| self.shape().clone());
        let sb = rhs.requires_grad().then(|| rhs.shape().clone());
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| {
                vec![
                    sa.as_ref().map(|sa| g.sum_to(sa)),
                    sb.as_ref().map(|sb| (-g).sum_to(sb)),
                ]
            }),
        )
    }

    /// Elementwise product with broadcasting.
    pub fn mul(&self, rhs: &Var) -> Var {
        let value = self.value() * rhs.value();
        // Each side's gradient reads the other side's value.
        let a = self
            .requires_grad()
            .then(|| (self.shape().clone(), rhs.value().clone()));
        let b = rhs
            .requires_grad()
            .then(|| (rhs.shape().clone(), self.value().clone()));
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| {
                vec![
                    a.as_ref().map(|(sa, vb)| (g * vb).sum_to(sa)),
                    b.as_ref().map(|(sb, va)| (g * va).sum_to(sb)),
                ]
            }),
        )
    }

    /// Elementwise quotient with broadcasting.
    pub fn div(&self, rhs: &Var) -> Var {
        let value = self.value() / rhs.value();
        let sa = self.requires_grad().then(|| self.shape().clone());
        let b = rhs
            .requires_grad()
            .then(|| (rhs.shape().clone(), self.value().clone()));
        let vb = rhs.value().clone();
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| {
                let ga = sa.as_ref().map(|sa| (g / &vb).sum_to(sa));
                let gb = b
                    .as_ref()
                    .map(|(sb, va)| (&(&(-g) * va) / &(&vb * &vb)).sum_to(sb));
                vec![ga, gb]
            }),
        )
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        let value = -self.value();
        Var::from_op(value, &[self], Box::new(move |g| vec![Some(-g)]))
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, c: f32) -> Var {
        let value = self.value() + c;
        Var::from_op(value, &[self], Box::new(move |g| vec![Some(g.clone())]))
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, c: f32) -> Var {
        let value = self.value() * c;
        Var::from_op(value, &[self], Box::new(move |g| vec![Some(g * c)]))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let v = self.value().clone();
        let value = self.value() * self.value();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| vec![Some(&(g * 2.0) * &v)]),
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
            Box::new(move |g| vec![Some(g * &out.map(|y| 0.5 / y))]),
        )
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Var {
        let value = self.value().map(f32::exp);
        let out = value.clone();
        Var::from_op(value, &[self], Box::new(move |g| vec![Some(g * &out)]))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        let v = self.value().clone();
        let value = self.value().map(f32::ln);
        Var::from_op(value, &[self], Box::new(move |g| vec![Some(g / &v)]))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let v = self.value().clone();
        let value = self.value().map(|x| x.max(0.0));
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                vec![Some(
                    g.zip_broadcast(&v, |gi, xi| if xi > 0.0 { gi } else { 0.0 }),
                )]
            }),
        )
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

    /// Elementwise absolute value (subgradient 0 at the origin).
    pub fn abs(&self) -> Var {
        let v = self.value().clone();
        let value = self.value().map(f32::abs);
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| {
                vec![Some(g.zip_broadcast(&v, |gi, xi| {
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
            Box::new(move |g| vec![Some(g.reshape(orig.clone()))]),
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
            Box::new(move |g| vec![Some(g.scatter_rows_add(&idx, n))]),
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
                let mut grads = Vec::with_capacity(row_counts.len());
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
            Box::new(move |g| vec![Some(g.shift2d(-dy, -dx))]),
        )
    }

    /// Horizontal mirror (NCHW); gradient mirrors back.
    pub fn flip_w(&self) -> Var {
        let value = self.value().flip_w();
        Var::from_op(value, &[self], Box::new(move |g| vec![Some(g.flip_w())]))
    }

    // ---- linear algebra ----

    /// Matrix product of rank-2 vars.
    pub fn matmul(&self, rhs: &Var) -> Var {
        let value = self.value().matmul(rhs.value());
        // `ga = g·bᵀ` reads `b`; `gb = aᵀ·g` reads `a`.
        let b = self.requires_grad().then(|| rhs.value().clone());
        let a = rhs.requires_grad().then(|| self.value().clone());
        Var::from_op(
            value,
            &[self, rhs],
            Box::new(move |g| {
                let ga = b.as_ref().map(|b| g.matmul(&b.transpose2()));
                let gb = a.as_ref().map(|a| a.transpose2().matmul(g));
                vec![ga, gb]
            }),
        )
    }

    /// Rank-2 transpose.
    pub fn t(&self) -> Var {
        let value = self.value().transpose2();
        Var::from_op(
            value,
            &[self],
            Box::new(move |g| vec![Some(g.transpose2())]),
        )
    }

    // ---- convolution ----

    /// 2-D convolution; gradients flow to input, weight and bias.
    ///
    /// The backward computes only the gradients of parents that require
    /// one: a constant input skips the input-gradient kernel, a frozen
    /// weight the weight-gradient GEMM, a frozen bias its reduction.
    ///
    /// The node keeps only the operands those gradients read: the weight
    /// for the input gradient, the input for the weight gradient, which
    /// reads its column matrices straight from the input again
    /// ([`Tensor::conv2d_weight_grad`] is an implicit GEMM), so no
    /// lowered copy of the batch lives on the tape.
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, spec: Conv2dSpec) -> Var {
        let need_gx = self.requires_grad();
        let need_gw = weight.requires_grad();
        let need_gb = bias.is_some_and(Var::requires_grad);
        let value = self
            .value()
            .conv2d(weight.value(), bias.map(Var::value), spec);
        if !(need_gx || need_gw || need_gb) {
            return match bias {
                Some(b) => Var::alloc_node(value, false, &[self, weight, b], None),
                None => Var::alloc_node(value, false, &[self, weight], None),
            };
        }
        let w = need_gx.then(|| weight.value().clone());
        let x = need_gw.then(|| self.value().clone());
        let hw = (self.shape().dim(2), self.shape().dim(3));
        let kernel = spec.kernel;
        let has_bias = bias.is_some();
        let backward: BackwardFn = Box::new(move |g| {
            let gx = w.as_ref().map(|w| g.conv2d_input_grad(w, hw, spec));
            let gw = x.as_ref().map(|x| g.conv2d_weight_grad(x, kernel, spec));
            if has_bias {
                vec![gx, gw, need_gb.then(|| g.conv2d_bias_grad())]
            } else {
                vec![gx, gw]
            }
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
            Box::new(move |g| vec![Some(g.avg_pool2d_grad(k))]),
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
            Box::new(move |g| vec![Some(Tensor::full(shape.clone(), g.item()))]),
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
                vec![Some(
                    g.zip_broadcast(&Tensor::zeros(shape.clone()), |a, _| a),
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
                vec![Some(Tensor::from_vec(gx, [n, c]))]
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
                vec![Some(Tensor::from_vec(gx, [n, c]))]
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
                vec![Some(Tensor::from_vec(gx, [n, c]))]
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
    /// node and runs one backward kernel instead of eleven. The backward
    /// forms only the gradients of parents that require one: constant
    /// `gamma`/`beta` (a frozen layer) skip their per-channel sums, a
    /// constant input its gradient.
    ///
    /// # Panics
    /// Panics unless `self` is `[n, c, h, w]` with `c % groups == 0` and
    /// `gamma`/`beta` have `c` elements.
    pub fn group_norm_relu(&self, gamma: &Var, beta: &Var, groups: usize, eps: f32) -> Var {
        deco_telemetry::counter!("tensor.fusion.group_norm_relu");
        let (out, mean, std) = crate::ops::fused::group_norm_relu_fwd(
            self.value(),
            gamma.value(),
            beta.value(),
            groups,
            eps,
        );
        let live = [
            self.requires_grad(),
            gamma.requires_grad(),
            beta.requires_grad(),
        ];
        let x = self.value().clone();
        let gam = gamma.value().clone();
        let (gshape, bshape) = (gamma.shape().clone(), beta.shape().clone());
        let saved_out = out.clone();
        Var::from_op(
            out,
            &[self, gamma, beta],
            Box::new(move |g| {
                deco_telemetry::counter!("tensor.fusion.backward");
                let [gx, ggamma, gbeta] = crate::ops::fused::group_norm_relu_bwd(
                    g, &x, &saved_out, &mean, &std, &gam, groups, live,
                );
                vec![
                    gx,
                    ggamma.map(|t| t.reshape(gshape.clone())),
                    gbeta.map(|t| t.reshape(bshape.clone())),
                ]
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
        deco_telemetry::counter!("tensor.fusion.log_softmax_ce");
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
                deco_telemetry::counter!("tensor.fusion.backward");
                vec![Some(crate::ops::fused::log_softmax_ce_bwd(
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
        // `[1, c, 1, 1]` takes the backward's copy-scatter path (the
        // reference's affine `sum_to` is an identity copy there); the
        // others accumulate, with one or several channels per group.
        for ([n, c, h, w], groups) in [
            ([2, 4, 3, 3], 1usize),
            ([2, 4, 3, 3], 2),
            ([2, 4, 3, 3], 4),
            ([1, 4, 1, 1], 4),
            ([1, 4, 1, 1], 2),
            ([3, 6, 2, 5], 3),
        ] {
            let x = Tensor::randn([n, c, h, w], &mut rng);
            let gamma = Tensor::rand_uniform([1, c, 1, 1], 0.5, 1.5, &mut rng);
            let beta = Tensor::randn([1, c, 1, 1], &mut rng);
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
