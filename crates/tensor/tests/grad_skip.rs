//! Multi-parent ops compute gradients only for parents that require
//! one. Every live/constant combination of a convolution's, a matmul's
//! and a fused group-norm's parents must produce, for each gradient it
//! still computes, the bits of the all-live graph — at 1 and 4 threads —
//! and the conv kernels it skips must not run at all.
//!
//! A process-isolated integration test because it reads the global
//! telemetry counters.

use deco_tensor::{Conv2dSpec, Rng, Tensor, Var};

/// Forward value and one gradient slot per parent (`None` for
/// constants), plus how many conv input-/weight-gradient kernels ran.
struct Run {
    value: Tensor,
    grads: Vec<Option<Tensor>>,
    input_grad_calls: u64,
    weight_grad_calls: u64,
}

fn counter(name: &str) -> u64 {
    deco_telemetry::metrics::counter(name).get()
}

/// Binds `leaves` as leaves (live where `live[i]`), builds the graph,
/// back-propagates `seed` and collects each parent's gradient.
fn run(
    leaves: &[Tensor],
    live: &[bool],
    threads: usize,
    seed: &Tensor,
    build: impl Fn(&[Var]) -> Var,
) -> Run {
    deco_runtime::with_thread_count(threads, || {
        let vars: Vec<Var> = leaves
            .iter()
            .zip(live)
            .map(|(t, &l)| Var::leaf(t.clone(), l))
            .collect();
        let before = (
            counter("tensor.ops.conv2d_input_grad"),
            counter("tensor.ops.conv2d_weight_grad"),
        );
        let out = build(&vars);
        out.backward_with(seed.clone());
        Run {
            value: out.value().clone(),
            grads: vars.iter().map(Var::grad).collect(),
            input_grad_calls: counter("tensor.ops.conv2d_input_grad") - before.0,
            weight_grad_calls: counter("tensor.ops.conv2d_weight_grad") - before.1,
        }
    })
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Runs every live/constant combination of `leaves` at 1 and 4 threads
/// and holds each to the all-live run at 1 thread: same value, a
/// gradient exactly for the live parents, each bitwise equal to the
/// all-live one. Returns the runs with their live masks for further
/// checks.
fn check_combinations(
    leaves: &[Tensor],
    seed: &Tensor,
    build: impl Fn(&[Var]) -> Var,
) -> Vec<(Vec<bool>, Run)> {
    let all_live = vec![true; leaves.len()];
    let full = run(leaves, &all_live, 1, seed, &build);
    let mut runs = Vec::new();
    for mask in 0..1usize << leaves.len() {
        let live: Vec<bool> = (0..leaves.len()).map(|i| mask >> i & 1 == 1).collect();
        for threads in [1, 4] {
            let r = run(leaves, &live, threads, seed, &build);
            let what = format!("live {live:?} at {threads} threads");
            assert_bits_eq(&r.value, &full.value, &format!("{what}: value"));
            for (i, (g, &l)) in r.grads.iter().zip(&live).enumerate() {
                match g {
                    Some(g) => {
                        assert!(l, "{what}: constant parent {i} got a gradient");
                        let reference = full.grads[i].as_ref().expect("all-live gradient");
                        assert_bits_eq(g, reference, &format!("{what}: gradient {i}"));
                    }
                    None => assert!(!l, "{what}: live parent {i} got no gradient"),
                }
            }
            runs.push((live.clone(), r));
        }
    }
    runs
}

#[test]
fn conv2d_computes_only_live_gradients() {
    deco_telemetry::set_enabled(true);
    let mut rng = Rng::new(21);
    // Large enough to cross the conv kernels' parallel threshold, so the
    // 4-thread runs take the pool path.
    let x = Tensor::randn([4, 3, 16, 16], &mut rng);
    let w = &Tensor::randn([8, 3, 3, 3], &mut rng) * 0.3;
    let b = Tensor::randn([8], &mut rng);
    let seed = Tensor::randn([4, 8, 16, 16], &mut rng);
    let spec = Conv2dSpec::default();
    let with_bias = check_combinations(&[x.clone(), w.clone(), b], &seed, |v| {
        v[0].conv2d(&v[1], Some(&v[2]), spec)
    });
    let without_bias = check_combinations(&[x, w], &seed, |v| v[0].conv2d(&v[1], None, spec));
    for (live, r) in with_bias.iter().chain(&without_bias) {
        // A constant input runs no input-gradient kernel and a frozen
        // weight no weight-gradient kernel; live ones run exactly once.
        assert_eq!(
            r.input_grad_calls,
            u64::from(live[0]),
            "live {live:?}: input-gradient kernel runs"
        );
        assert_eq!(
            r.weight_grad_calls,
            u64::from(live[1]),
            "live {live:?}: weight-gradient kernel runs"
        );
    }
}

#[test]
fn matmul_computes_only_live_gradients() {
    let mut rng = Rng::new(22);
    // Past the GEMM's packed and parallel gates.
    let a = Tensor::randn([96, 80], &mut rng);
    let b = Tensor::randn([80, 72], &mut rng);
    let seed = Tensor::randn([96, 72], &mut rng);
    check_combinations(&[a, b], &seed, |v| v[0].matmul(&v[1]));
}

#[test]
fn group_norm_relu_computes_only_live_gradients() {
    let mut rng = Rng::new(23);
    // The ConvNet's instance norm on deco_stream's layer-1 channels and
    // image side, and a grouped norm (`c / groups > 1`) on H ≠ W.
    for (shape, groups) in [([6, 8, 16, 16], 8), ([3, 6, 5, 3], 2)] {
        let c = shape[1];
        let x = Tensor::randn(shape, &mut rng);
        let gamma = Tensor::randn([1, c, 1, 1], &mut rng);
        let beta = Tensor::randn([1, c, 1, 1], &mut rng);
        let seed = Tensor::randn(shape, &mut rng);
        check_combinations(&[x, gamma, beta], &seed, |v| {
            v[0].group_norm_relu(&v[1], &v[2], groups, 1e-5)
        });
    }
}
