//! `runtime_scaling`: how the `deco-runtime` pool scales, with every
//! thread count run in one process through
//! `deco_runtime::with_thread_count`. Two kinds of rows:
//!
//! * intra-op, at 1 / 2 / 4 threads: the conv2d forward, whose images
//!   split across the pool (matmul runs on its caller's thread, so its
//!   one-thread row lives in `kernel_scaling`);
//! * concurrent independent jobs, [`JOBS`] per round, at 1 / 2 / 4 / 8
//!   threads:
//!   - `match_jobs`: per-class match jobs (full `one_step_match` steps —
//!     forward, backward, cosine gradient distance — each on its own
//!     class batch), fanned out across the pool exactly like the
//!     matcher's `match_classes_parallel` path;
//!   - `serve_batches`: a [`JOBS`]-tenant `deco-serve` fleet drained
//!     through the batch scheduler, one job per batch step event.
//!
//!   Their `mean_ms` is wall time per completed job; `p50_ms` and
//!   `p99_ms` are per-job latencies.
//!
//! Writes `BENCH_runtime.json` at the repository root (linked from
//! EXPERIMENTS.md) through `deco_bench::report`. `DECO_BENCH_ITERS` sets
//! the intra-op timed calls and the `match_jobs` rounds (default 20);
//! each `serve_batches` tenant serves `min(iters, 4)` segments. On a host
//! with fewer cores than threads the job rows document scheduling
//! overhead, not a speedup.
//!
//! ```bash
//! cargo bench -p deco-bench --bench runtime_scaling            # regenerate
//! DECO_BENCH_ITERS=1 cargo bench -p deco-bench --bench runtime_scaling -- --check
//! ```
//!
//! `--check` gates single-thread `match_jobs` against the committed file.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use deco_bench::report::{self, job_row, time_op, CountingAlloc, Report, Row};
use deco_condense::{one_step_match, MatchBatch};
use deco_datasets::{core50, SyntheticVision};
use deco_nn::{ConvNet, ConvNetConfig};
use deco_serve::{Server, ServerConfig, TenantSpec};
use deco_tensor::{Conv2dSpec, Rng, Tensor};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const INTRA_OP_THREADS: [usize; 3] = [1, 2, 4];
const JOB_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Concurrent independent jobs per round (classes / tenants).
const JOBS: usize = 8;

fn bench_intra_op(iters: usize) -> Vec<Row> {
    let mut rng = Rng::new(42);
    // Sized well above the conv's parallel threshold.
    let x = Tensor::randn([16, 3, 32, 32], &mut rng);
    let w = Tensor::randn([16, 3, 3, 3], &mut rng);
    let spec = Conv2dSpec::default();
    let mut rows = Vec::new();
    for threads in INTRA_OP_THREADS {
        rows.push(time_op("conv2d_fwd_16x3x32x32_w16", threads, iters, || {
            std::hint::black_box(x.conv2d(&w, None, spec));
        }));
    }
    rows
}

/// One class's immutable match inputs, shared across rounds.
struct ClassData {
    config: ConvNetConfig,
    params: Arc<Vec<Tensor>>,
    syn: Tensor,
    syn_labels: Vec<usize>,
    real: Tensor,
    real_labels: Vec<usize>,
}

fn build_classes() -> Arc<Vec<ClassData>> {
    let mut rng = Rng::new(0x7410);
    let (cin, side) = (3usize, 16usize);
    let config = ConvNetConfig {
        in_channels: cin,
        image_side: side,
        width: 8,
        depth: 2,
        num_classes: JOBS,
        norm: true,
    };
    let params = Arc::new(ConvNet::new(config, &mut rng).get_params());
    let classes = (0..JOBS)
        .map(|class| {
            let (ipc, n_real) = (2usize, 8usize);
            let randn =
                |n: usize, rng: &mut Rng| -> Vec<f32> { (0..n).map(|_| rng.normal()).collect() };
            ClassData {
                config,
                params: Arc::clone(&params),
                syn: Tensor::from_vec(
                    randn(ipc * cin * side * side, &mut rng),
                    [ipc, cin, side, side],
                ),
                syn_labels: vec![class; ipc],
                real: Tensor::from_vec(
                    randn(n_real * cin * side * side, &mut rng),
                    [n_real, cin, side, side],
                ),
                real_labels: vec![class; n_real],
            }
        })
        .collect();
    Arc::new(classes)
}

/// [`JOBS`] parallel per-class match jobs per round: each worker
/// rebuilds its net from the shared snapshot and runs a full
/// `one_step_match`, timing itself.
fn run_match_jobs(classes: &Arc<Vec<ClassData>>, threads: usize, rounds: usize) -> Row {
    deco_runtime::with_thread_count(threads, || {
        let round = |shared: Arc<Vec<ClassData>>| {
            deco_runtime::parallel_map((0..JOBS).collect(), move |_, class| {
                let t = Instant::now();
                let d = &shared[class];
                let net = ConvNet::from_params(d.config, &d.params);
                let batch = MatchBatch {
                    syn_images: &d.syn,
                    syn_labels: &d.syn_labels,
                    real_images: &d.real,
                    real_labels: &d.real_labels,
                    real_weights: None,
                };
                std::hint::black_box(one_step_match(&net, &batch, None, 0.01));
                t.elapsed().as_secs_f64() * 1e3
            })
        };
        // Warm-up round fills each worker's pools.
        round(Arc::clone(classes));
        let mut latencies_ms = Vec::with_capacity(rounds * JOBS);
        let start = Instant::now();
        for _ in 0..rounds {
            latencies_ms.extend(round(Arc::clone(classes)));
        }
        job_row(
            "match_jobs",
            threads,
            start.elapsed().as_secs_f64(),
            latencies_ms,
        )
    })
}

/// [`JOBS`]-tenant serve fleet: one job per batch step event; event
/// latencies come from the scheduler's own `batch_seconds`.
fn run_serve_batches(data: &SyntheticVision, threads: usize, segments: usize) -> Row {
    deco_runtime::with_thread_count(threads, || {
        let spill = std::env::temp_dir().join(format!("deco-runtime-bench-{threads}t"));
        let config = ServerConfig::new(spill).with_batch_tenants(JOBS);
        let mut server = Server::new(data, config);
        for id in 0..JOBS as u64 {
            server.admit(TenantSpec::quick(
                id,
                0x7410_0000 ^ id,
                data.spec(),
                segments,
            ));
            server.submit(id, segments);
        }
        let start = Instant::now();
        let events = server.run();
        let wall_s = start.elapsed().as_secs_f64();
        let latencies_ms = events.iter().map(|e| e.batch_seconds * 1e3).collect();
        job_row("serve_batches", threads, wall_s, latencies_ms)
    })
}

fn main() -> ExitCode {
    let iters = report::iters(20);
    let segments = iters.min(4);
    let mut report = Report::new("runtime_scaling", iters)
        .param("jobs_per_round", JOBS as f64)
        .param("serve_segments_per_tenant", segments as f64);
    report.rows = bench_intra_op(iters);
    let classes = build_classes();
    for threads in JOB_THREADS {
        report.rows.push(run_match_jobs(&classes, threads, iters));
    }
    let data = SyntheticVision::new(core50());
    for threads in JOB_THREADS {
        report
            .rows
            .push(run_serve_batches(&data, threads, segments));
    }
    report::finish(&report, "BENCH_runtime.json", &[("match_jobs", 1)])
}
