//! `runtime_scaling`: wall-clock scaling of the pool-parallel tensor
//! kernels (matmul, conv2d forward) at 1 / 2 / 4 threads, using
//! `deco_runtime::with_thread_count` so all three configurations run in
//! one process. Prints a speedup table and writes the `intra_op` section
//! of `BENCH_runtime.json` (schema v2) at the repository root — the
//! `throughput` section written by the `throughput_scaling` bench is
//! preserved on rewrite, and vice versa. EXPERIMENTS.md links the file.
//!
//! ```bash
//! cargo bench -p deco-bench --bench runtime_scaling
//! ```

use std::time::Instant;

use deco_telemetry::json::Json;
use deco_tensor::{Conv2dSpec, Rng, Tensor};

const THREADS: [usize; 3] = [1, 2, 4];
const ITERS: usize = 20;

/// Mean wall-clock seconds per call of `f` over `ITERS` calls (after one
/// warm-up call).
fn time_secs(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    start.elapsed().as_secs_f64() / ITERS as f64
}

struct OpResult {
    name: &'static str,
    /// Mean seconds per call, indexed like `THREADS`.
    secs: Vec<f64>,
}

impl OpResult {
    fn speedup(&self, idx: usize) -> f64 {
        self.secs[0] / self.secs[idx]
    }
}

fn bench_ops() -> Vec<OpResult> {
    let mut rng = Rng::new(42);
    // Sized well above the kernels' parallel thresholds.
    let a = Tensor::randn([128, 128], &mut rng);
    let b = Tensor::randn([128, 128], &mut rng);
    let x = Tensor::randn([16, 3, 32, 32], &mut rng);
    let w = Tensor::randn([16, 3, 3, 3], &mut rng);
    let spec = Conv2dSpec::default();

    let mut results = vec![
        OpResult {
            name: "matmul_128x128",
            secs: Vec::new(),
        },
        OpResult {
            name: "conv2d_fwd_16x3x32x32_w16",
            secs: Vec::new(),
        },
    ];
    for &threads in &THREADS {
        eprintln!("[runtime_scaling] timing at {threads} thread(s)…");
        let (ma, mb) = (a.clone(), b.clone());
        let t_matmul = deco_runtime::with_thread_count(threads, move || {
            time_secs(|| {
                std::hint::black_box(ma.matmul(&mb));
            })
        });
        results[0].secs.push(t_matmul);
        let (cx, cw) = (x.clone(), w.clone());
        let t_conv = deco_runtime::with_thread_count(threads, move || {
            time_secs(|| {
                std::hint::black_box(cx.conv2d(&cw, None, spec));
            })
        });
        results[1].secs.push(t_conv);
    }
    results
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("[runtime_scaling] host reports {cores} available core(s)");
    let results = bench_ops();

    println!("\n## runtime_scaling — pool speedup over serial\n");
    println!("| op | 1T (ms) | 2T (ms) | 4T (ms) | 2T speedup | 4T speedup |");
    println!("|---|---|---|---|---|---|");
    for r in &results {
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.2}x | {:.2}x |",
            r.name,
            r.secs[0] * 1e3,
            r.secs[1] * 1e3,
            r.secs[2] * 1e3,
            r.speedup(1),
            r.speedup(2),
        );
    }
    println!("\n(host cores: {cores}; speedups are bounded by physical cores)");

    let ops: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj([
                ("op", Json::Str(r.name.to_string())),
                (
                    "mean_ms_per_threads",
                    Json::Obj(
                        THREADS
                            .iter()
                            .zip(&r.secs)
                            .map(|(&t, &s)| (format!("{t}"), Json::Num(s * 1e3)))
                            .collect(),
                    ),
                ),
                ("speedup_2t", Json::Num(r.speedup(1))),
                ("speedup_4t", Json::Num(r.speedup(2))),
            ])
        })
        .collect();
    let intra_op = Json::obj([
        ("iters_per_point", Json::Num(ITERS as f64)),
        (
            "threads",
            Json::Arr(THREADS.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        ("ops", Json::Arr(ops)),
    ]);

    // Schema v2 read-modify-write: preserve the throughput section owned
    // by the throughput_scaling bench.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    let throughput = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| j.get("throughput").cloned());
    let mut fields = vec![
        ("bench", Json::Str("runtime_scaling".to_string())),
        ("schema_version", Json::Num(2.0)),
        ("available_parallelism", Json::Num(cores as f64)),
        ("intra_op", intra_op),
    ];
    if let Some(tp) = throughput {
        fields.push(("throughput", tp));
    }
    let report = Json::obj(fields);
    let mut text = report.to_string_pretty();
    text.push('\n');
    std::fs::write(path, text).expect("write BENCH_runtime.json");
    eprintln!("[runtime_scaling] wrote {path}");
}
