//! `throughput_scaling`: jobs/sec scaling of **concurrent independent
//! jobs** over `DECO_THREADS` ∈ {1, 2, 4, 8} — the complement of
//! `runtime_scaling`, which splits one small op and is bounded by
//! intra-op fan-out overhead. Two workloads:
//!
//! * `match_jobs`: K parallel per-class match jobs (full
//!   `one_step_match` steps — forward, backward, cosine gradient
//!   distance — each on its own class batch), fanned out across the
//!   `deco-runtime` pool exactly like the matcher's
//!   `match_classes_parallel` path;
//! * `serve_batches`: a K-tenant `deco-serve` fleet drained through the
//!   batch scheduler, one job per batch step event.
//!
//! Reports jobs/sec, p50/p99 per-job latency, and the host's honest
//! `available_parallelism` into the `throughput` section of
//! `BENCH_runtime.json` (schema v2) — the `intra_op` section written by
//! `runtime_scaling` is preserved on rewrite, and vice versa. On a
//! single-core runner jobs/sec scaling is expected to be ≈1.0× and the
//! table documents scheduling overhead, not a speedup.
//!
//! ```bash
//! cargo bench -p deco-bench --bench throughput_scaling            # full run
//! DECO_BENCH_ITERS=1 cargo bench -p deco-bench --bench throughput_scaling -- --check
//! ```
//!
//! `--check` reads the committed `BENCH_runtime.json` *before*
//! overwriting it and fails (exit 1) if single-thread `match_jobs`
//! jobs/sec dropped below `committed / CHECK_FACTOR`.

use std::sync::Arc;
use std::time::Instant;

use deco_condense::{one_step_match, MatchBatch};
use deco_datasets::{core50, SyntheticVision};
use deco_nn::{ConvNet, ConvNetConfig};
use deco_serve::{Server, ServerConfig, TenantSpec};
use deco_telemetry::json::Json;
use deco_tensor::{Rng, Tensor};

/// Regression gate for `--check`: fail if single-thread match-job
/// throughput falls below the committed value divided by this factor.
const CHECK_FACTOR: f64 = 2.5;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Concurrent independent jobs per round (classes / tenants).
const JOBS: usize = 8;

/// Rounds per thread count; `DECO_BENCH_ITERS` shrinks it for CI smoke.
fn rounds() -> usize {
    std::env::var("DECO_BENCH_ITERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(6)
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

struct WorkloadResult {
    threads: usize,
    jobs: usize,
    wall_s: f64,
    /// Per-job wall latencies (ms), measured on the worker.
    latencies_ms: Vec<f64>,
}

impl WorkloadResult {
    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// K parallel per-class match jobs per round: each worker rebuilds its
/// net from the shared snapshot and runs a full `one_step_match`,
/// timing itself.
fn run_match_jobs(classes: &Arc<Vec<ClassData>>, threads: usize, rounds: usize) -> WorkloadResult {
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
        let wall_s = start.elapsed().as_secs_f64();
        latencies_ms.sort_by(f64::total_cmp);
        WorkloadResult {
            threads,
            jobs: rounds * JOBS,
            wall_s,
            latencies_ms,
        }
    })
}

/// K-tenant serve fleet: one job per batch step event; event latencies
/// come from the scheduler's own `batch_seconds`.
fn run_serve_batches(data: &SyntheticVision, threads: usize, segments: usize) -> WorkloadResult {
    deco_runtime::with_thread_count(threads, || {
        let spill = std::env::temp_dir().join(format!("deco-throughput-bench-{threads}t"));
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
        let mut latencies_ms: Vec<f64> = events.iter().map(|e| e.batch_seconds * 1e3).collect();
        latencies_ms.sort_by(f64::total_cmp);
        WorkloadResult {
            threads,
            jobs: events.len(),
            wall_s,
            latencies_ms,
        }
    })
}

fn workload_json(name: &str, results: &[WorkloadResult]) -> Json {
    Json::obj([
        ("workload", Json::Str(name.to_string())),
        (
            "per_threads",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("threads", Json::Num(r.threads as f64)),
                            ("jobs", Json::Num(r.jobs as f64)),
                            ("wall_s", Json::Num(r.wall_s)),
                            ("jobs_per_sec", Json::Num(r.jobs_per_sec())),
                            ("p50_job_ms", Json::Num(percentile(&r.latencies_ms, 0.50))),
                            ("p99_job_ms", Json::Num(percentile(&r.latencies_ms, 0.99))),
                            (
                                "speedup_vs_1t",
                                Json::Num(r.jobs_per_sec() / results[0].jobs_per_sec()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_table(name: &str, results: &[WorkloadResult]) {
    println!("\n### {name}\n");
    println!("| threads | jobs/s | speedup vs 1T | p50 job (ms) | p99 job (ms) |");
    println!("|---|---|---|---|---|");
    for r in results {
        println!(
            "| {} | {:.2} | {:.2}x | {:.1} | {:.1} |",
            r.threads,
            r.jobs_per_sec(),
            r.jobs_per_sec() / results[0].jobs_per_sec(),
            percentile(&r.latencies_ms, 0.50),
            percentile(&r.latencies_ms, 0.99),
        );
    }
}

fn baseline_match_jobs_per_sec(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = Json::parse(&text).ok()?;
    json.get("throughput")?
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some("match_jobs"))?
        .get("per_threads")?
        .as_array()?
        .iter()
        .find(|t| t.get("threads").and_then(Json::as_f64) == Some(1.0))?
        .get("jobs_per_sec")?
        .as_f64()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let rounds = rounds();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    let baseline = baseline_match_jobs_per_sec(path);

    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "[throughput_scaling] {JOBS} jobs/round x {rounds} rounds, host parallelism \
         {parallelism}"
    );

    let classes = build_classes();
    let match_results: Vec<WorkloadResult> = THREAD_COUNTS
        .iter()
        .map(|&t| run_match_jobs(&classes, t, rounds))
        .collect();

    let data = SyntheticVision::new(core50());
    let serve_results: Vec<WorkloadResult> = THREAD_COUNTS
        .iter()
        .map(|&t| run_serve_batches(&data, t, rounds.min(4)))
        .collect();

    println!("\n## throughput_scaling — {JOBS} concurrent independent jobs\n");
    println!("(host parallelism: {parallelism})");
    print_table("match_jobs (per-class one_step_match)", &match_results);
    print_table(
        &format!("serve_batches ({JOBS}-tenant batch scheduler)"),
        &serve_results,
    );

    let throughput = Json::obj([
        ("jobs_per_round", Json::Num(JOBS as f64)),
        ("rounds", Json::Num(rounds as f64)),
        (
            "threads",
            Json::Arr(THREAD_COUNTS.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        (
            "workloads",
            Json::Arr(vec![
                workload_json("match_jobs", &match_results),
                workload_json("serve_batches", &serve_results),
            ]),
        ),
    ]);

    // Schema v2 read-modify-write: preserve the intra_op section owned
    // by runtime_scaling.
    let intra_op = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| j.get("intra_op").cloned());
    let mut fields = vec![
        ("bench", Json::Str("runtime_scaling".to_string())),
        ("schema_version", Json::Num(2.0)),
        ("available_parallelism", Json::Num(parallelism as f64)),
    ];
    if let Some(intra) = intra_op {
        fields.push(("intra_op", intra));
    }
    fields.push(("throughput", throughput));
    let report = Json::obj(fields);
    let mut text = report.to_string_pretty();
    text.push('\n');
    std::fs::write(path, text).expect("write BENCH_runtime.json");
    eprintln!("[throughput_scaling] wrote {path}");

    if check {
        let current = match_results[0].jobs_per_sec();
        match baseline {
            Some(base) if current < base / CHECK_FACTOR => {
                eprintln!(
                    "[throughput_scaling] REGRESSION: 1T match_jobs {current:.2} jobs/s < \
                     committed {base:.2} / {CHECK_FACTOR}"
                );
                std::process::exit(1);
            }
            Some(base) => {
                eprintln!(
                    "[throughput_scaling] check ok: 1T match_jobs {current:.2} jobs/s vs \
                     committed {base:.2} (limit /{CHECK_FACTOR})"
                );
            }
            None => {
                eprintln!("[throughput_scaling] check skipped: no committed v2 baseline");
            }
        }
    }
}
