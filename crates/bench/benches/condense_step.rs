//! `condense_step`: single-thread wall time and allocation behaviour of
//! one condensation step — the matcher's five-pass Eq. 7 step
//! (`one_step_match`) and a full DM round (`dm_round`).
//!
//! Writes `BENCH_condense.json` at the repository root (linked from
//! EXPERIMENTS.md) through `deco_bench::report`. A counting
//! `#[global_allocator]` measures heap allocations per step.
//!
//! The `dm_round_<dtype>` rows sweep the buffer's at-rest storage
//! precision: one DM condense round per [`StorageDtype`] (the f32
//! working mirror makes the compute identical — the delta is the
//! per-segment `commit_storage` snap), with the `commit_storage` cost
//! and the resulting at-rest buffer bytes. Restrict the sweep with
//! `--storage-dtype f32,i8` (not under `--check`: a restricted sweep
//! lacks committed rows, which fails the row-set check).
//!
//! ```bash
//! cargo bench -p deco-bench --bench condense_step            # regenerate
//! DECO_BENCH_ITERS=5 cargo bench -p deco-bench --bench condense_step -- --check
//! ```
//!
//! `--check` gates `one_step_match` against the committed file and
//! requires the committed file's row set.

use std::process::ExitCode;
use std::time::Instant;

use deco_bench::report::{self, time_op, CountingAlloc, Report, Row};
use deco_condense::{
    one_step_match, CondenseContext, Condenser, DmCondenser, DmConfig, MatchBatch, SegmentData,
    SyntheticBuffer,
};
use deco_nn::{ConvNet, ConvNetConfig};
use deco_tensor::{Rng, StorageDtype, Tensor};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Op the `--check` gate tracks.
const CHECK_OP: &str = "one_step_match";

fn net(rng: &mut Rng) -> ConvNet {
    ConvNet::new(
        ConvNetConfig {
            in_channels: 3,
            image_side: 16,
            width: 8,
            depth: 3,
            num_classes: 10,
            norm: true,
        },
        rng,
    )
}

fn bench_ops(iters: usize) -> Vec<Row> {
    let mut rng = Rng::new(1);
    let model = net(&mut rng);
    let syn = Tensor::randn([5, 3, 16, 16], &mut rng);
    let syn_labels = vec![0usize; 5];
    let real = Tensor::randn([32, 3, 16, 16], &mut rng);
    let real_labels = vec![0usize; 32];
    let step = |_: ()| {
        let batch = MatchBatch {
            syn_images: &syn,
            syn_labels: &syn_labels,
            real_images: &real,
            real_labels: &real_labels,
            real_weights: None,
        };
        std::hint::black_box(one_step_match(&model, &batch, None, 0.01));
    };

    let mut dm_rng = Rng::new(3);
    let scratch = net(&mut dm_rng);
    let deployed = net(&mut dm_rng);
    let images = Tensor::randn([32, 3, 16, 16], &mut dm_rng);
    let labels = vec![3usize; 32];
    let weights = vec![1.0f32; 32];
    let mut buffer = SyntheticBuffer::new_random(5, 10, [3, 16, 16], &mut dm_rng);
    let mut dm = DmCondenser::new(DmConfig::default());
    let mut dm_round = move |round_rng: &mut Rng| {
        let seg = SegmentData {
            images: &images,
            labels: &labels,
            weights: &weights,
            active_classes: &[3],
        };
        let mut ctx = CondenseContext {
            scratch: &scratch,
            deployed: &deployed,
            rng: round_rng,
        };
        dm.condense(&mut buffer, &seg, &mut ctx);
    };

    let mut round_rng = Rng::new(7);
    vec![
        time_op(CHECK_OP, 1, iters, || step(())),
        time_op("dm_round", 1, iters, || dm_round(&mut round_rng)),
    ]
}

/// One DM condense round per storage precision over an identically
/// seeded buffer, plus the per-segment `commit_storage` cost and the
/// at-rest footprint of the committed buffer.
fn bench_storage_dtypes(iters: usize, dtypes: &[StorageDtype]) -> Vec<Row> {
    dtypes
        .iter()
        .map(|&dtype| {
            deco_runtime::with_thread_count(1, move || {
                let mut rng = Rng::new(3);
                let scratch = net(&mut rng);
                let deployed = net(&mut rng);
                let images = Tensor::randn([32, 3, 16, 16], &mut rng);
                let labels = vec![3usize; 32];
                let weights = vec![1.0f32; 32];
                let mut buffer = SyntheticBuffer::new_random(5, 10, [3, 16, 16], &mut rng)
                    .with_storage_dtype(dtype);
                let mut dm = DmCondenser::new(DmConfig::default());
                let mut round_rng = Rng::new(7);
                let mut round = |buffer: &mut SyntheticBuffer, rng: &mut Rng| {
                    let seg = SegmentData {
                        images: &images,
                        labels: &labels,
                        weights: &weights,
                        active_classes: &[3],
                    };
                    let mut ctx = CondenseContext {
                        scratch: &scratch,
                        deployed: &deployed,
                        rng,
                    };
                    dm.condense(buffer, &seg, &mut ctx);
                };
                round(&mut buffer, &mut round_rng); // warm-up
                buffer.commit_storage();
                let start = Instant::now();
                for _ in 0..iters {
                    round(&mut buffer, &mut round_rng);
                }
                let round_secs = start.elapsed().as_secs_f64() / iters as f64;
                let start = Instant::now();
                for _ in 0..iters {
                    buffer.commit_storage();
                }
                let commit_secs = start.elapsed().as_secs_f64() / iters as f64;
                Row::new(format!("dm_round_{}", dtype.label()), 1, round_secs * 1e3)
                    .with("commit_ms", commit_secs * 1e3)
                    .with("buffer_bytes", buffer.approx_bytes() as f64)
            })
        })
        .collect()
}

fn parse_dtypes() -> Vec<StorageDtype> {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--storage-dtype" {
            let list = args.get(i + 1).expect("--storage-dtype needs a value");
            return list
                .split(',')
                .map(|name| {
                    StorageDtype::parse(name.trim())
                        .unwrap_or_else(|| panic!("unknown storage dtype {name:?}"))
                })
                .collect();
        }
    }
    StorageDtype::ALL.to_vec()
}

fn main() -> ExitCode {
    let iters = report::iters(30);
    let mut report = Report::new("condense_step", iters);
    report.rows = bench_ops(iters);
    report
        .rows
        .extend(bench_storage_dtypes(iters, &parse_dtypes()));
    report::finish(&report, "BENCH_condense.json", &[(CHECK_OP, 1)])
}
