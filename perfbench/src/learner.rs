//! The two single-learner workloads: a DECO learner (`deco_stream`) and a
//! DM learner with an i8 buffer (`dm_i8_stream`), both on the CORe50
//! analogue at one thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use deco::{pretrain, BufferPolicy, DecoCondenser, DecoConfig, LearnerConfig, OnDeviceLearner};
use deco_condense::{match_classes_parallel, DmCondenser, DmConfig, SyntheticBuffer};
use deco_datasets::{core50, LabeledSet, Segment, SyntheticVision};
use deco_nn::{ConvNet, ConvNetConfig};
use deco_tensor::{Rng, StorageDtype};

use crate::alloc::alloc_count;
use crate::probe::{cpu_seconds, Trace};
use crate::report::Outcome;
use crate::stats::{mean, median_rate, percentile, Fnv};
use crate::stream::BalancedStream;
use crate::{timed_setups, Budget, RunArgs};

/// The buffer method under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// DECO condensation, f32 buffer.
    Deco,
    /// Distribution matching, i8 buffer.
    DmI8,
}

/// Learner shape and stream settings.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    width: usize,
    depth: usize,
    segment_size: usize,
    beta: usize,
    iterations: usize,
    model_epochs: usize,
    ipc: usize,
    pretrain_per_class: usize,
    pretrain_steps: usize,
    test_per_class: usize,
    /// Fewest segments a timed run processes, so the tail percentile
    /// lands among the β segments.
    min_segments: usize,
}

/// `ExperimentScale::Smoke` on CORe50 (Table II settings), with a larger
/// test set so `final_accuracy` moves in finer steps.
pub const SMOKE: Scale = Scale {
    width: 8,
    depth: 3,
    segment_size: 32,
    beta: 4,
    iterations: 5,
    model_epochs: 12,
    ipc: 10,
    pretrain_per_class: 4,
    pretrain_steps: 50,
    test_per_class: 20,
    min_segments: 48,
};

/// A seconds-long version for the benchmark's own tests.
#[cfg(test)]
pub const TINY: Scale = Scale {
    width: 4,
    depth: 2,
    segment_size: 16,
    beta: 2,
    iterations: 1,
    model_epochs: 2,
    ipc: 1,
    pretrain_per_class: 2,
    pretrain_steps: 4,
    test_per_class: 2,
    min_segments: 20,
};

const PRETRAIN_LR: f32 = 0.02;
const MODEL_LR: f32 = 5e-3;
const VOTE_THRESHOLD: f32 = 0.4;
/// The deployed model is the same on every run: `--seed` picks the
/// stream, which is the learner's only input.
const MODEL_SEED: u64 = 0xDEC0;

struct Setup {
    data: SyntheticVision,
    learner: OnDeviceLearner,
    test: LabeledSet,
}

/// Dataset build, pre-training and buffer init.
fn set_up(method: Method, scale: &Scale) -> Setup {
    let data = SyntheticVision::new(core50());
    let spec = data.spec();
    let net = ConvNetConfig {
        in_channels: spec.channels,
        image_side: spec.image_side,
        width: scale.width,
        depth: scale.depth,
        num_classes: spec.num_classes,
        norm: true,
    };
    let mut rng = Rng::new(MODEL_SEED);
    let model = ConvNet::new(net, &mut rng);
    let pretrain_set = data.pretrain_set(scale.pretrain_per_class);
    pretrain(&model, &pretrain_set, scale.pretrain_steps, PRETRAIN_LR);
    let scratch = ConvNet::new(net, &mut rng);
    let test = data.test_set(scale.test_per_class);
    let buffer =
        SyntheticBuffer::from_labeled(&pretrain_set, scale.ipc, spec.num_classes, &mut rng);
    let policy = match method {
        Method::Deco => BufferPolicy::Condensed {
            condenser: Box::new(DecoCondenser::new(
                DecoConfig::default()
                    .with_iterations(scale.iterations)
                    .with_model_lr(MODEL_LR)
                    .with_model_epochs(scale.model_epochs)
                    .with_beta(scale.beta),
            )),
            buffer,
        },
        Method::DmI8 => BufferPolicy::Condensed {
            condenser: Box::new(DmCondenser::new(DmConfig::default())),
            buffer: buffer.with_storage_dtype(StorageDtype::I8),
        },
    };
    let config = LearnerConfig {
        vote_threshold: VOTE_THRESHOLD,
        beta: scale.beta,
        model_lr: MODEL_LR,
        model_epochs: scale.model_epochs,
    };
    let learner = OnDeviceLearner::new(model, scratch, policy, config, rng.fork(1));
    Setup {
        data,
        learner,
        test,
    }
}

fn buffer_images(learner: &OnDeviceLearner) -> &[f32] {
    match learner.policy() {
        BufferPolicy::Condensed { buffer, .. } => buffer.images().data(),
        BufferPolicy::Selection { .. } => unreachable!("both workloads condense"),
    }
}

/// FNV-1a over the final model parameters and buffer bits.
fn output_digest(learner: &OnDeviceLearner) -> u64 {
    let mut h = Fnv::default();
    for p in learner.model().get_params() {
        h.f32s(p.data());
    }
    h.f32s(buffer_images(learner));
    h.finish()
}

/// One pass over the stream.
struct Pass {
    latencies_ms: Vec<f64>,
    retrained: usize,
    failed: u64,
    /// Heap allocations inside the segment calls.
    allocs: u64,
    wall_s: f64,
    cpu_s: f64,
    peak_heap: usize,
}

impl Pass {
    /// Segments per second of segment time.
    fn mean_rate(&self) -> f64 {
        self.latencies_ms.len() as f64 * 1e3 / self.latencies_ms.iter().sum::<f64>()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Feeds the seed's stream to the learner until `budget` is spent,
/// through `process_segment` or, when traced, the phase-level calls.
fn stream_pass(
    setup: &mut Setup,
    scale: &Scale,
    seed: u64,
    budget: Budget,
    mut layers: Option<&mut Layers>,
) -> Pass {
    let run_len = setup.data.spec().stc.min(40);
    let mut stream = BalancedStream::new(&setup.data, scale.segment_size, run_len, seed);
    let learner = &mut setup.learner;
    let mut pass = Pass {
        latencies_ms: Vec::new(),
        retrained: 0,
        failed: 0,
        allocs: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_heap: 0,
    };
    crate::alloc::reset_peak();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    while !budget.spent(pass.latencies_ms.len(), start) {
        let segment = stream.next_segment();
        let allocs = alloc_count();
        let t = Instant::now();
        let done = catch_unwind(AssertUnwindSafe(|| match layers.as_deref_mut() {
            Some(layers) => layers.segment(learner, &segment),
            None => learner.process_segment(&segment).model_updated,
        }));
        pass.latencies_ms.push(ms_since(t));
        pass.allocs += alloc_count() - allocs;
        let finite = buffer_images(learner).iter().all(|v| v.is_finite());
        match done {
            Ok(retrained) if finite => pass.retrained += usize::from(retrained),
            _ => pass.failed += 1,
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = cpu_seconds() - cpu0;
    pass.peak_heap = crate::alloc::peak_bytes();
    pass
}

/// Per-layer timings of the traced pass, taken around the learner's and
/// condenser's public phase calls.
#[derive(Default)]
struct Layers {
    trace: Option<Trace>,
    prepare_ms: Vec<f64>,
    condense_ms: Vec<f64>,
    retrain_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    kept_ratio: Vec<f64>,
    build_ms: f64,
    match_ms: f64,
    apply_ms: f64,
    job_ms: Vec<f64>,
    real_items: usize,
    syn_items: usize,
}

impl Layers {
    fn sample(&mut self) {
        if let Some(t) = &mut self.trace {
            t.sample();
        }
    }

    /// One segment through `prepare_segment`, the buffer update, and
    /// `complete_segment`; returns whether the model was retrained. The
    /// DECO update runs the phased path one match job at a time, which is
    /// bitwise equal to `process_segment`.
    fn segment(&mut self, learner: &mut OnDeviceLearner, segment: &Segment) -> bool {
        let t = Instant::now();
        let prepared = learner.prepare_segment(segment);
        self.prepare_ms.push(ms_since(t));
        self.sample();
        self.kept_ratio
            .push(prepared.kept() as f64 / segment.len().max(1) as f64);

        let t = Instant::now();
        match learner.deco_begin_segment(&prepared) {
            Some(phase) => {
                for _ in 0..phase.iterations {
                    let tb = Instant::now();
                    let built = learner.deco_build_iteration(&prepared);
                    self.build_ms += ms_since(tb);
                    self.sample();
                    let mut results = Vec::with_capacity(built.jobs.len());
                    for job in built.jobs {
                        self.real_items += job.real_images.shape().dims()[0];
                        self.syn_items += job.syn_images.shape().dims()[0];
                        let tj = Instant::now();
                        results.extend(match_classes_parallel(
                            built.config,
                            built.params.clone(),
                            vec![job],
                            built.epsilon_scale,
                        ));
                        let job_ms = ms_since(tj);
                        self.match_ms += job_ms;
                        self.job_ms.push(job_ms);
                        self.sample();
                    }
                    let ta = Instant::now();
                    learner.deco_apply_iteration(&phase, &built.rows_list, &results);
                    self.apply_ms += ms_since(ta);
                    self.sample();
                }
            }
            None => {
                learner.condense_prepared(&prepared);
                self.sample();
            }
        }
        self.condense_ms.push(ms_since(t));

        let t = Instant::now();
        let report = learner.complete_segment(prepared);
        let ms = ms_since(t);
        self.sample();
        if report.model_updated {
            self.retrain_ms.push(ms);
        } else {
            self.commit_ms.push(ms);
        }
        report.model_updated
    }

    fn record(self, out: &mut Outcome, traced: &Pass) {
        let n = traced.latencies_ms.len().max(1) as f64;
        let jobs = self.job_ms.len();
        out.set("learner.prepare_ms", mean(&self.prepare_ms));
        out.set("learner.condense_ms", mean(&self.condense_ms));
        out.set("learner.retrain_ms", mean(&self.retrain_ms));
        out.set("learner.commit_ms", mean(&self.commit_ms));
        out.set("learner.kept_ratio", mean(&self.kept_ratio));
        out.set("deco.build_ms", self.build_ms / n);
        out.set("deco.match_ms", self.match_ms / n);
        out.set("deco.apply_ms", self.apply_ms / n);
        out.set("deco.jobs", jobs as f64 / n);
        let mut job_ms = self.job_ms;
        job_ms.sort_by(f64::total_cmp);
        let per_job = |items: usize| items as f64 / jobs.max(1) as f64;
        out.set(
            "matcher.job_ms",
            if jobs == 0 {
                0.0
            } else {
                percentile(&job_ms, 50.0)
            },
        );
        out.set("matcher.real_items", per_job(self.real_items));
        out.set("matcher.syn_items", per_job(self.syn_items));
        let layered: f64 = [
            &self.prepare_ms,
            &self.condense_ms,
            &self.retrain_ms,
            &self.commit_ms,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
        out.set(
            "unattributed_ms",
            (traced.latencies_ms.iter().sum::<f64>() - layered) / n,
        );
        out.set("heap.allocs", traced.allocs as f64 / n);
        if let Some(trace) = self.trace {
            trace.finish(out, n);
        }
    }
}

/// Runs a learner workload at one thread.
pub fn run(method: Method, scale: &Scale, args: &RunArgs) -> Outcome {
    deco_runtime::with_thread_count(1, || run_on_pool(method, scale, args))
}

fn run_on_pool(method: Method, scale: &Scale, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, setup_s) = timed_setups(1, || set_up(method, scale));
    let start_state = setup.learner.snapshot();

    let budget = Budget::Seconds {
        seconds: args.seconds,
        min: scale.min_segments,
    };
    let pass = stream_pass(&mut setup, scale, args.seed, budget, None);
    let n = pass.latencies_ms.len();
    out.attempted = n as u64;
    out.failed = pass.failed;
    let accuracy = setup.learner.evaluate(&setup.test);
    let digest = output_digest(&setup.learner);
    out.note(format!("segments {n}, retrain segments {}", pass.retrained));
    out.note(format!("digest {digest:016x}"));

    out.set("setup_s", setup_s);
    out.set(
        "segments_per_s",
        median_rate(&pass.latencies_ms, scale.beta),
    );
    out.latencies(&pass.latencies_ms, "segments");
    out.set("peak_heap_bytes", pass.peak_heap as f64);
    out.set("buffer_bytes", setup.learner.buffer_bytes() as f64);
    out.set("final_accuracy", f64::from(accuracy));
    out.set("runtime.cpu_per_wall", pass.cpu_s / pass.wall_s);
    if !(0.0..=1.0).contains(&accuracy) {
        out.problem(format!("accuracy {accuracy} outside [0, 1]"));
    }

    if args.trace {
        setup.learner.restore(&start_state);
        let mut layers = Layers {
            trace: Some(Trace::start()),
            ..Layers::default()
        };
        let traced = stream_pass(
            &mut setup,
            scale,
            args.seed,
            Budget::Count(n),
            Some(&mut layers),
        );
        layers.record(&mut out, &traced);
        out.attempted += traced.latencies_ms.len() as u64;
        out.failed += traced.failed;
        let traced_digest = output_digest(&setup.learner);
        out.note(format!("traced digest {traced_digest:016x}"));
        if traced_digest != digest {
            out.problem("traced and untraced runs disagree on the final model and buffer");
        }
        out.set("trace_overhead", traced.mean_rate() / pass.mean_rate());
        for name in [
            "serve.evictions",
            "serve.rehydrations",
            "serve.spill_write_ms",
            "serve.spill_read_ms",
            "serve.session_bytes",
            "serve.match_ms",
            "serve.retrain_ms",
        ] {
            out.set(name, 0.0);
        }
    }
    out
}
