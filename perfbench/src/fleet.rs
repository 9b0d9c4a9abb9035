//! The `serve_fleet` workload: 16 quick tenants behind one `Server`,
//! served in batches of 8 under a memory budget that holds half the
//! fleet, so every event pays one eviction and one rehydration.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use deco_datasets::{core50, SyntheticVision};
use deco_serve::{Server, ServerConfig, SessionState, TenantSession, TenantSpec};

use crate::alloc::alloc_count;
use crate::probe::{cpu_seconds, span_total, Trace};
use crate::report::Outcome;
use crate::stats::{mean, median_rate, Fnv};
use crate::{timed_setups, Budget, RunArgs};

/// Tenants in the fleet; also the closed loop's client count.
const TENANTS: u64 = 16;
/// Tenants per `Server::run` call: half the fleet.
const BATCH: u64 = 8;
/// Stream segments per tenant; far more than any run reaches.
const STREAM_LEN: usize = 1 << 20;
/// Held-out images per class for the post-run accuracy.
const TEST_PER_CLASS: usize = 20;
/// Tenant models are the same on every run: `--seed` picks the tenants'
/// streams, which are the fleet's input.
const MODEL_SEED: u64 = 0xBE7C_0000;

/// Run length of the fleet.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fewest `Server::run` calls a timed run makes.
    min_calls: usize,
}

/// The benchmark's fleet.
pub const FULL: Scale = Scale { min_calls: 24 };

/// A seconds-long version for the benchmark's own tests.
#[cfg(test)]
pub const TINY: Scale = Scale { min_calls: 20 };

/// Worker threads: 2, or fewer on a smaller host.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// A spill directory private to this process, removed on drop. It sits
/// under the working directory so a run writes only inside its checkout.
struct SpillRoot(PathBuf);

impl SpillRoot {
    fn new() -> SpillRoot {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(".perfbench_spill").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
        SpillRoot(dir)
    }
}

impl Drop for SpillRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the shared parent only once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn specs(data: &SyntheticVision, seed: u64) -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|id| {
            let mut spec = TenantSpec::quick(id, MODEL_SEED + id, data.spec(), STREAM_LEN);
            spec.stream.seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id;
            spec
        })
        .collect()
}

/// The first-touch wave: sizes the budget from one probe tenant, admits
/// and builds every tenant (the budget spills the least recently used
/// half), then serves one segment to the first half of each batch. That
/// puts each batch's tenants a segment apart in their β = 2 cycle, so
/// every call retrains four tenants; in lockstep, calls would alternate
/// between eight retrains and none and the median call would sit on the
/// boundary between the two.
fn start_fleet<'a>(data: &'a SyntheticVision, specs: &[TenantSpec], dir: PathBuf) -> Server<'a> {
    let budget = TenantSession::new(specs[0].clone(), data).resident_bytes() * (TENANTS / 2);
    let config = ServerConfig::new(dir)
        .with_budget(Some(budget))
        .with_batch_tenants(BATCH as usize);
    let mut server = Server::new(data, config);
    for spec in specs {
        server.admit(spec.clone());
    }
    for spec in specs {
        server.state_of(spec.id);
    }
    for id in (0..TENANTS).filter(|id| id % BATCH < BATCH / 2) {
        server.submit(id, 1);
    }
    server.run();
    server
}

struct Pass {
    /// Wall time of each `Server::run` call, which each of its events saw.
    call_ms: Vec<f64>,
    served: u64,
    attempted: u64,
    failed: u64,
    /// Heap allocations inside the `run` calls.
    allocs: u64,
    wall_s: f64,
    cpu_s: f64,
    peak_heap: usize,
    evictions: u64,
    rehydrations: u64,
}

impl Pass {
    /// Events per second of `run` time.
    fn mean_rate(&self) -> f64 {
        self.served as f64 * 1e3 / self.call_ms.iter().sum::<f64>()
    }
}

/// Closed loop: each call submits one segment for each of the next
/// batch's eight tenants, alternating halves of the fleet.
fn fleet_pass(server: &mut Server<'_>, budget: Budget, mut trace: Option<&mut Trace>) -> Pass {
    let (ev0, re0) = (server.evictions(), server.rehydrations());
    let mut pass = Pass {
        call_ms: Vec::new(),
        served: 0,
        attempted: 0,
        failed: 0,
        allocs: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_heap: 0,
        evictions: 0,
        rehydrations: 0,
    };
    crate::alloc::reset_peak();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    while !budget.spent(pass.call_ms.len(), start) {
        let first = (pass.call_ms.len() as u64 % (TENANTS / BATCH)) * BATCH;
        let ids: Vec<u64> = (first..first + BATCH).collect();
        for &id in &ids {
            server.submit(id, 1);
        }
        let allocs = alloc_count();
        let t = Instant::now();
        let events = catch_unwind(AssertUnwindSafe(|| server.run()));
        pass.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.allocs += alloc_count() - allocs;
        let served = match events {
            Ok(events) => ids
                .iter()
                .filter(|&&id| events.iter().filter(|e| e.tenant_id == id).count() == 1)
                .count() as u64,
            Err(_) => 0,
        };
        pass.attempted += BATCH;
        pass.served += served;
        pass.failed += BATCH - served;
        if let Some(trace) = trace.as_deref_mut() {
            trace.sample();
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = cpu_seconds() - cpu0;
    pass.peak_heap = crate::alloc::peak_bytes();
    pass.evictions = server.evictions() - ev0;
    pass.rehydrations = server.rehydrations() - re0;
    pass
}

/// Every tenant's state after a pass, in id order.
fn states(server: &mut Server<'_>) -> Vec<SessionState> {
    (0..TENANTS).map(|id| server.state_of(id)).collect()
}

/// FNV-1a over every tenant's `SessionState::to_bytes`.
fn output_digest(states: &[SessionState]) -> u64 {
    let mut h = Fnv::default();
    for s in states {
        h.bytes(&s.to_bytes());
    }
    h.finish()
}

/// Runs the fleet on a pool of [`threads`] workers.
pub fn run(scale: &Scale, args: &RunArgs) -> Outcome {
    deco_runtime::with_thread_count(threads(), || run_on_pool(scale, args))
}

fn run_on_pool(scale: &Scale, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let spill = SpillRoot::new();
    let data = SyntheticVision::new(core50());
    let specs = specs(&data, args.seed);
    let test = data.test_set(TEST_PER_CLASS);
    let fleets = AtomicUsize::new(0);
    let fleet = || {
        let n = fleets.fetch_add(1, Ordering::Relaxed);
        start_fleet(&data, &specs, spill.0.join(format!("fleet{n}")))
    };
    let (mut server, setup_s) = timed_setups(threads(), fleet);
    out.set("setup_s", setup_s);

    let budget = Budget::Seconds {
        seconds: args.seconds,
        min: scale.min_calls,
    };
    let pass = fleet_pass(&mut server, budget, None);
    let calls = pass.call_ms.len();
    out.attempted = pass.attempted;
    out.failed = pass.failed;
    let final_states = states(&mut server);
    drop(server);
    let digest = output_digest(&final_states);
    out.note(format!(
        "calls {calls}, events {}, evictions {}, rehydrations {}",
        pass.served, pass.evictions, pass.rehydrations
    ));
    out.note(format!("digest {digest:016x}"));

    let mut accuracy = Vec::new();
    let mut buffer_bytes = Vec::new();
    for (spec, state) in specs.iter().zip(&final_states) {
        if !state
            .snapshot
            .buffer_images
            .data()
            .iter()
            .all(|v| v.is_finite())
        {
            out.problem(format!("tenant {} buffer went non-finite", spec.id));
        }
        let session = TenantSession::from_state(spec.clone(), &data, state);
        accuracy.push(f64::from(session.learner().evaluate(&test)));
        buffer_bytes.push(session.learner().buffer_bytes() as f64);
    }

    out.set(
        "segments_per_s",
        median_rate(&pass.call_ms, 2) * BATCH as f64,
    );
    out.latencies(&pass.call_ms, "calls");
    out.set("peak_heap_bytes", pass.peak_heap as f64);
    out.set("buffer_bytes", mean(&buffer_bytes));
    out.set("final_accuracy", mean(&accuracy));
    out.set("runtime.cpu_per_wall", pass.cpu_s / pass.wall_s);

    if args.trace {
        let mut server = fleet();
        let mut trace = Trace::start();
        let traced = fleet_pass(&mut server, Budget::Count(calls), Some(&mut trace));
        let events = traced.served.max(1) as f64;
        let (_, match_ms) = span_total("condense.matcher.parallel_classes");
        let (_, retrain_ms) = span_total("core.train_model");
        let (jobs, job_ms) = span_total("condense.matcher.one_step");
        trace.finish(&mut out, events);
        out.set("heap.allocs", traced.allocs as f64 / events);
        out.attempted += traced.attempted;
        out.failed += traced.failed;

        let traced_states = states(&mut server);
        drop(server);
        let traced_digest = output_digest(&traced_states);
        out.note(format!("traced digest {traced_digest:016x}"));
        if traced_digest != digest {
            out.problem("traced and untraced runs disagree on the tenants' sessions");
        }

        // Spill cost measured on the fleet's own sessions.
        let mut write_ms = Vec::new();
        let mut read_ms = Vec::new();
        let mut session_bytes = Vec::new();
        for (spec, state) in specs.iter().zip(&traced_states) {
            let path = spill.0.join(format!("probe-{}.dsrv", spec.id));
            let t = Instant::now();
            state.save(&path).expect("spill write");
            write_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let loaded = SessionState::load(&path).expect("spill read");
            let session = TenantSession::from_state(spec.clone(), &data, &loaded);
            read_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(session);
            session_bytes.push(state.serialized_bytes() as f64);
        }

        let batches = calls.max(1) as f64;
        let evictions = traced.evictions as f64 / events;
        let rehydrations = traced.rehydrations as f64 / events;
        out.set("serve.evictions", evictions);
        out.set("serve.rehydrations", rehydrations);
        out.set("serve.spill_write_ms", mean(&write_ms));
        out.set("serve.spill_read_ms", mean(&read_ms));
        out.set("serve.session_bytes", mean(&session_bytes));
        out.set("serve.match_ms", match_ms / batches);
        out.set("serve.retrain_ms", retrain_ms / batches);
        out.set("matcher.job_ms", job_ms / jobs.max(1) as f64);
        let spill_ms =
            events / batches * (evictions * mean(&write_ms) + rehydrations * mean(&read_ms));
        out.set(
            "unattributed_ms",
            mean(&traced.call_ms) - (match_ms + retrain_ms) / batches - spill_ms,
        );
        out.set("trace_overhead", traced.mean_rate() / pass.mean_rate());
        // The scheduler drives the learner and condenser phases itself;
        // those layers are timed on the learner workloads.
        for name in [
            "learner.prepare_ms",
            "learner.condense_ms",
            "learner.retrain_ms",
            "learner.commit_ms",
            "learner.kept_ratio",
            "deco.build_ms",
            "deco.match_ms",
            "deco.apply_ms",
            "deco.jobs",
            "matcher.real_items",
            "matcher.syn_items",
        ] {
            out.set(name, 0.0);
        }
    }
    out
}
