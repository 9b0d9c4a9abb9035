//! `serve_throughput`: multi-tenant serving throughput across
//! `DECO_THREADS` ∈ {1, 2, 4} — a fleet of tenants drained through the
//! `deco-serve` batch scheduler under a resident-memory budget that
//! forces evict/rehydrate cycles, so the numbers include the full
//! serving overhead (session serialization, spill I/O, cross-tenant
//! batch dispatch), not just the condensation math.
//!
//! Writes `BENCH_serve.json` at the repository root (linked from
//! EXPERIMENTS.md) through `deco_bench::report`: one `fleet_events` row
//! per thread count, whose `mean_ms` is wall time per event, with p50/p99
//! batch step latency and the eviction and rehydration counts; the
//! header's `params` hold the fleet shape, the memory budget and the
//! steady-state serialized bytes per tenant. On a host with fewer cores
//! than threads the rows document the scheduling overhead rather than a
//! speedup. `DECO_BENCH_ITERS` sets the segments per tenant (default 4).
//!
//! ```bash
//! cargo bench -p deco-bench --bench serve_throughput            # regenerate
//! DECO_BENCH_ITERS=2 cargo bench -p deco-bench --bench serve_throughput -- --check
//! ```
//!
//! `--check` gates the single-thread `fleet_events` row against the
//! committed file.

use std::process::ExitCode;
use std::time::Instant;

use deco_bench::report::{self, job_row, Report, Row};
use deco_datasets::{core50, SyntheticVision};
use deco_serve::{Server, ServerConfig, TenantSession, TenantSpec};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const TENANTS: u64 = 12;
const BATCH_TENANTS: usize = 8;
/// The gated op.
const FLEET_OP: &str = "fleet_events";

fn run_fleet(data: &SyntheticVision, threads: usize, segments: usize, budget: u64) -> Row {
    deco_runtime::with_thread_count(threads, || {
        let spill = std::env::temp_dir().join(format!("deco-serve-bench-{threads}t"));
        let config = ServerConfig::new(spill)
            .with_budget(Some(budget))
            .with_batch_tenants(BATCH_TENANTS);
        let mut server = Server::new(data, config);
        for id in 0..TENANTS {
            server.admit(TenantSpec::quick(
                id,
                0xBE7C_0000 ^ id,
                data.spec(),
                segments,
            ));
            server.submit(id, segments);
        }
        let start = Instant::now();
        let events = server.run();
        let wall_s = start.elapsed().as_secs_f64();
        let latencies_ms = events.iter().map(|e| e.batch_seconds * 1e3).collect();
        job_row(FLEET_OP, threads, wall_s, latencies_ms)
            .with("evictions", server.evictions() as f64)
            .with("rehydrations", server.rehydrations() as f64)
    })
}

fn main() -> ExitCode {
    let segments = report::iters(4);
    let data = SyntheticVision::new(core50());
    // A budget of ~half the fleet forces steady evict/rehydrate churn.
    let probe_spec = TenantSpec::quick(u64::MAX, 0xBEEF, data.spec(), 1);
    let probe = TenantSession::new(probe_spec, &data);
    let per_tenant = probe.resident_bytes();
    let state_bytes = probe.state().serialized_bytes();
    let budget = per_tenant * (TENANTS / 2);
    drop(probe);

    let mut report = Report::new("serve_throughput", segments)
        .param("tenants", TENANTS as f64)
        .param("batch_tenants", BATCH_TENANTS as f64)
        .param("mem_budget_bytes", budget as f64)
        .param("steady_state_bytes_per_tenant", state_bytes as f64);
    report.rows = THREAD_COUNTS
        .iter()
        .map(|&t| run_fleet(&data, t, segments, budget))
        .collect();
    report::finish(&report, "BENCH_serve.json", &[(FLEET_OP, 1)])
}
