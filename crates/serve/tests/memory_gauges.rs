//! The scheduler's per-batch memory gauges: `serve.resident_bytes` holds
//! the session bytes the budget counts, and `tensor.pool.held_bytes` the
//! bytes every thread's tensor pool has parked beside them.
//!
//! In its own binary, because it owns the process-wide telemetry flag.

use deco_datasets::{core50, SyntheticVision};
use deco_serve::{Server, ServerConfig, TenantSession, TenantSpec};

#[test]
fn each_batch_publishes_resident_and_pooled_bytes() {
    let data = SyntheticVision::new(core50());
    let spec = |id| TenantSpec::quick(id, 0xACE0_0000 ^ id, data.spec(), 2);
    let session_bytes = TenantSession::new(spec(0), &data).resident_bytes();
    let budget = session_bytes + session_bytes / 2;
    let dir = std::env::temp_dir().join("deco-serve-test-memory-gauges");
    let config = ServerConfig::new(dir)
        .with_budget(Some(budget))
        .with_batch_tenants(1);

    deco_telemetry::set_enabled(true);
    let mut server = Server::new(&data, config);
    for id in 0..3 {
        server.admit(spec(id));
        server.submit(id, 2);
    }
    server.run();
    deco_telemetry::set_enabled(false);

    assert!(server.evictions() > 0, "the budget was meant to evict");
    let gauge = |name| deco_telemetry::metrics::gauge(name).get();
    // After a batch the budget holds with nothing protected: one session
    // is resident.
    let resident = gauge("serve.resident_bytes");
    assert!(
        resident > 0 && resident as u64 <= budget,
        "resident {resident} bytes against a {budget}-byte budget"
    );
    assert!(
        gauge("tensor.pool.held_bytes") > 0,
        "the submitter parks the buffers its next segment takes back"
    );
}
