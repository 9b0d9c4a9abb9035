//! The multi-tenant scheduler: round-robin fairness over pending tenants,
//! an LRU byte budget that evicts idle sessions to disk, and *cross-tenant
//! batch condensation* — the per-class matching jobs of up to
//! `batch_tenants` tenants are merged into single `deco-runtime`
//! dispatches, so the pool amortizes its fan-out over K tenants instead
//! of being invoked K times with a handful of jobs each.
//!
//! # Determinism contract
//!
//! A tenant's results are bitwise identical whether it runs solo or
//! interleaved with any number of other tenants, survives any pattern of
//! evict/rehydrate cycles, at any `DECO_THREADS` setting. The contract
//! holds by construction, not by luck:
//!
//! * every tenant owns a private RNG universe seeded from its spec — no
//!   scheduler decision ever touches tenant RNG;
//! * each [`deco_condense::BatchMatchJob`] carries its *own* network
//!   snapshot and inputs, so a job's result cannot depend on which other
//!   jobs share its dispatch (`parallel_map` returns results in job order
//!   at any thread count);
//! * eviction serializes sessions through the bit-exact
//!   [`SessionState`] format and streams are rebuilt from cursors.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use deco::{DecoPhase, PreparedSegment, SegmentReport};
use deco_condense::{match_jobs_parallel, BatchMatchJob};
use deco_datasets::SyntheticVision;

use crate::session::SessionState;
use crate::tenant::{TenantSession, TenantSpec};

/// Environment variable holding the resident-memory budget in bytes.
pub const MEM_BUDGET_ENV: &str = "DECO_SERVE_MEM_BYTES";

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Resident-session byte budget; exceeding it evicts LRU tenants to
    /// disk. `None` disables eviction.
    pub mem_budget_bytes: Option<u64>,
    /// Maximum tenants whose jobs are merged into one pool batch.
    pub batch_tenants: usize,
    /// Directory evicted sessions are written to.
    pub spill_dir: PathBuf,
}

impl ServerConfig {
    /// A config spilling to `spill_dir`, with the budget taken from
    /// `DECO_SERVE_MEM_BYTES` (unset = unlimited) and a batch width of 8.
    ///
    /// # Panics
    /// Panics, naming the variable and its value, when
    /// `DECO_SERVE_MEM_BYTES` is set but is not a whole number of bytes.
    pub fn new(spill_dir: PathBuf) -> ServerConfig {
        let value = std::env::var_os(MEM_BUDGET_ENV).map(|v| v.to_string_lossy().into_owned());
        let mem_budget_bytes = parse_mem_budget(value.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        ServerConfig {
            mem_budget_bytes,
            batch_tenants: 8,
            spill_dir,
        }
    }

    /// Overrides the memory budget.
    #[must_use]
    pub fn with_budget(mut self, bytes: Option<u64>) -> ServerConfig {
        self.mem_budget_bytes = bytes;
        self
    }

    /// Overrides the batch width.
    ///
    /// # Panics
    /// Panics on a zero width.
    #[must_use]
    pub fn with_batch_tenants(mut self, n: usize) -> ServerConfig {
        assert!(n > 0, "batch width must be positive");
        self.batch_tenants = n;
        self
    }
}

/// Parses a `DECO_SERVE_MEM_BYTES` value: unset means no budget, and
/// anything but a whole number of bytes is an error, so a typo such as
/// `64MiB` cannot silently turn the budget off.
fn parse_mem_budget(value: Option<&str>) -> Result<Option<u64>, String> {
    let Some(v) = value else {
        return Ok(None);
    };
    v.trim()
        .parse::<u64>()
        .map(Some)
        .map_err(|_| format!("{MEM_BUDGET_ENV} must be a whole number of bytes, got {v:?}"))
}

/// One processed segment event.
#[derive(Debug, Clone)]
pub struct EventResult {
    /// The tenant the segment belonged to.
    pub tenant_id: u64,
    /// The tenant's segment count after this event (1-based).
    pub segment_index: usize,
    /// The learner's per-segment report.
    pub report: SegmentReport,
    /// Wall time of the enclosing batch — the latency every event in the
    /// batch observed.
    pub batch_seconds: f64,
}

/// The serving host: tenant registry, resident-session cache, spill
/// store, and the round-robin batch scheduler.
pub struct Server<'a> {
    dataset: &'a SyntheticVision,
    config: ServerConfig,
    specs: HashMap<u64, TenantSpec>,
    resident: HashMap<u64, TenantSession>,
    /// Least-recently-used first.
    lru: VecDeque<u64>,
    spilled: HashMap<u64, PathBuf>,
    queue: VecDeque<u64>,
    pending: HashMap<u64, usize>,
    evictions: u64,
    rehydrations: u64,
    batches: u64,
    events: u64,
}

impl std::fmt::Debug for Server<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tenants", &self.specs.len())
            .field("resident", &self.resident.len())
            .field("spilled", &self.spilled.len())
            .field("pending", &self.pending_events())
            .finish()
    }
}

impl<'a> Server<'a> {
    /// A server over the shared dataset. Creates the spill directory.
    ///
    /// # Panics
    /// Panics when the spill directory cannot be created.
    pub fn new(dataset: &'a SyntheticVision, config: ServerConfig) -> Server<'a> {
        std::fs::create_dir_all(&config.spill_dir)
            .unwrap_or_else(|e| panic!("cannot create spill dir {:?}: {e}", config.spill_dir));
        Server {
            dataset,
            config,
            specs: HashMap::new(),
            resident: HashMap::new(),
            lru: VecDeque::new(),
            spilled: HashMap::new(),
            queue: VecDeque::new(),
            pending: HashMap::new(),
            evictions: 0,
            rehydrations: 0,
            batches: 0,
            events: 0,
        }
    }

    /// Registers a tenant. Session construction is lazy — the expensive
    /// build (pre-training, buffer rendering) happens on first dispatch.
    ///
    /// # Panics
    /// Panics on a duplicate tenant id.
    pub fn admit(&mut self, spec: TenantSpec) {
        deco_telemetry::counter!("serve.admissions");
        let prev = self.specs.insert(spec.id, spec);
        assert!(prev.is_none(), "duplicate tenant id");
    }

    /// Enqueues `segments` stream-segment events for a tenant. Events
    /// interleave round-robin with every other tenant's.
    ///
    /// # Panics
    /// Panics on an unknown tenant id.
    pub fn submit(&mut self, tenant_id: u64, segments: usize) {
        assert!(self.specs.contains_key(&tenant_id), "unknown tenant");
        if segments == 0 {
            return;
        }
        let slot = self.pending.entry(tenant_id).or_insert(0);
        if *slot == 0 {
            self.queue.push_back(tenant_id);
        }
        *slot += segments;
        self.publish_queue_depth();
    }

    /// Drains every pending event, batching up to
    /// [`ServerConfig::batch_tenants`] distinct tenants per dispatch.
    /// Returns the events in completion order.
    pub fn run(&mut self) -> Vec<EventResult> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            let width = self.config.batch_tenants.min(self.queue.len());
            let ids: Vec<u64> = self.queue.drain(..width).collect();
            out.extend(self.step_batch(&ids));
            for id in ids {
                let remaining = {
                    let slot = self
                        .pending
                        .get_mut(&id)
                        .expect("queued tenant has pending");
                    *slot -= 1;
                    *slot
                };
                let exhausted = self
                    .resident
                    .get(&id)
                    .map(|s| s.segments_remaining() == 0)
                    .unwrap_or(false);
                if remaining > 0 && !exhausted {
                    self.queue.push_back(id);
                } else {
                    self.pending.remove(&id);
                }
            }
            self.publish_queue_depth();
        }
        out
    }

    /// One lockstep batch over `ids`: pull a segment per tenant, run their
    /// condensation iterations with the per-class jobs of *all* tenants
    /// merged into one pool dispatch per iteration round, then finish each
    /// segment. Tenants whose stream is exhausted contribute no event.
    fn step_batch(&mut self, ids: &[u64]) -> Vec<EventResult> {
        let _g = deco_telemetry::span!("serve.step_batch");
        let start = Instant::now();
        let protect: HashSet<u64> = ids.iter().copied().collect();
        for &id in ids {
            self.ensure_resident(id, &protect);
        }
        let mut sessions: Vec<TenantSession> = ids
            .iter()
            .map(|id| self.resident.remove(id).expect("ensured resident"))
            .collect();

        // Phase A: pull + pseudo-label + vote per tenant; start the phased
        // DECO pass where it applies, fall back to the monolithic buffer
        // update where it does not (nothing kept, non-DECO condenser, …).
        struct ActiveTenant {
            idx: usize,
            prepared: PreparedSegment,
            phase: DecoPhase,
            remaining: usize,
        }
        let mut active: Vec<ActiveTenant> = Vec::new();
        let mut to_complete: Vec<(usize, PreparedSegment)> = Vec::new();
        for (idx, session) in sessions.iter_mut().enumerate() {
            let Some(segment) = session.next_segment(self.dataset) else {
                continue;
            };
            let prepared = session.learner().prepare_segment(&segment);
            match session.learner_mut().deco_begin_segment(&prepared) {
                Some(phase) => active.push(ActiveTenant {
                    idx,
                    remaining: phase.iterations,
                    prepared,
                    phase,
                }),
                None => {
                    session.learner_mut().condense_prepared(&prepared);
                    to_complete.push((idx, prepared));
                }
            }
        }

        // Phase B: lockstep condensation rounds. Each round merges one
        // iteration's jobs from every still-active tenant into a single
        // `match_jobs_parallel` dispatch; results scatter back per tenant.
        while active.iter().any(|a| a.remaining > 0) {
            let mut jobs: Vec<BatchMatchJob> = Vec::new();
            let mut slices: Vec<(usize, std::ops::Range<usize>, Vec<Vec<usize>>)> = Vec::new();
            for (ai, a) in active.iter().enumerate() {
                if a.remaining == 0 {
                    continue;
                }
                let built = sessions[a.idx]
                    .learner_mut()
                    .deco_build_iteration(&a.prepared);
                let params = Arc::new(built.params);
                let lo = jobs.len();
                for job in built.jobs {
                    jobs.push(BatchMatchJob {
                        config: built.config,
                        params: Arc::clone(&params),
                        job,
                        epsilon_scale: built.epsilon_scale,
                    });
                }
                slices.push((ai, lo..jobs.len(), built.rows_list));
            }
            deco_telemetry::counter!("serve.batched_jobs", jobs.len() as u64);
            let results = match_jobs_parallel(jobs);
            for (ai, range, rows_list) in slices {
                let a = &mut active[ai];
                sessions[a.idx].learner_mut().deco_apply_iteration(
                    &a.phase,
                    &rows_list,
                    &results[range],
                );
                a.remaining -= 1;
            }
        }

        // Phase C: counters, β-interval model updates, reports.
        for a in active {
            to_complete.push((a.idx, a.prepared));
        }
        to_complete.sort_by_key(|(idx, _)| *idx);
        let mut out = Vec::new();
        for (idx, prepared) in to_complete {
            let session = &mut sessions[idx];
            let report = session.learner_mut().complete_segment(prepared);
            self.events += 1;
            deco_telemetry::counter!("serve.events");
            if deco_telemetry::is_enabled() {
                deco_telemetry::metrics::gauge(&format!(
                    "serve.tenant.{}.peak_memory_bytes",
                    ids[idx]
                ))
                .set(session.learner().memory_tracker().total_peak() as i64);
            }
            out.push(EventResult {
                tenant_id: ids[idx],
                segment_index: session.learner().segments_seen(),
                report,
                batch_seconds: 0.0,
            });
        }
        let elapsed = start.elapsed().as_secs_f64();
        for event in &mut out {
            event.batch_seconds = elapsed;
        }

        for (&id, session) in ids.iter().zip(sessions) {
            self.resident.insert(id, session);
            self.touch(id);
        }
        self.enforce_budget(&HashSet::new());
        self.batches += 1;
        deco_telemetry::counter!("serve.batches");
        // The budget counts session bytes only; the pools' parked bytes
        // sit beside them so one snapshot shows both.
        deco_telemetry::gauge_set!("serve.resident_bytes", gauge_value(self.resident_bytes()));
        deco_telemetry::gauge_set!(
            "tensor.pool.held_bytes",
            gauge_value(deco_tensor::pool::process_held_bytes())
        );
        out
    }

    /// Makes a tenant resident: cache hit, rehydration from spill, or
    /// first-touch construction — then enforces the byte budget with the
    /// current batch protected from eviction.
    fn ensure_resident(&mut self, id: u64, protect: &HashSet<u64>) {
        if self.resident.contains_key(&id) {
            self.touch(id);
            return;
        }
        let spec = self.specs.get(&id).expect("unknown tenant").clone();
        let session = match self.spilled.remove(&id) {
            Some(path) => {
                let state = SessionState::load(&path)
                    .unwrap_or_else(|e| panic!("tenant {id}: spill file unreadable: {e}"));
                self.rehydrations += 1;
                deco_telemetry::counter!("serve.rehydrations");
                TenantSession::from_state(spec, self.dataset, &state)
            }
            None => TenantSession::new(spec, self.dataset),
        };
        self.resident.insert(id, session);
        self.touch(id);
        self.enforce_budget(protect);
    }

    /// Evicts LRU tenants (skipping `protect`) until resident bytes fit
    /// the budget. Best-effort: with every unprotected tenant evicted the
    /// budget may still be exceeded by the working batch itself.
    fn enforce_budget(&mut self, protect: &HashSet<u64>) {
        let Some(budget) = self.config.mem_budget_bytes else {
            return;
        };
        while self.resident_bytes() > budget {
            let victim = self.lru.iter().copied().find(|id| !protect.contains(id));
            let Some(victim) = victim else {
                break;
            };
            self.evict(victim);
        }
    }

    /// Writes a resident session to its spill file and drops it.
    fn evict(&mut self, id: u64) {
        let session = self.resident.remove(&id).expect("evicting non-resident");
        self.lru.retain(|&x| x != id);
        let path = self.spill_path(id);
        session
            .state()
            .save(&path)
            .unwrap_or_else(|e| panic!("tenant {id}: spill write failed: {e}"));
        self.spilled.insert(id, path);
        self.evictions += 1;
        deco_telemetry::counter!("serve.evictions");
    }

    /// Evicts a tenant now (no-op if not resident). Exposed for tests and
    /// the determinism suite.
    pub fn force_evict(&mut self, id: u64) -> bool {
        if self.resident.contains_key(&id) {
            self.evict(id);
            true
        } else {
            false
        }
    }

    /// A tenant's current persisted state (rehydrating it if needed).
    ///
    /// # Panics
    /// Panics on an unknown tenant.
    pub fn state_of(&mut self, id: u64) -> SessionState {
        self.ensure_resident(id, &HashSet::new());
        self.resident[&id].state()
    }

    fn spill_path(&self, id: u64) -> PathBuf {
        self.config.spill_dir.join(format!("tenant-{id}.dsrv"))
    }

    fn touch(&mut self, id: u64) {
        self.lru.retain(|&x| x != id);
        self.lru.push_back(id);
    }

    fn resident_bytes(&self) -> u64 {
        self.resident
            .values()
            .map(TenantSession::resident_bytes)
            .sum()
    }

    fn pending_events(&self) -> usize {
        self.pending.values().sum()
    }

    fn publish_queue_depth(&self) {
        if deco_telemetry::is_enabled() {
            deco_telemetry::metrics::gauge("serve.queue_depth").set(self.pending_events() as i64);
        }
    }

    /// Sessions currently in memory.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Sessions currently evicted to disk.
    pub fn spilled_count(&self) -> usize {
        self.spilled.len()
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Rehydrations performed so far.
    pub fn rehydrations(&self) -> u64 {
        self.rehydrations
    }

    /// Pool batches dispatched so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Segment events completed so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

fn gauge_value(bytes: u64) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_budget_must_be_a_whole_number_of_bytes() {
        assert_eq!(parse_mem_budget(None), Ok(None));
        assert_eq!(parse_mem_budget(Some("4096")), Ok(Some(4096)));
        for bad in ["64MiB", ""] {
            let err = parse_mem_budget(Some(bad)).expect_err(bad);
            assert!(
                err.contains(MEM_BUDGET_ENV) && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }
}
