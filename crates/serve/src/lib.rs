//! # deco-serve
//!
//! A multi-tenant streaming condensation service over the DECO on-device
//! learner: N independent tenant sessions (stream cursor + synthetic
//! buffer + model + RNG stream) ingest interleaved stream events, and a
//! scheduler batches their condensation work onto the `deco-runtime` pool
//! so one dispatch amortizes K tenants' per-class matching jobs.
//!
//! The crate is organized as the three layers a serving host needs:
//!
//! * [`wire`] / [`SessionState`] — a versioned, dependency-free binary
//!   session format that round-trips a tenant **bit for bit** (exact
//!   `f32`/`u64` patterns the in-repo JSON codec cannot preserve), with
//!   typed errors for corrupt or truncated files;
//! * [`TenantSpec`] / [`TenantSession`] — a tenant's deterministic
//!   identity and its live state, rebuildable fresh or from a persisted
//!   session;
//! * [`Server`] — round-robin fairness over pending tenants, an LRU byte
//!   budget (`DECO_SERVE_MEM_BYTES`) that evicts idle sessions to disk,
//!   and cross-tenant batch dispatch of matching jobs.
//!
//! ## Determinism contract
//!
//! A tenant's results are bitwise identical whether it runs solo,
//! interleaved with any number of other tenants, or through any pattern
//! of evict/rehydrate cycles — at any `DECO_THREADS` setting. See
//! [`scheduler`] for why this holds by construction; the repo's
//! `tests/determinism.rs` enforces it end to end.
//!
//! ```no_run
//! use deco_datasets::{core50, SyntheticVision};
//! use deco_serve::{Server, ServerConfig, TenantSpec};
//!
//! let data = SyntheticVision::new(core50());
//! let config = ServerConfig::new(std::env::temp_dir().join("deco-serve"));
//! let mut server = Server::new(&data, config);
//! for id in 0..8u64 {
//!     server.admit(TenantSpec::quick(id, 0x5EED ^ id, data.spec(), 6));
//!     server.submit(id, 6);
//! }
//! let events = server.run();
//! println!("{} events, {} evictions", events.len(), server.evictions());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod scheduler;
pub mod session;
pub mod tenant;
pub mod wire;

pub use deco_scenarios::ScenarioConfig;
pub use scheduler::{EventResult, Server, ServerConfig, MEM_BUDGET_ENV};
pub use session::SessionState;
pub use tenant::{TenantSession, TenantSpec};
pub use wire::{WireError, FORMAT_VERSION};
