//! Statistics stub left where the forward-plan cache used to be.
//!
//! The cache (memoized im2col slabs, packed GEMM panels and broadcast
//! index plans) is gone: its one paying reuse — a convolution's im2col
//! slab feeding that convolution's weight gradient — now lives on the
//! autograd tape (see [`crate::Var::conv2d`]). This module survives only
//! because the repository benchmark's probe still reads
//! `plancache::stats().held_bytes`; it reports zero and can be deleted
//! together with that read.

/// Bytes held by the removed plan cache: always zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Bytes currently held by cached entries (always 0).
    pub held_bytes: u64,
}

/// Zeroed statistics; nothing is cached any more.
pub fn stats() -> PlanCacheStats {
    PlanCacheStats::default()
}
