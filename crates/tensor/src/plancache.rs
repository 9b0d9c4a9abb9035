//! Statistics stub left where the forward-plan cache used to be.
//!
//! The cache (memoized im2col slabs, packed GEMM panels and broadcast
//! index plans) is gone, and so is the column matrix it memoized: the
//! convolutions are implicit GEMMs that read each image from a padded
//! plane (see [`crate::ops::conv`]). This module survives only
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
