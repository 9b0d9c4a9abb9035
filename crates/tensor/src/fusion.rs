//! Telemetry for the bitwise-preserving operator fusion layer.
//!
//! The per-block hot path of the ConvNet (`conv → bias → group-norm →
//! relu → avg-pool` and the final `log-softmax → nll`) runs through the
//! fused kernels in [`crate::ops::fused`] plus the GEMM bias epilogue in
//! `ops/gemm.rs`. The fused kernels replicate the exact per-element f32
//! operation and accumulation order of the op chains they replace, so
//! they are **bitwise identical** to those chains; `deco-conformance`
//! keeps the chains as reference implementations and holds the fused ops to
//! them bit for bit.
//!
//! Always-on statistics are mirrored to the `tensor.fusion.*`
//! telemetry series.

use std::cell::RefCell;

/// Always-on fusion statistics for the current thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FusionStats {
    /// Convolutions whose bias add ran as a GEMM writeback epilogue.
    pub conv_bias_epilogue: u64,
    /// Fused `group_norm_relu` forward launches.
    pub group_norm_relu: u64,
    /// Fused `relu_avg_pool2d` forward launches.
    pub relu_avg_pool2d: u64,
    /// Fused `log_softmax_cross_entropy` forward launches.
    pub log_softmax_ce: u64,
    /// Fused backward-chain launches (all fused ops combined).
    pub fused_backward: u64,
}

impl FusionStats {
    /// Total fused forward launches across all op kinds.
    pub fn fused_forward(&self) -> u64 {
        self.conv_bias_epilogue + self.group_norm_relu + self.relu_avg_pool2d + self.log_softmax_ce
    }
}

thread_local! {
    static STATS: RefCell<FusionStats> = RefCell::new(FusionStats::default());
}

/// Snapshot of this thread's fusion statistics.
pub fn stats() -> FusionStats {
    STATS.try_with(|s| *s.borrow()).unwrap_or_default()
}

/// Zeroes this thread's fusion counters.
pub fn reset_stats() {
    let _ = STATS.try_with(|s| *s.borrow_mut() = FusionStats::default());
}

pub(crate) fn count_conv_bias_epilogue() {
    let _ = STATS.try_with(|s| s.borrow_mut().conv_bias_epilogue += 1);
    deco_telemetry::counter!("tensor.fusion.conv_bias_epilogue");
}

pub(crate) fn count_group_norm_relu() {
    let _ = STATS.try_with(|s| s.borrow_mut().group_norm_relu += 1);
    deco_telemetry::counter!("tensor.fusion.group_norm_relu");
}

pub(crate) fn count_relu_avg_pool2d() {
    let _ = STATS.try_with(|s| s.borrow_mut().relu_avg_pool2d += 1);
    deco_telemetry::counter!("tensor.fusion.relu_avg_pool2d");
}

pub(crate) fn count_log_softmax_ce() {
    let _ = STATS.try_with(|s| s.borrow_mut().log_softmax_ce += 1);
    deco_telemetry::counter!("tensor.fusion.log_softmax_ce");
}

pub(crate) fn count_fused_backward() {
    let _ = STATS.try_with(|s| s.borrow_mut().fused_backward += 1);
    deco_telemetry::counter!("tensor.fusion.backward");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_and_reset() {
        reset_stats();
        count_group_norm_relu();
        count_relu_avg_pool2d();
        count_log_softmax_ce();
        count_conv_bias_epilogue();
        count_fused_backward();
        let s = stats();
        assert_eq!(s.group_norm_relu, 1);
        assert_eq!(s.relu_avg_pool2d, 1);
        assert_eq!(s.log_softmax_ce, 1);
        assert_eq!(s.conv_bias_epilogue, 1);
        assert_eq!(s.fused_backward, 1);
        assert_eq!(s.fused_forward(), 4);
        reset_stats();
        assert_eq!(stats(), FusionStats::default());
    }
}
