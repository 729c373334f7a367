//! Benchmark harness for the `marlin-bft` reproduction: the logic that
//! regenerates every table and figure of the paper's evaluation
//! (Section VI), run by the `eval` binary.
//!
//! | paper artifact | function |
//! |----------------|----------|
//! | Table I (view-change complexity) | [`vc::measure_view_change`] |
//! | Fig. 10a–f (throughput vs latency) | [`figures::throughput_vs_latency`] |
//! | Fig. 10g (peak throughput) | [`figures::peak_throughput`] |
//! | Fig. 10h (no-op peak throughput) | [`figures::peak_throughput_noop`] |
//! | Fig. 10i (view-change latency) | [`vc::measure_view_change`] |
//! | Fig. 10j (rotating leaders under failures) | [`figures::rotating_under_failures`] |
//! | ablation A1 (shadow blocks) | [`figures::ablate_shadow_blocks`] |
//! | ablation A2 (QC wire format) | [`figures::ablate_qc_format`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod vc;

/// How thorough a run should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// Short simulated durations and few sweep points — for CI and the
    /// golden `eval` output.
    Quick,
    /// Paper-scale durations and sweeps (minutes of wall clock).
    Full,
}

impl Effort {
    /// Measured duration per experiment, simulated nanoseconds.
    pub fn duration_ns(self) -> u64 {
        match self {
            Effort::Quick => 3_000_000_000,
            Effort::Full => 10_000_000_000,
        }
    }

    /// Warmup before measurement.
    pub fn warmup_ns(self) -> u64 {
        match self {
            Effort::Quick => 1_000_000_000,
            Effort::Full => 3_000_000_000,
        }
    }
}
