//! Integration: the cross-replica commit-latency decomposition measures
//! the paper's phase-count claim from real traces — Marlin's happy path
//! commits after 2 QC phases, HotStuff after 3.

use marlin_bft::core::ProtocolKind;
use marlin_bft::simnet::{run_experiment_with_telemetry, ExperimentConfig};
use marlin_bft::telemetry::{Decomposition, SharedSink, Trace};

fn decompose(protocol: ProtocolKind) -> Decomposition {
    let mut cfg = ExperimentConfig::paper(protocol, 1);
    cfg.rate_tps = 2_000;
    cfg.duration_ns = 2_000_000_000;
    cfg.warmup_ns = 500_000_000;
    let shared = SharedSink::new(Trace::new());
    let metrics = run_experiment_with_telemetry(&cfg, Box::new(shared.clone()));
    assert!(metrics.committed_txs > 0, "{protocol:?} never committed");
    shared.with(|trace| {
        assert!(!trace.is_empty(), "{protocol:?} produced no trace events");
        Decomposition::from_trace(trace)
    })
}

#[test]
fn marlin_commits_in_two_phases() {
    let d = decompose(ProtocolKind::Marlin);
    assert!(d.complete_blocks().count() > 0);
    assert_eq!(d.phase_count(), 2, "Marlin's happy path is two-phase");
    let labels: Vec<String> = d.segments().iter().map(|s| s.label.clone()).collect();
    assert!(
        labels.contains(&"prepareQC".to_string()) && labels.contains(&"commitQC".to_string()),
        "expected prepare and commit QC segments, got {labels:?}"
    );
    // Every complete block's segments sum exactly to its commit latency.
    let seg_sum: u128 = d.segments().iter().map(|s| s.hist.sum_ns()).sum();
    assert_eq!(seg_sum, d.commit_latency().sum_ns());
}

#[test]
fn hotstuff_commits_in_three_phases() {
    let d = decompose(ProtocolKind::HotStuff);
    assert!(d.complete_blocks().count() > 0);
    assert_eq!(d.phase_count(), 3, "HotStuff needs three phases");
}

// In chained mode every round broadcasts one prepare-phase proposal,
// but each certificate doubles as a phase of the in-flight ancestors:
// the leader reports those ancestor phase points (`chained.rs`,
// `note_ancestor_phases`), so the decomposition measures the commit
// rule's true depth rather than 1 QC per height.

#[test]
fn chained_marlin_commits_in_two_phases() {
    let d = decompose(ProtocolKind::ChainedMarlin);
    assert!(d.complete_blocks().count() > 0);
    assert_eq!(d.phase_count(), 2, "the two-chain rule is two-phase");
    let labels: Vec<String> = d.segments().iter().map(|s| s.label.clone()).collect();
    assert!(
        labels.contains(&"prepareQC".to_string()) && labels.contains(&"commitQC".to_string()),
        "expected prepare and commit QC segments, got {labels:?}"
    );
    let seg_sum: u128 = d.segments().iter().map(|s| s.hist.sum_ns()).sum();
    assert_eq!(seg_sum, d.commit_latency().sum_ns());
}

#[test]
fn chained_hotstuff_commits_in_three_phases() {
    let d = decompose(ProtocolKind::ChainedHotStuff);
    assert!(d.complete_blocks().count() > 0);
    assert_eq!(d.phase_count(), 3, "the three-chain rule is three-phase");
    let labels: Vec<String> = d.segments().iter().map(|s| s.label.clone()).collect();
    assert!(
        labels.contains(&"pre-commitQC".to_string()),
        "expected the intermediate pre-commit QC segment, got {labels:?}"
    );
}
