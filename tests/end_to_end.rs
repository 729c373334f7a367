//! End-to-end integration: the full stack (protocols + simulated
//! network + storage + workload + stats) assembled exactly as the
//! benchmark harness uses it.

use marlin_bft::core::ProtocolKind;
use marlin_bft::simnet::{
    run_experiment, run_experiment_with_telemetry, ExperimentConfig, Metrics,
};
use marlin_bft::telemetry::{SharedSink, ViewChanges, Window};
use marlin_bft::types::ReplicaId;

fn short(protocol: ProtocolKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(protocol, 1);
    cfg.rate_tps = 10_000;
    cfg.duration_ns = 2_000_000_000;
    cfg.warmup_ns = 1_000_000_000;
    cfg
}

/// Runs `cfg` with the view-change meter attached.
fn metered(cfg: &ExperimentConfig) -> (Metrics, Vec<Window>) {
    let meter = SharedSink::new(ViewChanges::new());
    let metrics = run_experiment_with_telemetry(cfg, Box::new(meter.clone()));
    (metrics, meter.with(|meter| meter.windows().to_vec()))
}

#[test]
fn every_protocol_commits_on_the_paper_testbed() {
    for protocol in [
        ProtocolKind::Marlin,
        ProtocolKind::HotStuff,
        ProtocolKind::Jolteon,
        ProtocolKind::ChainedMarlin,
        ProtocolKind::ChainedHotStuff,
    ] {
        let (m, view_changes) = metered(&short(protocol));
        assert!(
            m.committed_txs > 5_000,
            "{protocol:?} committed only {} txs",
            m.committed_txs
        );
        assert!(
            m.latency.mean_ms > 80.0,
            "{protocol:?} latency below physics"
        );
        assert_eq!(view_changes, [], "{protocol:?} should be failure-free");
    }
}

#[test]
fn experiments_are_deterministic() {
    let a = run_experiment(&short(ProtocolKind::Marlin));
    let b = run_experiment(&short(ProtocolKind::Marlin));
    assert_eq!(a.committed_txs, b.committed_txs);
    assert_eq!(a.committed_blocks, b.committed_blocks);
    assert_eq!(a.latency.mean_ms, b.latency.mean_ms);
}

#[test]
fn marlin_latency_beats_hotstuff_under_light_load() {
    let marlin = run_experiment(&short(ProtocolKind::Marlin));
    let hotstuff = run_experiment(&short(ProtocolKind::HotStuff));
    // Two phases against three: Marlin's failure-free latency must be
    // clearly lower at the same light load.
    assert!(
        marlin.latency.mean_ms < hotstuff.latency.mean_ms,
        "marlin {:.1}ms vs hotstuff {:.1}ms",
        marlin.latency.mean_ms,
        hotstuff.latency.mean_ms
    );
}

#[test]
fn leader_crash_mid_run_is_survived() {
    let mut cfg = short(ProtocolKind::Marlin);
    cfg.config.base_timeout_ns = 600_000_000;
    cfg.crashes = vec![(ReplicaId(1), 1_200_000_000)];
    cfg.duration_ns = 4_000_000_000;
    let (m, view_changes) = metered(&cfg);
    assert!(m.committed_txs > 0, "no post-crash commits");
    assert!(
        view_changes.iter().any(|w| w.at_first_commit.is_some()),
        "a view change should have happened and committed: {view_changes:?}"
    );
}

#[test]
fn no_op_requests_outperform_payload_requests() {
    let with_payload = run_experiment(&short(ProtocolKind::Marlin));
    let mut cfg = short(ProtocolKind::Marlin);
    cfg.payload_len = 0;
    cfg.rate_tps = 20_000;
    let noop = run_experiment(&cfg);
    // The paper's Fig. 10h observation: no-op requests commit at a
    // higher rate than 150-byte requests at the same saturation level.
    assert!(noop.committed_txs > with_payload.committed_txs);
}

#[test]
fn storage_persistence_costs_throughput() {
    let mut heavy = short(ProtocolKind::Marlin);
    heavy.rate_tps = 60_000; // saturating
    let mut light = heavy.clone();
    light.storage = false;
    let with_db = run_experiment(&heavy);
    let without_db = run_experiment(&light);
    // The paper notes its numbers are lower than prior work because it
    // writes to the database; disabling persistence must not hurt.
    assert!(
        without_db.committed_txs >= with_db.committed_txs,
        "db-less run slower: {} vs {}",
        without_db.committed_txs,
        with_db.committed_txs
    );
}

#[test]
fn closed_loop_clients_trace_the_latency_curve() {
    // With K closed-loop clients, throughput ≈ K / end-to-end latency
    // until saturation — the workload shape behind the paper's curves.
    let run = |clients: usize| {
        let mut cfg = short(ProtocolKind::Marlin);
        cfg.closed_loop_clients = Some(clients);
        cfg.duration_ns = 4_000_000_000;
        run_experiment(&cfg)
    };
    let small = run(200);
    let large = run(4_000);
    assert!(small.committed_txs > 0 && large.committed_txs > 0);
    // More clients → more throughput (below saturation)…
    assert!(
        large.throughput_tps > small.throughput_tps * 2.0,
        "closed loop did not scale: {} vs {}",
        small.throughput_tps,
        large.throughput_tps
    );
    // …and Little's law roughly holds for the small population.
    let predicted = small.committed_txs as f64 / (small.duration_ns as f64 / 1e9)
        * (small.latency.mean_ms / 1e3);
    assert!(
        (predicted - 200.0).abs() < 120.0,
        "Little's law badly violated: inferred {predicted:.0} clients"
    );
}

#[test]
fn closed_loop_latency_lower_for_marlin() {
    let run = |protocol| {
        let mut cfg = short(protocol);
        cfg.closed_loop_clients = Some(500);
        cfg.duration_ns = 4_000_000_000;
        run_experiment(&cfg)
    };
    let marlin = run(ProtocolKind::Marlin);
    let hotstuff = run(ProtocolKind::HotStuff);
    assert!(marlin.latency.mean_ms < hotstuff.latency.mean_ms);
    assert!(marlin.throughput_tps > hotstuff.throughput_tps);
}
