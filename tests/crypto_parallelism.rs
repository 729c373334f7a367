//! Acceptance: batch verification plus the multi-lane CPU model make
//! verification (nearly) free. Under ECDSA-like crypto costs, turning
//! on vote batching and a crypto worker pool must visibly shrink the
//! crypto share of commit latency without costing throughput — and the
//! crypto caches that make repeat verification cheap must stay bounded
//! on long runs.

use marlin_bft::core::{Config, ProtocolKind};
use marlin_bft::crypto::CostModel;
use marlin_bft::simnet::{
    run_experiment, run_experiment_with_telemetry, ExperimentConfig, SimConfig, SimNet,
};
use marlin_bft::telemetry::{
    Decomposition, Registry, RegistryRecorder, SharedSink, SnapshotValue, Trace,
};
use marlin_bft::types::ReplicaId;

/// A short ECDSA-priced Marlin run; `fast` toggles the whole
/// verification stack (batch verification + 4 crypto workers) against
/// the serial baseline (per-share verification, 1 inline worker).
fn experiment(fast: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Marlin, 1);
    cfg.config.cost = CostModel::ecdsa_like();
    cfg.rate_tps = 4_000;
    cfg.duration_ns = 2_000_000_000;
    cfg.warmup_ns = 500_000_000;
    cfg.config.batch_verify = fast;
    cfg.config.crypto_workers = if fast { 4 } else { 1 };
    cfg
}

fn run_with_trace(cfg: &ExperimentConfig) -> (u64, f64, Decomposition) {
    let shared = SharedSink::new(Trace::new());
    let metrics = run_experiment_with_telemetry(cfg, Box::new(shared.clone()));
    assert!(metrics.committed_txs > 0, "run never committed");
    let d = shared.with(|trace| Decomposition::from_trace(trace));
    (metrics.committed_txs, metrics.latency.mean_ms, d)
}

fn total_crypto_ns(d: &Decomposition) -> u64 {
    d.lane_breakdown().iter().map(|l| l.crypto_ns).sum()
}

#[test]
fn batching_and_lanes_shrink_the_crypto_segment() {
    let (serial_txs, serial_latency, serial) = run_with_trace(&experiment(false));
    let (fast_txs, fast_latency, fast) = run_with_trace(&experiment(true));

    let serial_crypto = total_crypto_ns(&serial);
    let fast_crypto = total_crypto_ns(&fast);
    assert!(
        serial_crypto > 0,
        "ECDSA-priced serial run charged no crypto at all"
    );
    assert!(
        fast_crypto < serial_crypto,
        "batch + worker pool should shrink the crypto segment: \
         serial {serial_crypto} ns vs fast {fast_crypto} ns"
    );
    // Measurably smaller, not a rounding error: at n = 4 the batch
    // pass amortizes each 3-share check from 3 verifies to one
    // base-plus-3-multiplies pass (~1.7x on the verify-dominated
    // part); with signing costs diluting it, the whole crypto bill
    // drops by over a quarter. The simulation is deterministic, so
    // this ratio is exact and stable.
    assert!(
        fast_crypto * 4 < serial_crypto * 3,
        "expected >25% crypto reduction, got serial {serial_crypto} ns vs fast {fast_crypto} ns"
    );

    // The speedup must not cost progress: at least as many commits, no
    // worse mean latency (small tolerance for timing jitter).
    assert!(
        fast_txs >= serial_txs,
        "batch + lanes lost throughput: {fast_txs} < {serial_txs} txs"
    );
    assert!(
        fast_latency <= serial_latency * 1.01,
        "batch + lanes raised mean latency: {fast_latency} ms vs {serial_latency} ms"
    );
}

#[test]
fn lane_breakdown_accounts_journal_and_wire_separately() {
    let (_, _, fast) = run_with_trace(&experiment(true));
    let lanes = fast.lane_breakdown();
    assert!(!lanes.is_empty(), "no complete blocks decomposed");
    // Storage is on: persisted commits must show up as journal time in
    // some segment, and propagation as wire time.
    let journal: u64 = lanes.iter().map(|l| l.journal_ns).sum();
    let wire: u64 = lanes.iter().map(|l| l.wire_ns).sum();
    assert!(journal > 0, "persistent run charged no journal lane time");
    assert!(wire > 0, "no wire time — every segment fully CPU-bound?");
}

/// Satellite regression: long chained runs must keep the verified-QC
/// cache bounded. The simulator's maintenance tick trims each live
/// replica's cache every 8192 events and reports its size through the
/// telemetry registry — the reported size must never exceed the trim
/// bound, and the seed-memo counters must show the cache actually
/// working.
#[test]
fn verified_qc_cache_stays_bounded_on_long_chained_runs() {
    let mut cfg = Config::for_test(4, 1);
    cfg.batch_verify = true;
    let registry = Registry::new();
    let recorder = RegistryRecorder::new(&registry);
    let mut sim = SimNet::new(ProtocolKind::ChainedMarlin, cfg, SimConfig::lan(), recorder);
    // Enough load that the run crosses several maintenance ticks.
    for round in 0u64..200 {
        sim.schedule_client_batch(ReplicaId(1), round * 50_000_000, 20, 32);
    }
    sim.run_until(12_000_000_000);
    assert!(
        sim.events_processed() > 8192,
        "run too short to exercise cache maintenance ({} events)",
        sim.events_processed()
    );

    let snapshot = registry.snapshot();
    let cache_sizes: Vec<u64> = snapshot
        .entries
        .iter()
        .filter(|e| e.name == "crypto_verified_qc_cache_entries")
        .filter_map(|e| match e.value {
            SnapshotValue::Gauge(v) => Some(v.max(0) as u64),
            _ => None,
        })
        .collect();
    assert!(
        !cache_sizes.is_empty(),
        "maintenance never reported cache health to the registry"
    );
    for size in &cache_sizes {
        assert!(
            *size <= 4096,
            "verified-QC cache exceeded the trim bound: {size} entries"
        );
    }
    let hits: u64 = snapshot
        .entries
        .iter()
        .filter(|e| e.name == "crypto_seed_memo_hits_total")
        .map(|e| match e.value {
            SnapshotValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    assert!(hits > 0, "seed memo never hit on a steady chained run");
}

/// The worker pool must be behavior-preserving: with identical inputs,
/// a 4-worker cluster reaches at least the serial cluster's commit
/// count — overlap can only move outputs earlier, never later.
#[test]
fn worker_pool_never_delays_commits() {
    let commits = |workers: usize| {
        let mut cfg = experiment(true);
        cfg.config.crypto_workers = workers;
        run_experiment(&cfg).committed_txs
    };
    assert!(commits(4) >= commits(1));
}
