//! Full experiment assembly: the paper's testbed in one call.

use crate::sim::{SimConfig, SimNet};
use crate::stats::{Metrics, Stats};
use marlin_core::{Config, ProtocolKind};
use marlin_crypto::{CostModel, KeyStore, QcFormat};
use marlin_telemetry::{SharedSink, TelemetrySink};
use marlin_types::ReplicaId;
use std::sync::Arc;

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Every replica's configuration (`n`, `f`, crypto costs, QC
    /// format, batch size, timers, mempool); replica `i` runs it
    /// re-bound to id `i`.
    pub config: Config,
    /// Transaction payload bytes (150 in the paper; 0 = no-op).
    pub payload_len: usize,
    /// Open-loop offered load, transactions per second.
    pub rate_tps: u64,
    /// Measured duration after warmup, simulated nanoseconds.
    pub duration_ns: u64,
    /// Warmup period excluded from measurement.
    pub warmup_ns: u64,
    /// Network parameters.
    pub net: SimConfig,
    /// Whether committed blocks are persisted to the database.
    pub storage: bool,
    /// Crash schedule `(replica, at_ns)`.
    pub crashes: Vec<(ReplicaId, u64)>,
    /// Closed-loop mode: this many clients each keep exactly one
    /// request outstanding (each commit at the reference replica
    /// releases the next request after the two client legs). When set,
    /// `rate_tps` is ignored. This is the workload shape BFT
    /// evaluations typically sweep to draw throughput/latency curves.
    pub closed_loop_clients: Option<usize>,
}

impl ExperimentConfig {
    /// The paper's Section VI defaults for `protocol` at fault level
    /// `f`: 200 Mbps, 40 ms latency, 150-byte transactions, ECDSA-like
    /// crypto costs, database persistence on.
    pub fn paper(protocol: ProtocolKind, f: usize) -> Self {
        let n = 3 * f + 1;
        ExperimentConfig {
            protocol,
            config: Config {
                keys: Arc::new(KeyStore::generate(n, f, 0x4D41524C)),
                cost: CostModel::ecdsa_like(),
                qc_format: QcFormat::SigGroup,
                batch_size: 16_000,
                base_timeout_ns: 1_000_000_000,
                batch_verify: true,
                crypto_workers: 4,
                ..Config::for_test(n, f)
            },
            payload_len: 150,
            rate_tps: 10_000,
            duration_ns: 10_000_000_000,
            warmup_ns: 2_000_000_000,
            net: SimConfig::paper_testbed(),
            storage: true,
            crashes: Vec::new(),
            closed_loop_clients: None,
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.config.n
    }

    /// Builds the simulation, observed by `sink` (with the durable
    /// block log charged when `storage` is set).
    pub fn build(&self, sink: impl TelemetrySink + 'static) -> SimNet {
        let config = self.config.clone();
        let mut sim = SimNet::new(self.protocol, config, self.net.clone(), sink);
        if self.storage {
            sim.charge_block_log();
        }
        for (replica, at) in &self.crashes {
            sim.schedule_crash(*replica, *at);
        }
        sim
    }
}

/// Picks a live reference replica (the lowest id that never crashes).
fn reference_replica(cfg: &ExperimentConfig) -> ReplicaId {
    for i in 0..cfg.n() as u32 {
        if !cfg.crashes.iter().any(|(r, _)| *r == ReplicaId(i)) {
            return ReplicaId(i);
        }
    }
    ReplicaId(0)
}

/// Runs one experiment: open-loop clients at `rate_tps` submitting to
/// the current leader (re-targeted after view changes), measured after
/// warmup.
pub fn run_experiment(cfg: &ExperimentConfig) -> Metrics {
    run_experiment_with_telemetry(cfg, Box::new(()))
}

/// Like [`run_experiment`], but also feeds every observation into
/// `sink`, stamped with the simulator clock (hand in a
/// [`SharedSink`] to read it afterwards).
pub fn run_experiment_with_telemetry(
    cfg: &ExperimentConfig,
    sink: Box<dyn TelemetrySink>,
) -> Metrics {
    let reference = reference_replica(cfg);
    let stats = SharedSink::new(Stats::new(
        reference,
        cfg.net.one_way_latency_ns,
        cfg.warmup_ns,
    ));
    let mut sim = cfg.build((stats.clone(), sink));

    let total_ns = cfg.warmup_ns + cfg.duration_ns;
    // Client tick: submit the next arrivals to the current leader every
    // 10 ms (open loop: a fixed-rate process; closed loop: one release
    // per completion observed at the reference replica).
    let tick_ns: u64 = 10_000_000;
    let n = cfg.n();
    let mut submitted: u64 = 0;
    let mut completed_seen: u64 = 0;
    let mut t = 0u64;
    while t < total_ns {
        let count = match cfg.closed_loop_clients {
            None => {
                let due = ((t + tick_ns) as u128 * cfg.rate_tps as u128 / 1_000_000_000u128) as u64;
                let c = due.saturating_sub(submitted) as usize;
                submitted = due;
                c
            }
            Some(clients) => {
                if t == 0 {
                    clients // the initial burst: every client submits
                } else {
                    // Completions since the last tick release clients.
                    let done = stats.with(|s| s.total_observed_txs());
                    let released = done.saturating_sub(completed_seen) as usize;
                    completed_seen = done;
                    released
                }
            }
        };
        if count > 0 {
            // Target the leader of the highest view currently reached.
            let mut view = marlin_types::View(1);
            for i in 0..n as u32 {
                view = view.max(sim.replica(ReplicaId(i)).current_view());
            }
            let mut leader = ReplicaId::leader_of(view, n);
            // Skip a crashed leader (clients re-target after timeout).
            while cfg.crashes.iter().any(|(r, at)| *r == leader && *at <= t) {
                view = view.next();
                leader = ReplicaId::leader_of(view, n);
            }
            // Closed-loop releases pay the reply + resubmit client legs.
            let at = t
                + tick_ns
                + if cfg.closed_loop_clients.is_some() {
                    2 * cfg.net.one_way_latency_ns
                } else {
                    0
                };
            sim.schedule_client_batch(leader, at, count, cfg.payload_len);
        }
        t += tick_ns;
        sim.run_until(t);
    }
    // Drain the pipeline.
    sim.run_until(total_ns + 500_000_000);

    drop(sim);
    let stats = stats.into_inner().expect("the simulation is dropped");
    stats.into_metrics(cfg.duration_ns)
}

/// One point of a rate sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Offered load.
    pub rate_tps: u64,
    /// Measured metrics at that load.
    pub metrics: Metrics,
}

/// Sweeps offered load over `rates` and returns the measured points;
/// the peak throughput is the max measured `throughput_tps`.
pub fn sweep_peak_throughput(base: &ExperimentConfig, rates: &[u64]) -> Vec<SweepPoint> {
    rates
        .iter()
        .map(|&rate_tps| {
            let mut cfg = base.clone();
            cfg.rate_tps = rate_tps;
            SweepPoint {
                rate_tps,
                metrics: run_experiment(&cfg),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_core::Note;
    use marlin_telemetry::{Invariants, SharedSink};

    /// Storage is charged by the simulator, not by a `Protocol` wrapper
    /// around each replica — a wrapper that forgot to forward the lock
    /// once showed the checker a lock-free cluster.
    #[test]
    fn storage_on_replicas_show_their_locks_to_the_invariant_checker() {
        let cfg = ExperimentConfig::paper(ProtocolKind::Marlin, 1);
        assert!(cfg.storage);
        let reference = reference_replica(&cfg);
        let checker = SharedSink::new(Invariants::new(&[]));
        let mut sim = cfg.build(checker.clone());
        checker.with(Invariants::mark_quiet);
        sim.schedule_client_batch(ReplicaId(1), 0, 100, cfg.payload_len);
        sim.run_until(2_000_000_000);
        assert!(sim.committed_txs(reference) > 0, "nothing committed");
        let mut notes = sim.notes().filter(|(_, id, _)| *id == reference);
        assert!(notes.any(|(_, _, note)| matches!(note, Note::Locked { .. })));
        assert_eq!(checker.with(Invariants::finish), []);
    }
}
