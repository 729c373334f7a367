//! Full experiment assembly: the paper's testbed in one call.

use crate::sim::{CommitObserver, SimConfig, SimNet};
use crate::stats::{Metrics, Stats};
use crate::MsgClass;
use marlin_core::{Config, ProtocolKind};
use marlin_crypto::{CostModel, KeyStore, QcFormat};
use marlin_telemetry::TelemetrySink;
use marlin_types::ReplicaId;
use std::sync::{Arc, Mutex};

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Fault tolerance; `n = 3f + 1`.
    pub f: usize,
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
    /// Crypto cost model.
    pub cost: CostModel,
    /// QC wire format.
    pub qc_format: QcFormat,
    /// Max transactions per block.
    pub batch_size: usize,
    /// Whether committed blocks are persisted to the database.
    pub storage: bool,
    /// Rotating-leader interval (the paper's failure experiment).
    pub rotation_interval_ns: Option<u64>,
    /// Crash schedule `(replica, at_ns)`.
    pub crashes: Vec<(ReplicaId, u64)>,
    /// View timeout.
    pub base_timeout_ns: u64,
    /// Closed-loop mode: this many clients each keep exactly one
    /// request outstanding (each commit at the reference replica
    /// releases the next request after the two client legs). When set,
    /// `rate_tps` is ignored. This is the workload shape BFT
    /// evaluations typically sweep to draw throughput/latency curves.
    pub closed_loop_clients: Option<usize>,
    /// Stage vote shares and verify them in one amortized batch pass
    /// at quorum time instead of per-arrival.
    pub batch_verify: bool,
    /// Size of each replica's simulated crypto worker pool; `1` means
    /// inline synchronous verification (the legacy CPU model).
    pub crypto_workers: usize,
    /// Per-replica mempool capacity; `0` = legacy unbounded queue.
    pub mempool_capacity: usize,
    /// Decoupled digest dissemination (batches pushed ahead of
    /// proposals; proposals carry digests). Marlin only; off = legacy.
    pub dissemination: bool,
}

impl ExperimentConfig {
    /// The paper's Section VI defaults for `protocol` at fault level
    /// `f`: 200 Mbps, 40 ms latency, 150-byte transactions, ECDSA-like
    /// crypto costs, database persistence on.
    pub fn paper(protocol: ProtocolKind, f: usize) -> Self {
        ExperimentConfig {
            protocol,
            f,
            payload_len: 150,
            rate_tps: 10_000,
            duration_ns: 10_000_000_000,
            warmup_ns: 2_000_000_000,
            net: SimConfig::paper_testbed(),
            cost: CostModel::ecdsa_like(),
            qc_format: QcFormat::SigGroup,
            batch_size: 16_000,
            storage: true,
            rotation_interval_ns: None,
            crashes: Vec::new(),
            base_timeout_ns: 1_000_000_000,
            closed_loop_clients: None,
            batch_verify: true,
            crypto_workers: 4,
            mempool_capacity: 0,
            dissemination: false,
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        3 * self.f + 1
    }

    /// Builds the per-replica protocol configuration.
    pub fn replica_config(&self) -> Config {
        let n = self.n();
        Config {
            id: ReplicaId(0),
            n,
            f: self.f,
            keys: Arc::new(KeyStore::generate(n, self.f, 0x4D41524C)),
            cost: self.cost,
            qc_format: self.qc_format,
            batch_size: self.batch_size,
            base_timeout_ns: self.base_timeout_ns,
            rotation_interval_ns: self.rotation_interval_ns,
            batch_verify: self.batch_verify,
            crypto_workers: self.crypto_workers,
            sync_snapshot_interval: 0,
            sync_lag_threshold: 64,
            mempool_capacity: self.mempool_capacity,
            priority_fee_threshold: 0,
            dissemination: self.dissemination,
        }
    }

    /// Builds the simulation (with the durable block log charged when
    /// `storage` is set).
    pub fn build(&self) -> SimNet {
        let mut sim = SimNet::new(self.protocol, self.replica_config(), self.net.clone());
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
    run_inner(cfg, None).0
}

/// Like [`run_experiment`], but feeds every protocol note and message
/// transmission into `sink` (stamped with the simulator clock); the
/// sink is handed back alongside the metrics.
pub fn run_experiment_with_telemetry(
    cfg: &ExperimentConfig,
    sink: Box<dyn TelemetrySink>,
) -> (Metrics, Box<dyn TelemetrySink>) {
    let (metrics, sink) = run_inner(cfg, Some(sink));
    (
        metrics,
        sink.expect("simulation returns the installed sink"),
    )
}

fn run_inner(
    cfg: &ExperimentConfig,
    telemetry: Option<Box<dyn TelemetrySink>>,
) -> (Metrics, Option<Box<dyn TelemetrySink>>) {
    let mut sim = cfg.build();
    if let Some(sink) = telemetry {
        sim.set_telemetry(sink);
    }
    let reference = reference_replica(cfg);
    let stats = Arc::new(Mutex::new(Stats::new(
        reference,
        cfg.net.one_way_latency_ns,
        cfg.warmup_ns,
    )));
    sim.set_observer(Box::new(SharedStats(Arc::clone(&stats))));

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
                    let done = stats.lock().expect("single-threaded").total_observed_txs();
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

    let notes = sim.notes().to_vec();
    let proposal_wire_bytes = sim
        .accounting()
        .class(MsgClass::Proposal(marlin_types::Phase::Prepare))
        .bytes;
    let payload_wire_bytes = sim.accounting().class(MsgClass::Payload).bytes;
    drop(sim.take_observer());
    let sink = sim.take_telemetry();
    let stats = Arc::try_unwrap(stats)
        .unwrap_or_else(|_| panic!("simulation retained its observer handle"))
        .into_inner()
        .expect("single-threaded");
    let mut metrics = stats.into_metrics(cfg.duration_ns, &notes);
    metrics.proposal_wire_bytes = proposal_wire_bytes;
    metrics.payload_wire_bytes = payload_wire_bytes;
    (metrics, sink)
}

/// Shares a [`Stats`] collector between the simulation (as observer)
/// and the experiment driver (to extract the results).
struct SharedStats(Arc<Mutex<Stats>>);

impl CommitObserver for SharedStats {
    fn on_commit(&mut self, replica: ReplicaId, now_ns: u64, blocks: &[marlin_types::Block]) {
        self.0
            .lock()
            .expect("single-threaded")
            .on_commit(replica, now_ns, blocks);
    }
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
    use crate::Invariants;

    /// Storage is charged by the simulator, not by a `Protocol` wrapper
    /// around each replica — a wrapper that forgot to forward
    /// `locked_qc` once showed every checker a lock-free cluster.
    #[test]
    fn storage_on_replicas_show_their_locks_to_the_invariant_checker() {
        let cfg = ExperimentConfig::paper(ProtocolKind::Marlin, 1);
        assert!(cfg.storage);
        let reference = reference_replica(&cfg);
        let mut sim = cfg.build();
        let checker = Invariants::new(&[], 0);
        sim.set_invariant_checker(Box::new(checker.clone()));
        sim.schedule_client_batch(ReplicaId(1), 0, 100, cfg.payload_len);
        sim.run_until(2_000_000_000);
        assert!(sim.committed_txs(reference) > 0, "nothing committed");
        assert!(sim.replica(reference).locked_qc().is_some());
        assert_eq!(checker.finish(), []);
    }
}
