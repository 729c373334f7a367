//! Latency and throughput measurement, and fault-campaign reporting.

use crate::scenario::ScenarioOutcome;
// The histogram lives in `marlin-telemetry` so every latency-like
// series in the workspace shares one bucket layout.
use marlin_telemetry::{Histogram, LatencySummary, Telemetry, TelemetrySink};
use marlin_types::{Block, MsgClass, Phase, ReplicaId, Transaction};
use std::collections::HashSet;

/// Telemetry sink measuring throughput and end-to-end latency at a
/// reference replica, and the cluster's proposal and payload wire
/// bytes.
///
/// Latency per transaction is `commit_time − submit_time + 2 ×
/// client_leg_ns` (the client→leader and replica→client hops the paper's
/// end-to-end numbers include). Two real-clock corrections:
///
/// - Transactions submitted locally at a replica
///   ([`Transaction::LOCAL_CLIENT`]) never crossed a client
///   link, so no client legs are added for them.
/// - Under per-thread wall clocks the commit timestamp can read
///   *earlier* than the submit timestamp (clock skew). Such samples are
///   clamped to the client legs alone — but counted and surfaced in
///   [`Metrics::skew_clamped`] rather than silently swallowed, so a
///   wall-clock run reports how trustworthy its latency tail is.
#[derive(Debug)]
pub struct Stats {
    reference: ReplicaId,
    client_leg_ns: u64,
    warmup_until_ns: u64,
    histogram: Histogram,
    total_observed_txs: u64,
    /// Transaction ids already counted: a transaction committed twice
    /// (a client resubmission landing in two leaders' batches) is
    /// *goodput* only once — the second commit is recorded under
    /// [`Metrics::duplicate_txs`] and excluded from throughput.
    seen_ids: HashSet<u64>,
    /// The counters of the [`Metrics`] this collector finalizes into.
    counts: Metrics,
}

impl Stats {
    /// Creates a collector observing `reference`; samples before
    /// `warmup_until_ns` are discarded.
    pub fn new(reference: ReplicaId, client_leg_ns: u64, warmup_until_ns: u64) -> Self {
        Stats {
            reference,
            client_leg_ns,
            warmup_until_ns,
            histogram: Histogram::new(),
            total_observed_txs: 0,
            seen_ids: HashSet::new(),
            counts: Metrics::default(),
        }
    }

    /// All transactions observed committing at the reference replica,
    /// including during warmup (drives the closed-loop client release).
    pub fn total_observed_txs(&self) -> u64 {
        self.total_observed_txs
    }

    /// Finalizes into metrics for a run that observed `duration_ns` of
    /// post-warmup time.
    pub fn into_metrics(self, duration_ns: u64) -> Metrics {
        let committed_txs = self.counts.committed_txs as f64;
        Metrics {
            duration_ns,
            throughput_tps: if duration_ns == 0 {
                0.0
            } else {
                committed_txs * 1e9 / duration_ns as f64
            },
            latency: self.histogram.summary(),
            ..self.counts
        }
    }

    fn on_commit(&mut self, now_ns: u64, blocks: &[Block]) {
        let counts = &mut self.counts;
        for block in blocks {
            counts.committed_blocks += 1;
            for tx in block.payload().iter() {
                if !self.seen_ids.insert(tx.id) {
                    counts.duplicate_txs += 1;
                    continue;
                }
                self.total_observed_txs += 1;
                if tx.submitted_at_ns < self.warmup_until_ns {
                    continue;
                }
                counts.committed_txs += 1;
                let legs = if tx.client == Transaction::LOCAL_CLIENT {
                    0
                } else {
                    2 * self.client_leg_ns
                };
                if now_ns < tx.submitted_at_ns {
                    // Clock skew: commit stamped before submit. Record
                    // the clamp instead of pretending the sample was a
                    // clean zero.
                    counts.skew_clamped += 1;
                    self.histogram.record(legs);
                } else {
                    self.histogram.record(now_ns - tx.submitted_at_ns + legs);
                }
            }
        }
    }
}

impl TelemetrySink for Stats {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        let counts = &mut self.counts;
        match event {
            Telemetry::Committed(blocks) if replica == self.reference => {
                self.on_commit(at_ns, blocks)
            }
            Telemetry::Sent { class, bytes, .. } => match class {
                MsgClass::Proposal(Phase::Prepare) => counts.proposal_wire_bytes += bytes,
                MsgClass::Payload => counts.payload_wire_bytes += bytes,
                _ => {}
            },
            _ => {}
        }
    }
}

/// The result of one experiment run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Metrics {
    /// Post-warmup measured duration.
    pub duration_ns: u64,
    /// Transactions committed at the reference replica after warmup.
    pub committed_txs: u64,
    /// Blocks committed at the reference replica (incl. warmup).
    pub committed_blocks: u64,
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// End-to-end latency summary.
    pub latency: LatencySummary,
    /// Latency samples whose commit timestamp read earlier than their
    /// submit timestamp (wall-clock skew) and were clamped. Nonzero
    /// values mean the latency floor is not trustworthy at that
    /// resolution.
    pub skew_clamped: u64,
    /// Re-committed transactions excluded from the throughput numbers
    /// (goodput counts each transaction id once).
    pub duplicate_txs: u64,
    /// Prepare-proposal bytes every replica put on the wire across the
    /// run, start-up proposal included — the leader egress that digest
    /// dissemination shrinks from O(batch) to O(digest) per block.
    pub proposal_wire_bytes: u64,
    /// Payload-plane bytes (pushes, acks, digest fetches) every replica
    /// put on the wire across the run.
    pub payload_wire_bytes: u64,
}

impl Metrics {
    /// Throughput in kilo-transactions per second (the paper's unit).
    pub fn ktps(&self) -> f64 {
        self.throughput_tps / 1_000.0
    }

    /// Prepare-proposal wire bytes per committed transaction — O(batch)
    /// when proposals carry payloads, O(digest) under dissemination.
    pub fn proposal_bytes_per_tx(&self) -> f64 {
        if self.committed_txs == 0 {
            return 0.0;
        }
        self.proposal_wire_bytes as f64 / self.committed_txs as f64
    }
}

/// Aggregates fault-injection campaign verdicts (one
/// [`ScenarioOutcome`] per `(protocol, scenario, seed)` cell) into a
/// printable per-scenario table.
#[derive(Default)]
pub struct CampaignReport {
    rows: Vec<ScenarioOutcome>,
}

impl CampaignReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one campaign cell.
    pub fn push(&mut self, outcome: ScenarioOutcome) {
        self.rows.push(outcome);
    }

    /// All recorded cells, in insertion order.
    pub fn rows(&self) -> &[ScenarioOutcome] {
        &self.rows
    }

    /// Total safety violations across the campaign.
    pub fn total_safety_violations(&self) -> usize {
        self.rows
            .iter()
            .map(ScenarioOutcome::safety_violations)
            .sum()
    }

    /// Total cells that ended in a post-quiet liveness stall.
    pub fn total_stalls(&self) -> usize {
        self.rows.iter().filter(|r| r.has_liveness_stall()).count()
    }

    /// Renders the verdict table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:<24} {:>4}  {:<7} {:>9} {:>8} {:>5} {:>16}\n",
            "protocol",
            "scenario",
            "seed",
            "verdict",
            "committed",
            "max-view",
            "viols",
            "fingerprint"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<18} {:<24} {:>4}  {:<7} {:>9} {:>8} {:>5} {:>16x}\n",
                r.protocol,
                r.scenario,
                r.seed,
                r.verdict(),
                r.committed,
                r.max_view,
                r.violations.len(),
                r.fingerprint,
            ));
        }
        out.push_str(&format!(
            "campaign: {} cells, {} safety violations, {} stalls\n",
            self.rows.len(),
            self.total_safety_violations(),
            self.total_stalls(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use marlin_types::{Batch, Block, Justify, Qc, Transaction, View};

    fn block_with_txs(times: &[u64]) -> Block {
        let g = Block::genesis();
        let txs: Vec<Transaction> = times
            .iter()
            .enumerate()
            .map(|(i, t)| Transaction::new(i as u64, 0, Bytes::new(), *t))
            .collect();
        Block::new_normal(
            g.id(),
            g.view(),
            View(1),
            g.height().next(),
            Batch::new(txs),
            Justify::One(Qc::genesis(g.id())),
        )
    }

    fn commit(stats: &mut Stats, replica: u32, at_ns: u64, block: &Block) {
        let committed = Telemetry::Committed(std::slice::from_ref(block));
        stats.record(at_ns, ReplicaId(replica), committed);
    }

    #[test]
    fn stats_measure_reference_replica_only() {
        let mut stats = Stats::new(ReplicaId(0), 40_000_000, 0);
        let block = block_with_txs(&[100, 200]);
        commit(&mut stats, 1, 1_000_000, &block);
        assert_eq!(stats.counts.committed_txs, 0);
        commit(&mut stats, 0, 1_000_000, &block);
        assert_eq!(stats.counts.committed_txs, 2);
        let m = stats.into_metrics(1_000_000_000);
        assert_eq!(m.committed_txs, 2);
        assert!((m.throughput_tps - 2.0).abs() < 1e-9);
        // Latency includes the two 40ms client legs.
        assert!(m.latency.mean_ms >= 80.0);
        assert!(m.latency.p99_ms >= m.latency.p50_ms);
    }

    #[test]
    fn warmup_discards_early_transactions() {
        let mut stats = Stats::new(ReplicaId(0), 0, 1_000);
        let block = block_with_txs(&[500, 1_500]);
        commit(&mut stats, 0, 2_000, &block);
        assert_eq!(stats.counts.committed_txs, 1);
    }

    #[test]
    fn skewed_samples_are_counted_not_swallowed() {
        let mut stats = Stats::new(ReplicaId(0), 40_000_000, 0);
        // Submitted "in the future" relative to the commit stamp: a
        // skewed per-thread clock, not a real negative latency.
        let block = block_with_txs(&[5_000_000, 100]);
        commit(&mut stats, 0, 1_000_000, &block);
        let m = stats.into_metrics(1_000_000_000);
        assert_eq!(m.committed_txs, 2);
        assert_eq!(m.skew_clamped, 1, "one clamped sample must be surfaced");
        // The clamped sample still carries the client legs (80ms).
        assert!(m.latency.max_ms >= 80.0);
    }

    #[test]
    fn local_transactions_skip_client_legs() {
        let mut stats = Stats::new(ReplicaId(0), 40_000_000, 0);
        let g = Block::genesis();
        let txs = vec![
            // Locally submitted: no client network legs.
            Transaction::new(0, Transaction::LOCAL_CLIENT, Bytes::new(), 100),
            // Remote client: two 40ms legs.
            Transaction::new(1, 7, Bytes::new(), 100),
        ];
        let block = Block::new_normal(
            g.id(),
            g.view(),
            View(1),
            g.height().next(),
            Batch::new(txs),
            Justify::One(Qc::genesis(g.id())),
        );
        commit(&mut stats, 0, 1_000_100, &block);
        let m = stats.into_metrics(1_000_000_000);
        assert_eq!(m.skew_clamped, 0);
        // Local: 1ms exactly. Remote: 1ms + 80ms of legs. Were the legs
        // double-counted onto the local sample too, the mean would be
        // 81ms; with the fix it is 41ms.
        assert!(m.latency.mean_ms < 50.0, "{}", m.latency.mean_ms);
        assert!(m.latency.max_ms >= 81.0 - 1e-6, "{}", m.latency.max_ms);
    }

    #[test]
    fn recommitted_transactions_do_not_count_as_goodput() {
        // Satellite pin: a transaction id that commits twice (client
        // resubmission across leader changes) contributes to throughput
        // exactly once; the recommit is surfaced, not counted.
        let mut stats = Stats::new(ReplicaId(0), 0, 0);
        let block = block_with_txs(&[100, 200]);
        commit(&mut stats, 0, 1_000, &block);
        commit(&mut stats, 0, 2_000, &block);
        assert_eq!(stats.counts.committed_txs, 2);
        assert_eq!(stats.total_observed_txs(), 2);
        let m = stats.into_metrics(1_000_000_000);
        assert_eq!(m.committed_txs, 2);
        assert_eq!(m.duplicate_txs, 2);
    }

    #[test]
    fn metrics_count_every_replicas_proposal_and_payload_bytes() {
        let mut stats = Stats::new(ReplicaId(0), 0, 0);
        let sent = |class, bytes| Telemetry::Sent {
            class,
            bytes,
            authenticators: 1,
        };
        stats.record(
            0,
            ReplicaId(1),
            sent(MsgClass::Proposal(Phase::Prepare), 400),
        );
        stats.record(
            0,
            ReplicaId(2),
            sent(MsgClass::Proposal(Phase::Prepare), 300),
        );
        stats.record(0, ReplicaId(0), sent(MsgClass::Payload, 50));
        stats.record(0, ReplicaId(0), sent(MsgClass::Proposal(Phase::Commit), 90));
        stats.record(0, ReplicaId(0), sent(MsgClass::Vote(Phase::Prepare), 70));
        let m = stats.into_metrics(1);
        assert_eq!((m.proposal_wire_bytes, m.payload_wire_bytes), (700, 50));
    }
}
