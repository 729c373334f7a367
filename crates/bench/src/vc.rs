//! View-change measurement: latency (Fig. 10i) and communication /
//! authenticator complexity (Table I) from one instrumented run.

use marlin_core::{Config, ProtocolKind};
use marlin_crypto::{CostModel, KeyStore, QcFormat};
use marlin_simnet::{SimConfig, SimNet};
use marlin_telemetry::{SharedSink, ViewChanges, Window};
use marlin_types::{Message, MsgBody, Phase, ReplicaId, View};
use std::sync::Arc;

/// The result of one instrumented view change.
#[derive(Clone, Debug)]
pub struct VcMeasurement {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Replica count.
    pub n: usize,
    /// Whether the snapshot was forced non-unanimous (Marlin's unhappy
    /// path; irrelevant for HotStuff/Jolteon).
    pub forced_unhappy: bool,
    /// Time from the measuring replica's (p0's) `ViewChangeStarted` to
    /// its first commit after the crash (the paper's Fig. 10i metric).
    pub latency_ns: u64,
    /// The meter's window marked at the crash: all traffic from the
    /// crash until the run stops, at the first 100 ms poll that sees
    /// p0 commit, and whether the new leader took the happy path.
    pub window: Window,
}

/// Crashes the view-1 leader and measures the resulting view change.
///
/// With `force_unhappy`, the PREPARE for the final pre-crash block is
/// hidden from `f` replicas so their last-voted block differs and the
/// happy path is impossible (the Fig. 2 situation).
///
/// # Panics
///
/// Panics if the protocol fails to commit before or after the view
/// change within the simulation horizon (a liveness bug).
pub fn measure_view_change(
    protocol: ProtocolKind,
    f: usize,
    force_unhappy: bool,
    qc_format: QcFormat,
    net: SimConfig,
) -> VcMeasurement {
    measure_view_change_with_preload(protocol, f, force_unhappy, qc_format, net, 0)
}

/// Like [`measure_view_change`], additionally preloading the next
/// leader's mempool with `preload` transactions so its view-change
/// proposal carries a real batch (used by the shadow-block ablation).
pub fn measure_view_change_with_preload(
    protocol: ProtocolKind,
    f: usize,
    force_unhappy: bool,
    qc_format: QcFormat,
    net: SimConfig,
    preload: usize,
) -> VcMeasurement {
    let n = 3 * f + 1;
    let mut cfg = Config::for_test(n, f);
    cfg.keys = Arc::new(KeyStore::generate(n, f, 0x7AB1E1));
    cfg.cost = CostModel::ecdsa_like();
    cfg.qc_format = qc_format;
    cfg.base_timeout_ns = 400_000_000;
    let meter = SharedSink::new(ViewChanges::new());
    let mut sim = SimNet::new(protocol, cfg, net, meter.clone());

    let leader = ReplicaId(1); // leader of view 1
                               // Phase 1: commit a first batch so every replica has state.
    sim.schedule_client_batch(leader, 0, 50, 150);
    let horizon = 30_000_000_000u64;
    let mut t = 0u64;
    while sim.committed_txs(ReplicaId(0)) < 50 {
        t += 100_000_000;
        assert!(
            t < horizon,
            "{protocol:?} n={n}: first batch never committed"
        );
        sim.run_until(t);
    }

    // Phase 2 (optionally): create divergent last-voted blocks by hiding
    // the next block's PREPARE from the f highest-id replicas.
    if force_unhappy {
        let hidden: Vec<ReplicaId> = ((n - f) as u32..n as u32).map(ReplicaId).collect();
        sim.set_filter(Box::new(move |_from, to, msg: &Message| match &msg.body {
            MsgBody::Proposal(p) if p.phase == Phase::Prepare && !p.blocks.is_empty() => {
                !hidden.contains(&to)
            }
            MsgBody::Proposal(p) if p.phase == Phase::Commit => false,
            MsgBody::Decide(_) => false,
            _ => true,
        }));
        sim.schedule_client_batch(leader, t, 50, 150);
        // Give the partial proposal time to reach the visible replicas.
        t += 300_000_000;
        sim.run_until(t);
        sim.clear_filter();
    }
    if preload > 0 {
        // Preload the next leader's mempool so its view-change proposal
        // carries a real batch (this is what the shadow-block
        // optimisation deduplicates across the two proposals).
        let next_leader = ReplicaId::leader_of(View(2), n);
        sim.schedule_client_batch(next_leader, t, preload, 150);
        t += 50_000_000;
        sim.run_until(t);
    }

    // Phase 3: crash the leader and measure.
    let crash_at = t + 1_000_000;
    sim.schedule_crash(leader, crash_at);
    sim.run_until(crash_at);
    let window = meter.with(ViewChanges::mark);
    let commits_before = sim.committed_blocks(ReplicaId(0));

    let mut deadline = crash_at;
    while sim.committed_blocks(ReplicaId(0)) == commits_before {
        deadline += 100_000_000;
        assert!(
            deadline < crash_at + horizon,
            "{protocol:?} n={n} forced_unhappy={force_unhappy}: no commit after view change"
        );
        sim.run_until(deadline);
    }
    let window = meter.with(|meter| meter.windows()[window].clone());
    VcMeasurement {
        protocol,
        n,
        forced_unhappy: force_unhappy,
        latency_ns: window
            .latency_ns(ReplicaId(0))
            .expect("p0 timed out and then committed"),
        window,
    }
}
