//! Active-adversary integration tests: one replica behaves Byzantine
//! (equivocation, QC hiding, spam, silence) on the simulated network;
//! the correct replicas must stay safe — and, where `n − f` correct
//! replicas remain, live.

use marlin_bft::core::harness::build_protocol;
use marlin_bft::core::{Config, Protocol, ProtocolKind};
use marlin_bft::simnet::{Behavior, ByzantineReplica, SimConfig, SimNet};
use marlin_bft::telemetry::{SharedSink, Telemetry, TelemetrySink};
use marlin_bft::types::{Block, BlockId, ReplicaId};

/// Collects each replica's committed chain for consistency checking.
#[derive(Default)]
struct Chains(Vec<Vec<BlockId>>);

impl TelemetrySink for Chains {
    fn record(&mut self, _at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        let Telemetry::Committed(blocks) = event else {
            return;
        };
        if self.0.len() <= replica.index() {
            self.0.resize_with(replica.index() + 1, Vec::new);
        }
        self.0[replica.index()].extend(blocks.iter().map(Block::id));
    }
}

fn assert_prefix_consistent(chains: &Chains, skip: ReplicaId) {
    for (i, a) in chains.0.iter().enumerate() {
        for (j, b) in chains.0.iter().enumerate() {
            if i >= j || i == skip.index() || j == skip.index() {
                continue;
            }
            let len = a.len().min(b.len());
            assert_eq!(&a[..len], &b[..len], "chains of p{i} and p{j} diverge");
        }
    }
}

/// Runs a 4-replica cluster where `byzantine` runs `behavior`; returns
/// (committed txs at p0, chains).
fn run_with_adversary(
    kind: ProtocolKind,
    byzantine: ReplicaId,
    behavior: Behavior,
    seconds: u64,
) -> (u64, Chains) {
    let mut cfg = Config::for_test(4, 1);
    cfg.base_timeout_ns = 500_000_000;
    let replicas: Vec<Box<dyn Protocol>> = (0..4u32)
        .map(|i| {
            let inner = build_protocol(kind, cfg.with_id(ReplicaId(i)));
            if ReplicaId(i) == byzantine {
                Box::new(ByzantineReplica::new(inner, behavior)) as Box<dyn Protocol>
            } else {
                inner
            }
        })
        .collect();
    let chains = SharedSink::new(Chains::default());
    let mut sim = SimNet::with_replicas(replicas, SimConfig::lan(), chains.clone());

    // Keep the current leader supplied across views.
    let mut t = 0u64;
    while t < seconds * 1_000_000_000 {
        let mut view = marlin_bft::types::View(1);
        for i in 0..4u32 {
            view = view.max(sim.replica(ReplicaId(i)).current_view());
        }
        sim.schedule_client_batch(ReplicaId::leader_of(view, 4), t, 50, 0);
        t += 250_000_000;
        sim.run_until(t);
    }
    let committed = sim.committed_txs(ReplicaId(0));
    drop(sim);
    (
        committed,
        chains.into_inner().expect("the simulation is dropped"),
    )
}

#[test]
fn equivocating_leader_cannot_break_safety() {
    for kind in [
        ProtocolKind::Marlin,
        ProtocolKind::HotStuff,
        ProtocolKind::ChainedMarlin,
    ] {
        // Replica 1 leads view 1 and equivocates every proposal.
        let (committed, chains) = run_with_adversary(kind, ReplicaId(1), Behavior::Equivocate, 4);
        assert_prefix_consistent(&chains, ReplicaId(1));
        // Liveness: the cluster either commits under the equivocator
        // (half the replicas still form quorums with the leader's copy)
        // or rotates past it; either way progress happens.
        assert!(
            committed > 0,
            "{kind:?}: no progress with an equivocating leader"
        );
    }
}

#[test]
fn qc_hiding_replica_cannot_break_safety_or_liveness() {
    for kind in [
        ProtocolKind::Marlin,
        ProtocolKind::HotStuff,
        ProtocolKind::Jolteon,
        ProtocolKind::MarlinFourPhase,
    ] {
        // Replica 3 is never the early leader; it lies in view changes.
        let (committed, chains) = run_with_adversary(kind, ReplicaId(3), Behavior::HideQc, 4);
        assert_prefix_consistent(&chains, ReplicaId(3));
        assert!(
            committed > 50,
            "{kind:?}: commits stalled under a QC-hiding replica"
        );
    }
}

#[test]
fn spammer_cannot_break_safety_or_liveness() {
    let (committed, chains) =
        run_with_adversary(ProtocolKind::Marlin, ReplicaId(2), Behavior::Duplicate, 4);
    assert_prefix_consistent(&chains, ReplicaId(2));
    assert!(committed > 50);
}

#[test]
fn silent_replica_is_tolerated() {
    let (committed, chains) =
        run_with_adversary(ProtocolKind::Marlin, ReplicaId(3), Behavior::Silent, 4);
    assert_prefix_consistent(&chains, ReplicaId(3));
    assert!(committed > 50);
}

#[test]
fn silent_leader_forces_recovery() {
    // The view-1 leader goes silent: the cluster must rotate and resume.
    let (committed, chains) =
        run_with_adversary(ProtocolKind::Marlin, ReplicaId(1), Behavior::Silent, 6);
    assert_prefix_consistent(&chains, ReplicaId(1));
    assert!(committed > 0, "no recovery from a silent leader");
}
