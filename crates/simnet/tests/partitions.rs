//! Partition and healing scenarios on the discrete-event network.

use marlin_core::{Config, Note, ProtocolKind};
use marlin_simnet::{MsgClass, SimConfig, SimNet};
use marlin_telemetry::{SharedSink, TelemetrySink, ViewChanges};
use marlin_types::{Message, Phase, ReplicaId, View};

fn sim(kind: ProtocolKind) -> SimNet {
    sim_observed_by(kind, ())
}

fn sim_observed_by(kind: ProtocolKind, sink: impl TelemetrySink + 'static) -> SimNet {
    let mut cfg = Config::for_test(4, 1);
    cfg.base_timeout_ns = 500_000_000;
    SimNet::new(kind, cfg, SimConfig::lan(), sink)
}

/// A minority partition {p3} cannot commit; the majority {p0,p1,p2}
/// keeps going; after healing, p3 catches up to the same chain.
#[test]
fn minority_partition_heals_and_catches_up() {
    let mut net = sim(ProtocolKind::Marlin);
    net.set_filter(Box::new(|from: ReplicaId, to: ReplicaId, _m: &Message| {
        let cut = |r: ReplicaId| r == ReplicaId(3);
        cut(from) == cut(to) // only within-side traffic passes
    }));
    net.schedule_client_batch(ReplicaId(1), 0, 100, 150);
    net.run_until(2_000_000_000);
    assert!(
        net.committed_txs(ReplicaId(0)) >= 100,
        "majority must progress"
    );
    assert_eq!(
        net.committed_txs(ReplicaId(3)),
        0,
        "minority must not commit"
    );

    net.clear_filter();
    net.schedule_client_batch(ReplicaId(1), 2_000_000_000, 50, 150);
    net.run_until(6_000_000_000);
    assert_eq!(
        net.committed_txs(ReplicaId(3)),
        net.committed_txs(ReplicaId(0)),
        "partitioned replica did not catch up"
    );
}

/// An even split (2/2) halts everything — no quorum on either side —
/// and commits resume only after healing.
#[test]
fn even_split_halts_until_healed() {
    let mut net = sim(ProtocolKind::Marlin);
    net.schedule_client_batch(ReplicaId(1), 0, 20, 0);
    net.run_until(1_000_000_000);
    let before = net.committed_txs(ReplicaId(0));
    assert!(before >= 20);

    net.set_filter(Box::new(|from: ReplicaId, to: ReplicaId, _m: &Message| {
        let side = |r: ReplicaId| r.0 < 2;
        side(from) == side(to)
    }));
    net.schedule_client_batch(ReplicaId(1), 1_000_000_000, 20, 0);
    net.run_until(4_000_000_000);
    assert_eq!(
        net.committed_txs(ReplicaId(0)),
        before,
        "no quorum ⇒ no commits"
    );

    net.clear_filter();
    net.schedule_client_batch(ReplicaId(1), 4_100_000_000, 20, 0);
    net.run_until(12_000_000_000);
    assert!(
        net.committed_txs(ReplicaId(0)) > before,
        "commits did not resume after healing (views: {:?})",
        net.notes()
            .filter_map(|(_, _, n)| match n {
                Note::EnteredView { view, .. } => Some(view.0),
                _ => None,
            })
            .max()
    );
}

/// The meter classifies traffic per message class; a failure-free run
/// (one window, marked before start-up) has proposals/votes/decides
/// but no view-change traffic.
#[test]
fn traffic_breaks_down_by_class() {
    let meter = SharedSink::new(ViewChanges::new());
    let window = meter.with(ViewChanges::mark);
    let mut net = sim_observed_by(ProtocolKind::Marlin, meter.clone());
    net.schedule_client_batch(ReplicaId(1), 0, 50, 150);
    net.run_until(1_000_000_000);
    drop(net);
    let meter = meter.into_inner().expect("the simulator is dropped");
    let windows = meter.windows();
    assert_eq!(windows.len(), 1, "no view change expected");
    let acc = &windows[window].traffic;
    assert!(acc.class(MsgClass::Proposal(Phase::Prepare)).messages > 0);
    assert!(acc.class(MsgClass::Vote(Phase::Prepare)).messages > 0);
    assert!(acc.class(MsgClass::Vote(Phase::Commit)).messages > 0);
    assert!(acc.class(MsgClass::Decide).messages > 0);
    for class in [MsgClass::ViewChange, MsgClass::Proposal(Phase::PrePrepare)] {
        assert_eq!(acc.class(class).messages, 0, "no VC traffic expected");
    }
    // Proposals carry the payload bytes: they dominate.
    assert!(
        acc.class(MsgClass::Proposal(Phase::Prepare)).bytes
            > acc.class(MsgClass::Vote(Phase::Prepare)).bytes
    );
}

/// Different seeds change jitter (different event interleavings) but
/// both runs stay correct and commit everything.
#[test]
fn different_seeds_both_commit() {
    for seed in [1u64, 2] {
        let mut cfg = SimConfig::lan();
        cfg.seed = seed;
        let mut net = SimNet::new(ProtocolKind::Marlin, Config::for_test(4, 1), cfg, ());
        net.schedule_client_batch(ReplicaId(1), 0, 50, 150);
        net.run_until(1_000_000_000);
        assert!(net.committed_txs(ReplicaId(2)) >= 50, "seed {seed}");
    }
}

/// Views advance monotonically at every replica (pacemaker sanity under
/// repeated crashes).
#[test]
fn views_are_monotone_under_crashes() {
    let mut net = sim(ProtocolKind::Marlin);
    net.schedule_crash(ReplicaId(1), 500_000_000);
    net.schedule_crash(ReplicaId(2), 1_500_000_000);
    net.schedule_client_batch(ReplicaId(1), 0, 10, 0);
    net.run_until(8_000_000_000);
    let mut last_view = [View(0); 4];
    for (_, id, note) in net.notes() {
        if let Note::EnteredView { view, .. } = note {
            assert!(*view > last_view[id.index()], "{id} re-entered {view}");
            last_view[id.index()] = *view;
        }
    }
    // The survivors moved past both crashed leaders' views.
    assert!(last_view[0] >= View(3));
}
