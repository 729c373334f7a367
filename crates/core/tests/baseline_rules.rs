//! The non-chained family, table-driven: one schedule per behaviour,
//! parameterised by [`ProtocolKind`], asserting what the five rule sets
//! over the shared replica skeleton have in common and the few things
//! they may differ in (phase ladder, view-change shape, how a replica
//! locked on a hidden QC is unlocked).

use marlin_core::{harness::Cluster, Config, Note, ProtocolKind};
use marlin_crypto::QcFormat;
use marlin_telemetry::{SharedSink, TelemetrySink};
use marlin_types::{
    Justify, Message, MsgBody, MsgClass, Phase, Qc, ReplicaId, VcCert, View, ViewChange,
};
use std::sync::{Arc, Mutex};

const P0: ReplicaId = ReplicaId(0);
const P1: ReplicaId = ReplicaId(1);
const P2: ReplicaId = ReplicaId(2);

const FAMILY: [ProtocolKind; 5] = [
    ProtocolKind::Marlin,
    ProtocolKind::HotStuff,
    ProtocolKind::Jolteon,
    ProtocolKind::TwoPhaseInsecure,
    ProtocolKind::MarlinFourPhase,
];

fn cluster(kind: ProtocolKind) -> Cluster {
    Cluster::new(kind, Config::for_test(4, 1), 1)
}

/// Phases of the QCs `leader` formed, optionally restricted to `view`.
fn qc_phases(cl: &Cluster, leader: ReplicaId, in_view: Option<View>) -> Vec<Phase> {
    cl.notes()
        .iter()
        .filter_map(|(p, n)| match n {
            Note::QcFormed { phase, view, .. }
                if *p == leader && in_view.is_none_or(|v| v == *view) =>
            {
                Some(*phase)
            }
            _ => None,
        })
        .collect()
}

#[test]
fn normal_case_commits() {
    for kind in FAMILY {
        let mut cl = cluster(kind);
        cl.submit_to(P1, 40, 150);
        cl.run_until_idle();
        cl.assert_consistent();
        assert_eq!(cl.total_committed_txs(P0), 40, "{kind:?}");
    }
}

#[test]
fn phases_per_block() {
    // HotStuff forms Prepare, PreCommit and Commit QCs for every block;
    // the rest of the family commits in two phases.
    for kind in FAMILY {
        let mut cl = cluster(kind);
        cl.submit_to(P1, 5, 0);
        cl.run_until_idle();
        let phases = qc_phases(&cl, P1, None);
        assert!(phases.contains(&Phase::Prepare), "{kind:?}");
        assert!(phases.contains(&Phase::Commit), "{kind:?}");
        assert_eq!(
            phases.contains(&Phase::PreCommit),
            kind == ProtocolKind::HotStuff,
            "{kind:?}: {phases:?}"
        );
        assert!(!phases.contains(&Phase::PrePrepare), "{kind:?}");
    }
}

/// Counts transmitted message copies (per destination, self excluded).
#[derive(Default)]
struct Sent(u64);

impl TelemetrySink for Sent {
    fn note(&mut self, _at_ns: u64, _replica: ReplicaId, _note: &Note) {}

    fn message_sent(&mut self, _at: u64, _from: ReplicaId, _class: MsgClass, _bytes: u64, _a: u64) {
        self.0 += 1;
    }
}

#[test]
fn messages_per_block_differ_only_by_the_extra_round() {
    // What the rule sets may differ in on the failure-free path, pinned:
    // at n = 4 a two-phase block costs 2 × (broadcast + votes) + decide
    // = 15 message copies (the perf ledger's `core.msgs_per_block`),
    // and HotStuff's third phase adds exactly one broadcast + vote
    // round: 21 (`twin.hotstuff.msgs_per_block`).
    for kind in FAMILY {
        let mut cl = cluster(kind);
        let sent = SharedSink::new(Sent::default());
        cl.set_telemetry(Box::new(sent.clone()));
        let before = cl.committed_height(P0);
        for _ in 0..5 {
            cl.submit_to(P1, 10, 150);
            cl.run_until_idle();
        }
        let blocks = (cl.committed_height(P0) - before) as u64;
        assert!(blocks >= 5, "{kind:?}");
        let expected = if kind == ProtocolKind::HotStuff {
            21
        } else {
            15
        };
        assert_eq!(sent.with(|s| s.0), expected * blocks, "{kind:?}");
    }
}

#[test]
fn leader_crash_view_change_recovers() {
    for kind in FAMILY {
        let mut cl = cluster(kind);
        // Every transmitted new-view PREPARE proposal's proof bundle.
        let proofs: Arc<Mutex<Vec<Vec<VcCert>>>> = Arc::default();
        let seen = Arc::clone(&proofs);
        cl.set_filter(Box::new(move |_from, _to, msg: &Message| {
            if let MsgBody::Proposal(p) = &msg.body {
                if p.phase == Phase::Prepare && !p.vc_proof.is_empty() {
                    seen.lock().unwrap().push(p.vc_proof.clone());
                }
            }
            true
        }));
        cl.submit_to(P1, 10, 0);
        cl.run_until_idle();
        cl.crash(P1);
        while cl.min_view() < View(2) {
            assert!(cl.fire_next_timer());
        }
        cl.run_until_idle();

        let vc_phases = qc_phases(&cl, P2, Some(View(2)));
        let proofs = proofs.lock().unwrap().clone();
        match kind {
            // The four-phase recovery block forms all four QCs.
            ProtocolKind::MarlinFourPhase => {
                for phase in [
                    Phase::PrePrepare,
                    Phase::Prepare,
                    Phase::PreCommit,
                    Phase::Commit,
                ] {
                    assert!(vc_phases.contains(&phase), "phases: {vc_phases:?}");
                }
            }
            // Jolteon's view change carries the quadratic proof: a
            // quorum of certificates, in sender order on the wire (not
            // in the order some process-local hash map yields them).
            ProtocolKind::Jolteon => {
                assert!(!proofs.is_empty(), "no new-view proof on the wire");
                for proof in &proofs {
                    assert!(proof.len() >= 3);
                    assert!(
                        proof.windows(2).all(|w| w[0].from < w[1].from),
                        "vc_proof senders not strictly ascending: {:?}",
                        proof.iter().map(|c| c.from).collect::<Vec<_>>()
                    );
                }
            }
            _ => {}
        }
        if kind != ProtocolKind::Jolteon {
            assert!(proofs.is_empty(), "{kind:?} sent a view-change proof");
        }

        // Progress continues under the new leader.
        cl.submit_to(P2, 10, 0);
        cl.run_until_idle();
        cl.assert_consistent();
        assert_eq!(cl.total_committed_txs(P0), 20, "{kind:?}");
    }
}

/// A `prepareQC` for `block` as three replicas of view 1 would form it.
fn stale_prepare_qc(cfg: &Config, block: &marlin_types::Block) -> Qc {
    let seed = block.vote_seed(Phase::Prepare, View(1));
    let partials: Vec<_> = (0..3)
        .map(|i| cfg.keys.signer(i).sign_partial(&seed.signing_bytes()))
        .collect();
    Qc::combine(seed, &partials, &cfg.keys, QcFormat::Threshold).unwrap()
}

/// A link filter hiding part of the contested height's traffic: given
/// the contested height, the destination and the message, `false`
/// drops the copy.
type Hide = fn(u64, ReplicaId, &Message) -> bool;

/// The Figure 2a/2b schedule: commit a prefix, let only p0 learn the
/// next block's newest QC (`hide` is the link filter doing that, given
/// the contested height), crash the leader, and complete p2's
/// view-change quorum *without* p0's VIEW-CHANGE — the crashed leader's
/// slot is filled by a crafted Byzantine VIEW-CHANGE claiming the stale
/// QC (with a Jolteon certificate when `with_cert`). Returns the
/// cluster, filters cleared, and the contested height.
fn unsafe_snapshot(kind: ProtocolKind, hide: Hide, with_cert: bool) -> (Cluster, u64) {
    let mut cl = cluster(kind);
    cl.submit_to(P1, 10, 0);
    cl.run_until_idle();
    let contested = cl.committed_height(P0) as u64 + 1;
    cl.set_filter(Box::new(move |_f, to, msg: &Message| {
        hide(contested, to, msg)
    }));
    cl.submit_to(P1, 10, 0);
    cl.run_until_idle();
    let stale_block = cl.committed_blocks(P0).last().expect("committed").clone();
    cl.crash(P1);
    cl.set_filter(Box::new(|from, _to, msg: &Message| {
        !(from == P0 && matches!(msg.body, MsgBody::ViewChange(_)))
    }));
    while cl.min_view() < View(2) {
        assert!(cl.fire_next_timer());
    }
    cl.run_until_idle();
    let cfg = Config::for_test(4, 1);
    let stale_qc = stale_prepare_qc(&cfg, &stale_block);
    let lb = stale_block.meta();
    let parsig = cfg
        .keys
        .signer(1)
        .sign_partial(&ViewChange::happy_seed(&lb, View(2)).signing_bytes());
    let cert = with_cert.then(|| {
        cfg.keys
            .signer(1)
            .sign(&VcCert::signing_bytes(P1, View(2), &stale_qc))
    });
    cl.inject(
        P2,
        Message::new(
            P1,
            View(2),
            MsgBody::ViewChange(ViewChange {
                last_voted: lb,
                high_qc: Justify::One(stale_qc),
                parsig,
                cert,
            }),
        ),
    );
    cl.clear_filter();
    cl.run_until_idle();
    (cl, contested)
}

/// Three-phase hiding: the contested block's PRE-COMMIT and COMMIT
/// broadcasts reach only p0, so only p0 knows its `prepareQC`.
fn hide_later_phases(contested: u64, to: ReplicaId, msg: &Message) -> bool {
    match &msg.body {
        MsgBody::Proposal(p) if matches!(p.phase, Phase::PreCommit | Phase::Commit) => {
            !(p.justify.qc().is_some_and(|qc| qc.height().0 == contested) && to != P0)
        }
        _ => true,
    }
}

/// Two-phase hiding: p2 never sees the contested block, and its COMMIT
/// broadcast (the `prepareQC`) reaches only p0 — which locks on it.
fn hide_lock(contested: u64, to: ReplicaId, msg: &Message) -> bool {
    match &msg.body {
        MsgBody::Proposal(p) if p.phase == Phase::Prepare => {
            !(p.blocks.first().is_some_and(|b| b.height().0 == contested) && to == P2)
        }
        MsgBody::Proposal(p) if p.phase == Phase::Commit => {
            p.justify.qc().is_none_or(|qc| qc.height().0 != contested) || to == P0
        }
        _ => true,
    }
}

#[test]
fn unsafe_snapshot_does_not_wedge_the_honest_baselines() {
    // * HotStuff — nothing is locked prematurely (p0 never saw a
    //   precommitQC), so it accepts the proposal extending the stale
    //   prepareQC: the three-phase rule makes the snapshot harmless.
    // * Jolteon — p0 *is* locked on the hidden QC; the proposal extends
    //   the lower QC but carries a quorum's certificates, so p0 unlocks
    //   and votes (liveness at quadratic cost).
    // * Four-phase — p0 NACKs the stale pre-prepare with its lock and
    //   the leader restarts from it: the contested block is recovered,
    //   at the cost of the extra round trips.
    let cells: [(ProtocolKind, Hide, bool); 3] = [
        (ProtocolKind::HotStuff, hide_later_phases, false),
        (ProtocolKind::Jolteon, hide_lock, true),
        (ProtocolKind::MarlinFourPhase, hide_lock, false),
    ];
    for (kind, hide, with_cert) in cells {
        let (mut cl, contested) = unsafe_snapshot(kind, hide, with_cert);
        cl.assert_consistent();
        if kind == ProtocolKind::MarlinFourPhase {
            assert!(
                cl.committed_blocks(P0)
                    .iter()
                    .any(|b| b.height().0 == contested),
                "contested block not recovered; heights: {:?}",
                cl.committed_blocks(P0)
                    .iter()
                    .map(|b| b.height().0)
                    .collect::<Vec<_>>()
            );
            assert_eq!(cl.total_committed_txs(P0), 20);
        }
        cl.submit_to(P2, 10, 0);
        cl.run_until_idle();
        cl.assert_consistent();
        assert!(cl.total_committed_txs(P2) >= 20, "{kind:?}");
    }
}
