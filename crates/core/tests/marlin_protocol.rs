//! End-to-end protocol tests for Marlin on the simulator's zero-latency
//! profile, including reconstructions of the paper's Figure 2
//! view-change snapshot scenarios.

mod support;

use marlin_core::ProtocolKind;
use marlin_core::{Config, Event, Note, VcCase};
use marlin_crypto::QcFormat;
use marlin_simnet::{Invariants, SimNet};
use marlin_types::{Message, MsgBody, Phase, Qc, ReplicaId, View, ViewChange};
use support::{assert_safe, instant, max_view, min_view, submit, Ledger};

const P0: ReplicaId = ReplicaId(0);
const P1: ReplicaId = ReplicaId(1);
const P2: ReplicaId = ReplicaId(2);
const P3: ReplicaId = ReplicaId(3);

fn marlin_cluster(n: usize, f: usize) -> (SimNet, Ledger, Invariants) {
    instant(ProtocolKind::Marlin, Config::for_test(n, f), &[])
}

#[test]
fn normal_case_commits_transactions() {
    let (mut sim, _, inv) = marlin_cluster(4, 1);
    submit(&mut sim, P1, 50, 150); // view-1 leader
    sim.run_until_idle();
    assert_safe(&inv);
    for p in [P0, P1, P2, P3] {
        assert_eq!(sim.committed_txs(p), 50, "{p}");
    }
}

#[test]
fn multiple_batches_commit_sequentially() {
    let (mut sim, _, inv) = marlin_cluster(4, 1);
    for _ in 0..5 {
        submit(&mut sim, P1, 20, 0);
        sim.run_until_idle();
    }
    assert_safe(&inv);
    assert_eq!(sim.committed_txs(P0), 100);
    // Still in view 1 — no spurious view changes under instant delivery.
    assert_eq!(max_view(&sim), View(1));
}

#[test]
fn larger_cluster_commits() {
    let (mut sim, _, inv) = instant(ProtocolKind::Marlin, Config::for_test(7, 2), &[]);
    submit(&mut sim, P1, 30, 150);
    sim.run_until_idle();
    assert_safe(&inv);
    for i in 0..7u32 {
        assert_eq!(sim.committed_txs(ReplicaId(i)), 30);
    }
}

#[test]
fn heartbeat_produces_empty_blocks() {
    let (mut sim, _, inv) = marlin_cluster(4, 1);
    let before = sim.committed_blocks(P0);
    // Fire a few heartbeats (they pace empty proposals).
    for _ in 0..6 {
        sim.fire_next_timer();
    }
    assert!(sim.committed_blocks(P0) > before);
    assert_safe(&inv);
}

#[test]
fn leader_crash_triggers_happy_path_view_change() {
    let (mut sim, _, inv) = marlin_cluster(4, 1);
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    assert_eq!(sim.committed_txs(P0), 10);

    sim.crash(P1);
    // Replicas time out of view 1 and elect p2 (leader of view 2). All
    // correct replicas share the same last-voted block, so the leader
    // takes the happy path.
    while min_view(&sim) < View(2) {
        assert!(sim.fire_next_timer(), "ran out of timers");
    }
    sim.run_until_idle();
    assert!(
        sim.notes()
            .iter()
            .any(|(_, p, n)| *p == P2 && matches!(n, Note::HappyPathVc { view: View(2) })),
        "expected a happy-path view change at p2; notes: {:?}",
        sim.notes()
    );

    // The new leader makes progress.
    submit(&mut sim, P2, 15, 0);
    sim.run_until_idle();
    assert_safe(&inv);
    for p in [P0, P2, P3] {
        assert_eq!(sim.committed_txs(p), 25, "{p}");
    }
}

#[test]
fn consecutive_leader_crashes_are_survived() {
    let (mut sim, _, inv) = marlin_cluster(7, 2);
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();

    // Crash the leaders of views 1 and 2.
    sim.crash(P1);
    sim.crash(P2);
    while min_view(&sim) < View(3) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    submit(&mut sim, P3, 10, 0);
    sim.run_until_idle();
    assert_safe(&inv);
    assert_eq!(sim.committed_txs(P0), 20);
}

/// Builds the paper's Figure 2 situation: the decided-but-hidden block.
///
/// Returns `(cluster, contested_height)` where the block at
/// `contested_height` has a `prepareQC` known only to p0 (p0 is locked
/// on it), p2/p3 voted for it but never saw its QC, and the view-1
/// leader p1 has crashed.
fn build_figure2_scenario(insecure: bool) -> (SimNet, Ledger, Invariants, u64) {
    let kind = if insecure {
        ProtocolKind::TwoPhaseInsecure
    } else {
        ProtocolKind::Marlin
    };
    // p1 is the Byzantine replica whose stale VIEW-CHANGE the tests forge.
    let (mut sim, ledger, inv) = instant(kind, Config::for_test(4, 1), &[P1]);
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    assert_eq!(
        sim.committed_txs(P0),
        10,
        "{kind:?} failed in the failure-free phase"
    );
    let committed = sim.committed_blocks(P0);
    let contested = committed + 1;

    // The PREPARE proposal for the contested block reaches p0 and p3
    // but not p2; the COMMIT (carrying its prepareQC) reaches only p0.
    sim.set_filter(Box::new(move |_from, to, msg: &Message| match &msg.body {
        MsgBody::Proposal(p) if p.phase == Phase::Prepare => {
            !(p.blocks.first().is_some_and(|b| b.height().0 == contested) && to == P2)
        }
        MsgBody::Proposal(p) if p.phase == Phase::Commit => {
            let is_contested = p
                .justify
                .qc()
                .is_some_and(|qc| qc.height().0 == contested && qc.phase() == Phase::Prepare);
            !is_contested || to == P0
        }
        _ => true,
    }));
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    sim.crash(P1);
    (sim, ledger, inv, contested)
}

/// Crafts the Byzantine stale VIEW-CHANGE of Figure 2 (the faulty
/// replica hides the contested QC and reports an old last-voted block).
fn stale_view_change(ledger: &Ledger, cfg: &Config, from: ReplicaId, view: View) -> Message {
    let stale_block = ledger.blocks(P0).last().expect("committed").clone();
    let lb = stale_block.meta();
    let qc_seed = stale_block.vote_seed(Phase::Prepare, View(1));
    let partials: Vec<_> = (0..3)
        .map(|i| cfg.keys.signer(i).sign_partial(&qc_seed.signing_bytes()))
        .collect();
    let stale_qc = Qc::combine(qc_seed, &partials, &cfg.keys, QcFormat::Threshold).unwrap();
    let parsig = cfg
        .keys
        .signer(from.index())
        .sign_partial(&ViewChange::happy_seed(&lb, view).signing_bytes());
    Message::new(
        from,
        view,
        MsgBody::ViewChange(ViewChange {
            last_voted: lb,
            high_qc: marlin_types::Justify::One(stale_qc),
            parsig,
            cert: None,
        }),
    )
}

/// Figure 2c: with an unsafe view-change snapshot (p0's message hidden,
/// the Byzantine replica reporting stale state), Marlin's Case V1 +
/// virtual block + R2 vote still commits the block p0 is locked on.
#[test]
fn figure2c_unsafe_snapshot_case_v1_recovers() {
    let cfg = Config::for_test(4, 1);
    let (mut sim, ledger, inv, contested) = build_figure2_scenario(false);

    // Drop p0's VIEW-CHANGE messages (the unsafe snapshot) but keep all
    // other traffic flowing.
    sim.set_filter(Box::new(|from, _to, msg: &Message| {
        !(from == P0 && matches!(msg.body, MsgBody::ViewChange(_)))
    }));

    while min_view(&sim) < View(2) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    // p2 (view-2 leader) has only 2 view-change messages; inject the
    // Byzantine stale one to complete its (unsafe) snapshot.
    sim.inject(
        P2,
        Event::Message(stale_view_change(&ledger, &cfg, P1, View(2))),
    );

    // Case V1 must have run, and the contested block must commit.
    assert!(
        sim.notes().iter().any(|(_, p, n)| {
            *p == P2
                && matches!(
                    n,
                    Note::UnhappyPathVc {
                        case: VcCase::V1,
                        ..
                    }
                )
        }),
        "expected Case V1; notes: {:?}",
        sim.notes()
    );
    assert_safe(&inv);
    for p in [P0, P2, P3] {
        let chain = ledger.blocks(p);
        assert!(
            chain.iter().any(|b| b.height().0 == contested),
            "{p} did not commit the contested block; chain heights: {:?}",
            chain.iter().map(|b| b.height().0).collect::<Vec<_>>()
        );
        assert_eq!(sim.committed_txs(p), 20, "{p}");
    }
    // The virtual block itself is part of the committed chain.
    assert!(ledger
        .blocks(P0)
        .iter()
        .any(|b| b.is_virtual() && b.height().0 == contested + 1));
}

/// The same unsafe snapshot under the insecure two-phase strawman
/// (Figure 2b): the locked replica rejects the new proposal and the
/// system cannot commit anything new — the liveness failure Marlin
/// fixes.
#[test]
fn figure2b_insecure_two_phase_stalls() {
    let cfg = Config::for_test(4, 1);
    let (mut sim, ledger, _, contested) = build_figure2_scenario(true);
    let committed_before = sim.committed_blocks(P0);

    sim.set_filter(Box::new(|from, _to, msg: &Message| {
        !(from == P0 && matches!(msg.body, MsgBody::ViewChange(_)))
    }));
    // Views 2 (leader p2) and 3 (leader p3) both receive unsafe
    // snapshots (two honest stale views plus the Byzantine stale
    // message); neither can make progress because p0 stays locked on
    // the hidden QC and refuses every proposal. (Once rotation reaches
    // p0 itself the system would recover — the paper's point is that a
    // leader with an unsafe snapshot is stuck, which Marlin fixes
    // *within* the same view; see figure2c.)
    for target in [2u64, 3] {
        while min_view(&sim) < View(target) {
            assert!(sim.fire_next_timer());
        }
        sim.run_until_idle();
        let leader = ReplicaId::leader_of(View(target), 4);
        sim.inject(
            leader,
            Event::Message(stale_view_change(&ledger, &cfg, P1, View(target))),
        );
        // The leader proposes from the stale QC; p0 rejects, the quorum
        // is missed, nothing commits.
        for p in [P2, P3] {
            assert_eq!(
                sim.committed_blocks(p),
                committed_before,
                "{p} made progress in view {target} despite the unsafe snapshot"
            );
            assert!(!ledger.blocks(p).iter().any(|b| b.height().0 == contested));
        }
    }
}

/// A safe snapshot containing p0's high QC takes Case V2 (the leader is
/// certain) and extends the contested block directly.
#[test]
fn figure2_safe_snapshot_case_v2() {
    let cfg = Config::for_test(4, 1);
    let (mut sim, ledger, inv, contested) = build_figure2_scenario(false);

    // p3's VIEW-CHANGE is hidden instead of p0's: the snapshot includes
    // p0's prepareQC for the contested block (safe snapshot).
    sim.set_filter(Box::new(|from, _to, msg: &Message| {
        !(from == P3 && matches!(msg.body, MsgBody::ViewChange(_)))
    }));
    while min_view(&sim) < View(2) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    sim.inject(
        P2,
        Event::Message(stale_view_change(&ledger, &cfg, P1, View(2))),
    );

    assert!(
        sim.notes().iter().any(|(_, p, n)| {
            *p == P2
                && matches!(
                    n,
                    Note::UnhappyPathVc {
                        case: VcCase::V2,
                        ..
                    }
                )
        }),
        "expected Case V2; notes: {:?}",
        sim.notes()
    );
    assert_safe(&inv);
    for p in [P0, P2, P3] {
        assert!(ledger.blocks(p).iter().any(|b| b.height().0 == contested));
        assert_eq!(sim.committed_txs(p), 20, "{p}");
    }
    // Case V2 extends the contested block with a normal block: no
    // virtual block in the chain.
    assert!(!ledger.blocks(P0).iter().any(|b| b.is_virtual()));
}

/// After recovery through a view change, the protocol keeps committing
/// in the new view.
#[test]
fn progress_continues_after_unhappy_view_change() {
    let cfg = Config::for_test(4, 1);
    let (mut sim, ledger, inv, _) = build_figure2_scenario(false);
    sim.set_filter(Box::new(|from, _to, msg: &Message| {
        !(from == P0 && matches!(msg.body, MsgBody::ViewChange(_)))
    }));
    while min_view(&sim) < View(2) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    sim.inject(
        P2,
        Event::Message(stale_view_change(&ledger, &cfg, P1, View(2))),
    );
    sim.clear_filter();

    submit(&mut sim, P2, 30, 150);
    sim.run_until_idle();
    assert_safe(&inv);
    assert_eq!(sim.committed_txs(P0), 50);
    assert_eq!(max_view(&sim), View(2));
}

/// Locked state is tracked correctly: after a commit, replicas are
/// locked on the newest prepareQC.
#[test]
fn replicas_lock_on_latest_prepare_qc() {
    let (mut sim, _, _) = marlin_cluster(4, 1);
    submit(&mut sim, P1, 5, 0);
    sim.run_until_idle();
    let height = sim.committed_blocks(P0);
    for p in [P0, P2, P3] {
        let view = sim.replica(p).current_view();
        assert_eq!(view, View(1));
    }
    assert!(height >= 2);
}

/// Rotating-leader mode: leaders hand over on the rotation interval and
/// the cluster keeps committing (Section VI, Figure 10j setup).
#[test]
fn rotating_leader_mode_rotates_and_commits() {
    let mut cfg = Config::for_test(4, 1);
    cfg.rotation_interval_ns = Some(50_000_000);
    let (mut sim, _, inv) = instant(ProtocolKind::Marlin, cfg, &[]);
    for round in 0..6 {
        // Wait for every replica to converge on one view, then submit to
        // its leader (clients of a real deployment resubmit after a
        // rotation; here we submit only to in-view leaders).
        while min_view(&sim) < max_view(&sim) {
            assert!(sim.fire_next_timer(), "no timers at round {round}");
        }
        let v = max_view(&sim);
        submit(&mut sim, ReplicaId::leader_of(v, 4), 10, 0);
        sim.run_until_idle();
        // Fire rotation timers to move to the next view.
        while min_view(&sim) <= v {
            assert!(sim.fire_next_timer(), "no timers at round {round}");
        }
        sim.run_until_idle();
    }
    assert_safe(&inv);
    assert!(max_view(&sim) >= View(6));
    assert_eq!(sim.committed_txs(P0), 60);
    // Rotations under no failures take the happy path.
    let happy = sim
        .notes()
        .iter()
        .filter(|(_, _, n)| matches!(n, Note::HappyPathVc { .. }))
        .count();
    assert!(happy >= 5, "expected happy-path rotations, got {happy}");
}

/// A replica that missed everything catches up through fetch.
#[test]
fn lagging_replica_catches_up_via_fetch() {
    let (mut sim, _, inv) = marlin_cluster(4, 1);
    // p3 is partitioned from proposals/commits (but not Decide).
    sim.set_filter(Box::new(|_from, to, msg: &Message| {
        !(to == P3 && matches!(&msg.body, MsgBody::Proposal(_)))
    }));
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    assert_safe(&inv);
    // p3 saw only Decide messages, fetched the blocks, and committed.
    assert_eq!(sim.committed_txs(P3), 10);
}

/// Post-crash view resynchronization (the f+1 attestation rule): with
/// linear view changes a recovered replica never overhears VIEW-CHANGE
/// traffic, so peers' `CATCH-UP` responses — whose headers carry the
/// responder's current view — are what pull it forward. One claim must
/// not move it (a lone Byzantine responder could drag it arbitrarily
/// far); the (f+1)-th highest claim is attested by at least one honest
/// replica and is joined immediately.
#[test]
fn catch_up_responses_resynchronize_a_lagging_replica() {
    use marlin_core::marlin::Marlin;
    use marlin_core::{Action, Event, Protocol};

    let cfg = Config::for_test(4, 1);
    let mut p3 = Marlin::new(cfg.with_id(P3));
    p3.step(Event::Start);
    assert_eq!(p3.current_view(), View(1));

    // A single (possibly Byzantine) claim of a far-future view: no move.
    let inflated = Message::new(P1, View(99), MsgBody::CatchUpResponse { commit_qc: None });
    p3.step(Event::Message(inflated));
    assert_eq!(
        p3.current_view(),
        View(1),
        "one attestation must not move the view"
    );

    // A second, honest claim: f + 1 = 2 peers are now above view 1, and
    // the 2nd-highest claim (view 4, the honest one) bounds the jump.
    let honest = Message::new(P0, View(4), MsgBody::CatchUpResponse { commit_qc: None });
    let out = p3.step(Event::Message(honest));
    assert_eq!(
        p3.current_view(),
        View(4),
        "should join the honestly-attested view"
    );
    // Joining means a VIEW-CHANGE goes to the view-4 leader (linearity).
    assert!(
        out.actions.iter().any(|a| matches!(
            a,
            Action::Send { to, message } if *to == ReplicaId::leader_of(View(4), 4)
                && matches!(&message.body, MsgBody::ViewChange(_))
        )),
        "expected a VIEW-CHANGE to the view-4 leader: {:?}",
        out.actions
    );
}

/// With decoupled dissemination enabled, the leader pushes batches as
/// digest-addressed payloads ahead of consensus and the prepare phase
/// carries only `DIGEST-PROPOSAL` messages — no full-batch `PROPOSAL`
/// ever crosses the wire, yet every replica commits the payload.
#[test]
fn dissemination_commits_via_digest_proposals() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let mut cfg = Config::for_test(4, 1);
    cfg.dissemination = true;
    let (mut sim, _, inv) = instant(ProtocolKind::Marlin, cfg, &[]);

    let digest_proposals = Arc::new(AtomicUsize::new(0));
    let full_prepare_proposals = Arc::new(AtomicUsize::new(0));
    let (d, p) = (
        Arc::clone(&digest_proposals),
        Arc::clone(&full_prepare_proposals),
    );
    sim.set_filter(Box::new(move |_from, _to, msg: &Message| {
        match &msg.body {
            MsgBody::DigestProposal { .. } => {
                d.fetch_add(1, Ordering::Relaxed);
            }
            MsgBody::Proposal(prop)
                if prop.phase == Phase::Prepare
                    && prop.blocks.iter().any(|b| !b.payload().is_empty()) =>
            {
                p.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        true // observe only, drop nothing
    }));

    submit(&mut sim, P1, 60, 150);
    sim.run_until_idle();
    assert_safe(&inv);
    for replica in [P0, P1, P2, P3] {
        assert_eq!(sim.committed_txs(replica), 60, "{replica}");
    }
    assert!(
        digest_proposals.load(Ordering::Relaxed) > 0,
        "payload batches should be proposed by digest"
    );
    assert_eq!(
        full_prepare_proposals.load(Ordering::Relaxed),
        0,
        "no full-batch prepare proposal should cross the wire"
    );
    // The payload plane reported its lifecycle: pushes and ack quorums.
    let pushed = sim
        .notes()
        .iter()
        .filter(|(_, _, n)| matches!(n, Note::PayloadPushed { .. }))
        .count();
    let quorums = sim
        .notes()
        .iter()
        .filter(|(_, _, n)| matches!(n, Note::PayloadQuorum { .. }))
        .count();
    assert!(pushed > 0, "expected PayloadPushed notes");
    assert!(quorums > 0, "expected PayloadQuorum notes");
}

/// A replica that missed the payload push still follows the chain: it
/// buffers the digest proposal, fetches the batch from the proposer by
/// digest, and commits the same payload as everyone else.
#[test]
fn dissemination_fetch_fallback_recovers_missing_payload() {
    let mut cfg = Config::for_test(4, 1);
    cfg.dissemination = true;
    let (mut sim, _, inv) = instant(ProtocolKind::Marlin, cfg, &[]);

    // p3 never receives the payload push; acks from p0/p1/p2 (plus the
    // leader's own) still clear the availability quorum of n - f = 3.
    sim.set_filter(Box::new(|_from, to, msg: &Message| {
        !(to == P3 && matches!(&msg.body, MsgBody::PayloadPush { .. }))
    }));
    submit(&mut sim, P1, 40, 150);
    sim.run_until_idle();
    sim.clear_filter();
    sim.run_until_idle();
    assert_safe(&inv);
    for replica in [P0, P1, P2, P3] {
        assert_eq!(sim.committed_txs(replica), 40, "{replica}");
    }
    assert!(
        sim.notes()
            .iter()
            .any(|(_, id, n)| *id == P3 && matches!(n, Note::PayloadFetched { .. })),
        "p3 should have fetched the missing batch by digest"
    );
}

/// A leader whose payload pushes are all lost must not wedge: the seal
/// never reaches its availability quorum, so after `EXPIRE_AFTER`
/// heartbeat ticks the payload plane abandons it, hands the
/// transactions back to the mempool, and the next proposal ships them
/// inline — all before the view times out.
#[test]
fn lost_payload_pushes_do_not_wedge_the_leader() {
    let mut cfg = Config::for_test(4, 1);
    cfg.dissemination = true;
    let (mut sim, _, inv) = instant(ProtocolKind::Marlin, cfg, &[]);

    // Every push is lost; the leader's self-ack alone can never reach
    // the n - f = 3 availability quorum.
    sim.set_filter(Box::new(|_from, _to, msg: &Message| {
        !matches!(&msg.body, MsgBody::PayloadPush { .. })
    }));
    submit(&mut sim, P1, 40, 150);
    sim.run_until_idle();
    // Nothing can commit while the seal occupies its window slot.
    assert_eq!(sim.committed_txs(P1), 0);
    // Heartbeats age the seal to expiry, then the inline path takes over.
    sim.run_until(1_000_000_000);
    sim.run_until_idle();
    assert_safe(&inv);
    for replica in [P0, P1, P2, P3] {
        assert_eq!(sim.committed_txs(replica), 40, "{replica}");
    }
    assert!(
        sim.notes()
            .iter()
            .any(|(_, id, n)| *id == P1 && matches!(n, Note::PayloadExpired { .. })),
        "the unacked seal should have been expired"
    );
}

/// A transient push loss is healed by retransmission: the first
/// fan-out is dropped, the heartbeat-driven re-push lands, the quorum
/// forms, and the batch still commits by digest — no expiry, no
/// inline fallback.
#[test]
fn transient_push_loss_is_healed_by_retransmission() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let mut cfg = Config::for_test(4, 1);
    cfg.dissemination = true;
    let (mut sim, _, inv) = instant(ProtocolKind::Marlin, cfg, &[]);

    // Drop exactly the first push fan-out (one broadcast = 3 sends).
    let dropped = Arc::new(AtomicUsize::new(0));
    let d = Arc::clone(&dropped);
    sim.set_filter(Box::new(move |_from, _to, msg: &Message| {
        if matches!(&msg.body, MsgBody::PayloadPush { .. }) {
            return d.fetch_add(1, Ordering::Relaxed) >= 3;
        }
        true
    }));
    submit(&mut sim, P1, 40, 150);
    sim.run_until_idle();
    assert_eq!(sim.committed_txs(P1), 0, "first fan-out was lost");
    sim.run_until(1_000_000_000);
    sim.run_until_idle();
    assert_safe(&inv);
    for replica in [P0, P1, P2, P3] {
        assert_eq!(sim.committed_txs(replica), 40, "{replica}");
    }
    assert!(
        sim.notes()
            .iter()
            .any(|(_, _, n)| matches!(n, Note::PayloadQuorum { .. })),
        "the re-push should have completed the availability quorum"
    );
    assert!(
        !sim.notes()
            .iter()
            .any(|(_, _, n)| matches!(n, Note::PayloadExpired { .. })),
        "a healed seal must not expire"
    );
}

/// When the proposer answers a payload fetch with `batch: None` (it
/// pruned or never had the batch), the requester fans the fetch out to
/// every replica instead of leaving the digest proposal stuck; any
/// peer holding the batch can then complete the resolution and the
/// replica votes as normal.
#[test]
fn unresolvable_fetch_fans_out_and_recovers() {
    use bytes::Bytes;
    use marlin_core::marlin::Marlin;
    use marlin_core::{Action, Event, Protocol};
    use marlin_types::{Batch, BlockId, Justify, Transaction};

    let mut cfg = Config::for_test(4, 1);
    cfg.dissemination = true;
    let mut p3 = Marlin::new(cfg.with_id(P3));
    p3.step(Event::Start);

    let batch = Batch::new(
        (0..3)
            .map(|i| Transaction::new(i, 0, Bytes::from(vec![0x5A; 8]), 0))
            .collect(),
    );
    let digest = batch.digest();
    let justify = Justify::One(Qc::genesis(BlockId::GENESIS));

    // An unknown digest is fetched from the proposer first.
    let proposal = Message::new(P1, View(1), MsgBody::DigestProposal { digest, justify });
    let out = p3.step(Event::Message(proposal));
    assert!(
        out.actions.iter().any(|a| matches!(
            a,
            Action::Send { to, message } if *to == P1
                && matches!(&message.body, MsgBody::PayloadRequest { .. })
        )),
        "expected a targeted fetch to the proposer: {:?}",
        out.actions
    );

    // The proposer cannot serve it: the fetch fans out to everyone.
    let miss = Message::new(
        P1,
        View(1),
        MsgBody::PayloadResponse {
            digest,
            batch: None,
        },
    );
    let out = p3.step(Event::Message(miss));
    assert!(
        out.actions.iter().any(|a| matches!(
            a,
            Action::Broadcast { message }
                if matches!(&message.body, MsgBody::PayloadRequest { .. })
        )),
        "expected a broadcast fetch after the miss: {:?}",
        out.actions
    );

    // Any peer with the batch completes the resolution; the buffered
    // digest proposal replays and the replica votes prepare.
    let hit = Message::new(
        P2,
        View(1),
        MsgBody::PayloadResponse {
            digest,
            batch: Some(batch),
        },
    );
    let out = p3.step(Event::Message(hit));
    assert!(
        out.actions.iter().any(|a| matches!(
            a,
            Action::Send { to, message } if *to == P1
                && matches!(&message.body, MsgBody::Vote(v) if v.seed.phase == Phase::Prepare)
        )),
        "expected a prepare vote to the leader after resolution: {:?}",
        out.actions
    );
}
