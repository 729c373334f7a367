//! Scenario tests for the rarer view-change cases: leader Case V3 (two
//! `pre-prepareQC`s of equal rank) and the chained-mode unhappy path.

mod support;

use marlin_core::{Config, Event, Note, ProtocolKind, VcCase};
use marlin_crypto::QcFormat;
use marlin_types::{
    Batch, Block, BlockKind, Justify, Message, MsgBody, Phase, Qc, QcSeed, ReplicaId, View,
    ViewChange,
};
use support::{assert_safe, instant, min_view, submit};

const P0: ReplicaId = ReplicaId(0);
const P1: ReplicaId = ReplicaId(1);
const P2: ReplicaId = ReplicaId(2);
const P3: ReplicaId = ReplicaId(3);

/// Signs a quorum certificate over `seed` with the first three keys.
fn craft_qc(cfg: &Config, seed: QcSeed) -> Qc {
    let partials: Vec<_> = (0..3)
        .map(|i| cfg.keys.signer(i).sign_partial(&seed.signing_bytes()))
        .collect();
    Qc::combine(seed, &partials, &cfg.keys, QcFormat::Threshold).expect("quorum of signers")
}

/// Case V3: a Byzantine view-2 leader managed to form *two*
/// `pre-prepareQC`s — one for a normal candidate, one for a virtual
/// candidate — and crashed. The view-3 leader receives both in its
/// view-change snapshot, proposes two blocks (Case V3), and the system
/// recovers — with payloads inline or proposed by digest, the path
/// after a snapshot that carries a `(pre-prepareQC, vc)` pair.
#[test]
fn case_v3_two_equal_rank_pre_prepare_qcs() {
    // Basic and chained Marlin run the same view change.
    for kind in [ProtocolKind::Marlin, ProtocolKind::ChainedMarlin] {
        for dissemination in [false, true] {
            case_v3(kind, dissemination);
        }
    }
}

fn case_v3(kind: ProtocolKind, dissemination: bool) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let mut cfg = Config::for_test(4, 1);
    cfg.dissemination = dissemination;
    // p1 "was" the Byzantine view-2 leader; the crafted blocks and
    // snapshot are forged in its name.
    let (mut sim, ledger, inv) = instant(kind, cfg.clone(), &[P1]);
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    let b_old = ledger.blocks(P0).last().expect("committed").clone();

    // ---- Craft the aftermath of a failed view-2 view change. ----
    let qc_old = craft_qc(&cfg, b_old.vote_seed(Phase::Prepare, View(1)));
    // The "contested" view-1 block the virtual candidate stands in for.
    let contested = Block::new_normal(
        b_old.id(),
        b_old.view(),
        View(1),
        b_old.height().next(),
        Batch::empty(),
        Justify::One(qc_old),
    );
    let vc_contested = craft_qc(&cfg, contested.vote_seed(Phase::Prepare, View(1)));
    // View-2 pre-prepare candidates (Case V1 shapes) and their QCs.
    let normal_cand = Block::new_normal(
        b_old.id(),
        b_old.view(),
        View(2),
        b_old.height().next(),
        Batch::empty(),
        Justify::One(qc_old),
    );
    let virtual_cand = Block::new_virtual(
        b_old.view(),
        View(2),
        b_old.height().plus(2),
        Batch::empty(),
        Justify::One(qc_old),
    );
    assert_eq!(virtual_cand.kind(), BlockKind::Virtual);
    let pre_normal = craft_qc(&cfg, normal_cand.vote_seed(Phase::PrePrepare, View(2)));
    let pre_virtual = craft_qc(&cfg, virtual_cand.vote_seed(Phase::PrePrepare, View(2)));

    // Hand every replica the crafted blocks (as if block sync had run).
    for block in [&contested, &normal_cand, &virtual_cand] {
        for to in [P0, P1, P2, P3] {
            let virtual_parent = block.is_virtual().then(|| contested.id());
            sim.inject(
                to,
                Event::Message(Message::new(
                    P1,
                    View(1),
                    MsgBody::FetchResponse {
                        block: block.clone(),
                        virtual_parent,
                    },
                )),
            );
        }
    }

    // ---- Drive everyone to view 3 with no view-2 progress. ----
    // The view-1 leader crashes (it "was" the Byzantine leader whose
    // failed view-2 view change produced the two pre-prepareQCs).
    sim.crash(P1);
    // Drop all view-2 traffic (so nobody locks beyond view 1) and every
    // honest view-3 VIEW-CHANGE (the crafted snapshot replaces them).
    sim.set_filter(Box::new(|_from, _to, msg: &Message| match &msg.body {
        MsgBody::Proposal(_) if msg.view == View(2) => false,
        MsgBody::ViewChange(_) if msg.view == View(2) => false,
        MsgBody::ViewChange(_) if msg.view == View(3) => false,
        _ => true,
    }));
    while min_view(&sim) < View(3) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();

    // ---- Deliver the crafted snapshot to the view-3 leader (p3). ----
    let vc_msg = |from: ReplicaId, high_qc: Justify, lb: &Block| {
        Message::new(
            from,
            View(3),
            MsgBody::ViewChange(ViewChange {
                last_voted: lb.meta(),
                high_qc,
                parsig: cfg.keys.signer(from.index()).sign_partial(b"unused"),
                cert: None,
            }),
        )
    };
    // From here on the filter only counts digest proposals.
    let digests = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&digests);
    sim.set_filter(Box::new(move |_from, _to, msg: &Message| {
        if matches!(msg.body, MsgBody::DigestProposal { .. }) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        true
    }));
    sim.inject(
        P3,
        Event::Message(vc_msg(
            P0,
            Justify::Two(pre_virtual, vc_contested),
            &virtual_cand,
        )),
    );
    sim.inject(
        P3,
        Event::Message(vc_msg(P1, Justify::One(pre_normal), &normal_cand)),
    );
    sim.inject(P3, Event::Message(vc_msg(P2, Justify::One(qc_old), &b_old)));

    // Case V3 ran, and the cluster commits again.
    assert!(
        sim.notes().any(|(_, p, n)| p == P3
            && matches!(
                n,
                Note::UnhappyPathVc {
                    case: VcCase::V3,
                    ..
                }
            )),
        "{kind:?} (dissemination {dissemination}): expected Case V3; notes: {:?}",
        sim.notes()
            .filter(|(_, _, n)| matches!(n, Note::UnhappyPathVc { .. } | Note::HappyPathVc { .. }))
            .collect::<Vec<_>>()
    );
    assert_safe(&inv);
    submit(&mut sim, P3, 10, 0);
    sim.run_until_idle();
    assert_safe(&inv);
    assert!(
        sim.committed_txs(P0) >= 20,
        "{kind:?} (dissemination {dissemination}): no recovery after Case V3"
    );
    // One of the two crafted candidates was committed.
    let chain: Vec<_> = ledger.blocks(P0).iter().map(Block::id).collect();
    assert!(
        chain.contains(&normal_cand.id()) || chain.contains(&virtual_cand.id()),
        "{kind:?} (dissemination {dissemination}): neither V3 candidate committed"
    );
    let digests = digests.load(Ordering::Relaxed);
    assert_eq!(
        digests > 0,
        dissemination,
        "{kind:?}: {digests} digest proposals after Case V3"
    );
}

/// Chained Marlin's unhappy path: divergent last-voted blocks force the
/// pre-prepare phase; the pipeline then resumes.
#[test]
fn chained_marlin_unhappy_view_change() {
    let (mut sim, ledger, inv) = instant(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), &[]);
    submit(&mut sim, P1, 40, 0);
    sim.run_until_idle();
    // Close the pipeline so there is committed state.
    while sim.committed_txs(P0) < 40 {
        assert!(sim.fire_next_timer());
        sim.run_until_idle();
    }
    let committed_before = sim.committed_blocks(P0);

    // The next proposal reaches only p0; replicas' lb now diverge.
    let marker_height = ledger.blocks(P0).last().expect("committed").height().0;
    sim.set_filter(Box::new(move |_f, to, msg: &Message| match &msg.body {
        MsgBody::Proposal(p) if p.phase == Phase::Prepare => {
            !(p.blocks
                .first()
                .is_some_and(|b| b.height().0 > marker_height)
                && to != P0)
        }
        _ => true,
    }));
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    sim.crash(P1);
    sim.clear_filter();

    while min_view(&sim) < View(2) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    // Happy path is impossible (lbs diverge): either V1 or V2 ran.
    assert!(
        sim.notes()
            .any(|(_, _, n)| matches!(n, Note::UnhappyPathVc { .. })),
        "expected an unhappy-path view change"
    );
    // The pipeline resumes and commits new blocks.
    submit(&mut sim, P2, 20, 0);
    sim.run_until_idle();
    for _ in 0..8 {
        sim.fire_next_timer();
        sim.run_until_idle();
    }
    assert_safe(&inv);
    assert!(sim.committed_blocks(P0) > committed_before);
    assert!(sim.committed_txs(P0) >= 60);
}

/// The happy path also works in chained mode (unanimous lb after a
/// clean crash).
#[test]
fn chained_marlin_happy_view_change() {
    let (mut sim, _, inv) = instant(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), &[]);
    submit(&mut sim, P1, 20, 0);
    sim.run_until_idle();
    while sim.committed_txs(P0) < 20 {
        assert!(sim.fire_next_timer());
        sim.run_until_idle();
    }
    sim.crash(P1);
    while min_view(&sim) < View(2) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    assert!(sim
        .notes()
        .any(|(_, _, n)| matches!(n, Note::HappyPathVc { view: View(2) })));
    submit(&mut sim, P2, 20, 0);
    sim.run_until_idle();
    for _ in 0..8 {
        sim.fire_next_timer();
        sim.run_until_idle();
    }
    assert_safe(&inv);
    assert_eq!(sim.committed_txs(P0), 40);
}
