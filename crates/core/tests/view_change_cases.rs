//! Scenario tests for the rarer view-change cases: leader Case V3 (two
//! `pre-prepareQC`s of equal rank) and the chained-mode unhappy path.

use marlin_core::{harness::Cluster, Config, Note, ProtocolKind, VcCase};
use marlin_crypto::QcFormat;
use marlin_types::{
    Batch, Block, BlockKind, Justify, Message, MsgBody, Phase, Qc, QcSeed, ReplicaId, View,
    ViewChange,
};

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
/// recovers.
#[test]
fn case_v3_two_equal_rank_pre_prepare_qcs() {
    // Basic and chained Marlin run the same view change.
    for kind in [ProtocolKind::Marlin, ProtocolKind::ChainedMarlin] {
        case_v3(kind);
    }
}

fn case_v3(kind: ProtocolKind) {
    let cfg = Config::for_test(4, 1);
    let mut cl = Cluster::new(kind, cfg.clone(), 11);
    cl.submit_to(P1, 10, 0);
    cl.run_until_idle();
    let b_old = cl.committed_blocks(P0).last().expect("committed").clone();

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
            cl.inject(
                to,
                Message::new(
                    P1,
                    View(1),
                    MsgBody::FetchResponse {
                        block: block.clone(),
                        virtual_parent,
                    },
                ),
            );
        }
    }

    // ---- Drive everyone to view 3 with no view-2 progress. ----
    // The view-1 leader crashes (it "was" the Byzantine leader whose
    // failed view-2 view change produced the two pre-prepareQCs).
    cl.crash(P1);
    // Drop all view-2 traffic (so nobody locks beyond view 1) and every
    // honest view-3 VIEW-CHANGE (the crafted snapshot replaces them).
    cl.set_filter(Box::new(|_from, _to, msg: &Message| match &msg.body {
        MsgBody::Proposal(_) if msg.view == View(2) => false,
        MsgBody::ViewChange(_) if msg.view == View(2) => false,
        MsgBody::ViewChange(_) if msg.view == View(3) => false,
        _ => true,
    }));
    while cl.min_view() < View(3) {
        assert!(cl.fire_next_timer());
    }
    cl.run_until_idle();

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
    cl.clear_filter();
    cl.inject(
        P3,
        vc_msg(P0, Justify::Two(pre_virtual, vc_contested), &virtual_cand),
    );
    cl.inject(P3, vc_msg(P1, Justify::One(pre_normal), &normal_cand));
    cl.inject(P3, vc_msg(P2, Justify::One(qc_old), &b_old));

    // Case V3 ran, and the cluster commits again.
    assert!(
        cl.notes().iter().any(|(p, n)| *p == P3
            && matches!(
                n,
                Note::UnhappyPathVc {
                    case: VcCase::V3,
                    ..
                }
            )),
        "{kind:?}: expected Case V3; notes: {:?}",
        cl.notes()
            .iter()
            .filter(|(_, n)| matches!(n, Note::UnhappyPathVc { .. } | Note::HappyPathVc { .. }))
            .collect::<Vec<_>>()
    );
    cl.assert_consistent();
    cl.submit_to(P3, 10, 0);
    cl.run_until_idle();
    cl.assert_consistent();
    assert!(
        cl.total_committed_txs(P0) >= 20,
        "{kind:?}: no recovery after Case V3"
    );
    // One of the two crafted candidates was committed.
    let chain: Vec<_> = cl.committed_blocks(P0).iter().map(Block::id).collect();
    assert!(
        chain.contains(&normal_cand.id()) || chain.contains(&virtual_cand.id()),
        "{kind:?}: neither V3 candidate committed"
    );
}

/// Chained Marlin's unhappy path: divergent last-voted blocks force the
/// pre-prepare phase; the pipeline then resumes.
#[test]
fn chained_marlin_unhappy_view_change() {
    let mut cl = Cluster::new(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), 12);
    cl.submit_to(P1, 40, 0);
    cl.run_until_idle();
    // Close the pipeline so there is committed state.
    while cl.total_committed_txs(P0) < 40 {
        assert!(cl.fire_next_timer());
        cl.run_until_idle();
    }
    let committed_before = cl.committed_height(P0);

    // The next proposal reaches only p0; replicas' lb now diverge.
    let marker_height = cl
        .committed_blocks(P0)
        .last()
        .expect("committed")
        .height()
        .0;
    cl.set_filter(Box::new(move |_f, to, msg: &Message| match &msg.body {
        MsgBody::Proposal(p) if p.phase == Phase::Prepare => {
            !(p.blocks
                .first()
                .is_some_and(|b| b.height().0 > marker_height)
                && to != P0)
        }
        _ => true,
    }));
    cl.submit_to(P1, 10, 0);
    cl.run_until_idle();
    cl.crash(P1);
    cl.clear_filter();

    while cl.min_view() < View(2) {
        assert!(cl.fire_next_timer());
    }
    cl.run_until_idle();
    // Happy path is impossible (lbs diverge): either V1 or V2 ran.
    assert!(
        cl.notes()
            .iter()
            .any(|(_, n)| matches!(n, Note::UnhappyPathVc { .. })),
        "expected an unhappy-path view change"
    );
    // The pipeline resumes and commits new blocks.
    cl.submit_to(P2, 20, 0);
    cl.run_until_idle();
    for _ in 0..8 {
        cl.fire_next_timer();
        cl.run_until_idle();
    }
    cl.assert_consistent();
    assert!(cl.committed_height(P0) > committed_before);
    assert!(cl.total_committed_txs(P0) >= 60);
}

/// The happy path also works in chained mode (unanimous lb after a
/// clean crash).
#[test]
fn chained_marlin_happy_view_change() {
    let mut cl = Cluster::new(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), 13);
    cl.submit_to(P1, 20, 0);
    cl.run_until_idle();
    while cl.total_committed_txs(P0) < 20 {
        assert!(cl.fire_next_timer());
        cl.run_until_idle();
    }
    cl.crash(P1);
    while cl.min_view() < View(2) {
        assert!(cl.fire_next_timer());
    }
    cl.run_until_idle();
    assert!(cl
        .notes()
        .iter()
        .any(|(_, n)| matches!(n, Note::HappyPathVc { view: View(2) })));
    cl.submit_to(P2, 20, 0);
    cl.run_until_idle();
    for _ in 0..8 {
        cl.fire_next_timer();
        cl.run_until_idle();
    }
    cl.assert_consistent();
    assert_eq!(cl.total_committed_txs(P0), 40);
}
