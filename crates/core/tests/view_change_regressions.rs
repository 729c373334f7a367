//! Regression tests for Byzantine-wedgeable view-change edge cases.
//!
//! Each test reconstructs the exact adversarial snapshot that used to
//! wedge (or mislead) the leader, and fails against the pre-fix code.
//! Both run for basic and for chained Marlin — one view change, two
//! phase ladders (the chained leader used to carry its own copy, which
//! had missed the second fix):
//!
//! * a Case R2 lock attachment must *resolve the round's virtual
//!   candidate* — the leader used to latch whichever valid `prepareQC`
//!   arrived first, letting a Byzantine voter poison the
//!   `Justify::Two` pair with an unrelated QC;
//! * the happy path over a unanimous *virtual* `lb` must fall back to
//!   the unhappy pre-prepare when no view-change message carries the
//!   resolving `vc` — the leader used to propose a block whose virtual
//!   parent no replica could ever resolve;
//! * the leader's decision must not depend on the order its quorum
//!   arrived in — the chained leader used to read it in `HashMap`
//!   order and, when an unpaired virtual `pre-prepareQC` came first,
//!   extend that instead of the honest `(pre-prepareQC, vc)` pair.

mod support;

use marlin_core::harness::build_protocol;
use marlin_core::{Action, Config, Event, Note, ProtocolKind, VcCase};
use marlin_crypto::QcFormat;
use marlin_types::codec::encode_message;
use marlin_types::{
    Batch, Block, BlockId, BlockMeta, Height, Justify, Message, MsgBody, Phase, Qc, QcSeed,
    ReplicaId, View, ViewChange, Vote,
};
use support::{assert_safe, instant, min_view, submit};

const P0: ReplicaId = ReplicaId(0);
const P1: ReplicaId = ReplicaId(1);
const P2: ReplicaId = ReplicaId(2);
const P3: ReplicaId = ReplicaId(3);

/// Every protocol whose view change is Marlin's.
const MARLIN_VIEW_CHANGE: [ProtocolKind; 2] = [ProtocolKind::Marlin, ProtocolKind::ChainedMarlin];

/// Signs a quorum certificate over `seed` with the first three keys.
fn craft_qc(cfg: &Config, seed: QcSeed) -> Qc {
    let partials: Vec<_> = (0..3)
        .map(|i| cfg.keys.signer(i).sign_partial(&seed.signing_bytes()))
        .collect();
    Qc::combine(seed, &partials, &cfg.keys, QcFormat::Threshold).expect("quorum of signers")
}

/// A Byzantine voter attaches a *valid but unrelated* `prepareQC` to
/// its Case R2 pre-prepare vote, before the genuine resolving `vc`
/// arrives. The leader must reject the decoy (it does not certify the
/// virtual candidate's parent slot) and accept the later matching
/// attachment; latching the decoy would pair the virtual
/// `pre-prepareQC` with a QC every honest replica rejects, wedging the
/// view.
#[test]
fn r2_lock_attachment_must_resolve_the_virtual_candidate() {
    for kind in MARLIN_VIEW_CHANGE {
        r2_lock_attachment_must_resolve(kind);
    }
}

fn r2_lock_attachment_must_resolve(kind: ProtocolKind) {
    let cfg = Config::for_test(4, 1);
    // p1 is the Byzantine replica: the crafted blocks and its decoy
    // attachment are forged in its name.
    let (mut sim, ledger, inv) = instant(kind, cfg.clone(), &[P1]);
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    let b_old = ledger.blocks(P0).last().expect("committed").clone();
    let h = b_old.height();

    // ---- Craft the aftermath of a contested view 2. ----
    // `contested` earned a prepareQC in view 2; `ghost` extends it and
    // is the victim's last-voted block (its prepareQC over `ghost` is
    // the lock an R2 voter would attach).
    let qc_old = craft_qc(&cfg, b_old.vote_seed(Phase::Prepare, View(1)));
    let contested = Block::new_normal(
        b_old.id(),
        b_old.view(),
        View(2),
        h.next(),
        Batch::empty(),
        Justify::One(qc_old),
    );
    let vc_contested = craft_qc(&cfg, contested.vote_seed(Phase::Prepare, View(2)));
    let ghost = Block::new_normal(
        contested.id(),
        View(2),
        View(2),
        h.plus(2),
        Batch::empty(),
        Justify::One(vc_contested),
    );
    let vc_ghost = craft_qc(&cfg, ghost.vote_seed(Phase::Prepare, View(2)));

    // The view-3 leader's Case V1 candidates, reconstructed exactly as
    // `run_pre_prepare` will build them (empty batch: nothing is in
    // p3's mempool).
    let b1 = Block::new_normal(
        contested.id(),
        View(2),
        View(3),
        h.plus(2),
        Batch::empty(),
        Justify::One(vc_contested),
    );
    let b2 = Block::new_virtual(
        View(2),
        View(3),
        h.plus(3),
        Batch::empty(),
        Justify::One(vc_contested),
    );

    // Hand every live replica the crafted blocks (as if block sync ran).
    for block in [&contested, &ghost] {
        for to in [P0, P2, P3] {
            sim.inject(
                to,
                Event::Message(Message::new(
                    P1,
                    View(1),
                    MsgBody::FetchResponse {
                        block: block.clone(),
                        virtual_parent: None,
                    },
                )),
            );
        }
    }

    // ---- Drive everyone to view 3 with no view-2 progress. ----
    sim.crash(P1);
    // Drop view-2 traffic, every real VIEW-CHANGE (the crafted snapshot
    // replaces them), and all pre-prepare votes for the *normal* view-3
    // candidate — so the round must advance through the virtual one.
    let b1_id = b1.id();
    sim.set_filter(Box::new(move |_from, _to, msg: &Message| match &msg.body {
        MsgBody::Proposal(_) if msg.view == View(2) => false,
        MsgBody::ViewChange(_) if msg.view >= View(2) => false,
        MsgBody::Vote(v) if v.seed.phase == Phase::PrePrepare && v.seed.block == b1_id => false,
        _ => true,
    }));
    while min_view(&sim) < View(3) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();

    // ---- The crafted view-3 snapshot (injected from p3 replaces the
    // leader's own real VIEW-CHANGE in the round). ----
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
    sim.inject(
        P3,
        Event::Message(vc_msg(P3, Justify::One(vc_contested), &ghost)),
    );
    sim.inject(P3, Event::Message(vc_msg(P0, Justify::One(qc_old), &b_old)));
    sim.inject(P3, Event::Message(vc_msg(P2, Justify::One(qc_old), &b_old)));
    sim.run_until_idle();
    assert!(
        sim.notes().any(|(_, p, n)| p == P3
            && matches!(
                n,
                Note::UnhappyPathVc {
                    view: View(3),
                    case: VcCase::V1,
                }
            )),
        "{kind:?}: expected Case V1 in view 3"
    );

    // ---- The attack: a decoy attachment, then the genuine one. ----
    // `qc_old` is a perfectly valid prepareQC — it just certifies the
    // wrong slot (view 1, two heights below the virtual candidate's
    // parent). `vc_ghost` certifies exactly the parent slot.
    let seed_b2 = b2.vote_seed(Phase::PrePrepare, View(3));
    let r2_vote = |from: ReplicaId, attach: Qc| {
        Message::new(
            from,
            View(3),
            MsgBody::Vote(Vote {
                seed: seed_b2,
                parsig: cfg
                    .keys
                    .signer(from.index())
                    .sign_partial(&seed_b2.signing_bytes()),
                locked_qc: Some(attach),
            }),
        )
    };
    sim.inject(P3, Event::Message(r2_vote(P1, qc_old)));
    sim.inject(P3, Event::Message(r2_vote(P0, vc_ghost)));
    sim.run_until_idle();

    // The round advanced through the *virtual* candidate with the
    // correct pair: the contested chain (incl. the resolved virtual
    // block) is committed on every live replica.
    assert_safe(&inv);
    let chain: Vec<_> = ledger.blocks(P0).iter().map(Block::id).collect();
    assert!(
        chain.contains(&ghost.id()) && chain.contains(&b2.id()),
        "{kind:?}: virtual candidate never committed — the decoy attachment wedged the view"
    );

    // And the system keeps committing afterwards.
    sim.clear_filter();
    submit(&mut sim, P3, 10, 0);
    sim.run_until_idle();
    assert_safe(&inv);
    assert!(
        sim.committed_txs(P0) >= 20,
        "{kind:?}: no post-recovery progress"
    );
}

/// Every replica reports the same *virtual* last-voted block, but no
/// view-change message carries the `vc` that resolves its parent. The
/// happy path must be refused (extending an unresolvable virtual block
/// wedges the system); the leader falls back to the unhappy
/// pre-prepare and the cluster recovers.
#[test]
fn happy_path_requires_resolvable_virtual_lb() {
    for kind in MARLIN_VIEW_CHANGE {
        happy_path_requires_resolvable(kind);
    }
}

fn happy_path_requires_resolvable(kind: ProtocolKind) {
    let cfg = Config::for_test(4, 1);
    let (mut sim, ledger, inv) = instant(kind, cfg.clone(), &[]);
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    let b_old = ledger.blocks(P0).last().expect("committed").clone();
    let h = b_old.height();

    let qc_old = craft_qc(&cfg, b_old.vote_seed(Phase::Prepare, View(1)));
    // The unanimous virtual lb: a view-2 shadow block whose parent (the
    // contested view-1 slot at h+1) is certified by a `vc` that *no*
    // snapshot message carries.
    let virt = Block::new_virtual(
        b_old.view(),
        View(2),
        h.plus(2),
        Batch::empty(),
        Justify::One(qc_old),
    );

    sim.crash(P1);
    sim.set_filter(Box::new(|_from, _to, msg: &Message| {
        !matches!(&msg.body,
            MsgBody::Proposal(_) if msg.view == View(2))
            && !matches!(&msg.body,
                MsgBody::ViewChange(_) if msg.view >= View(2))
    }));
    while min_view(&sim) < View(3) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();

    // Unanimous virtual lb with *valid* happy-path signatures — the
    // happy path is cryptographically available, just unsafe.
    let happy = ViewChange::happy_seed(&virt.meta(), View(3));
    let vc_msg = |from: ReplicaId| {
        Message::new(
            from,
            View(3),
            MsgBody::ViewChange(ViewChange {
                last_voted: virt.meta(),
                high_qc: Justify::One(qc_old),
                parsig: cfg
                    .keys
                    .signer(from.index())
                    .sign_partial(&happy.signing_bytes()),
                cert: None,
            }),
        )
    };
    sim.inject(P3, Event::Message(vc_msg(P3)));
    sim.inject(P3, Event::Message(vc_msg(P0)));
    sim.inject(P3, Event::Message(vc_msg(P2)));
    sim.run_until_idle();

    // The leader refused the happy path and ran the unhappy pre-prepare.
    assert!(
        !sim.notes()
            .any(|(_, p, n)| p == P3 && matches!(n, Note::HappyPathVc { view: View(3) })),
        "{kind:?}: leader took the happy path over an unresolvable virtual lb"
    );
    assert!(
        sim.notes()
            .any(|(_, p, n)| p == P3 && matches!(n, Note::UnhappyPathVc { view: View(3), .. })),
        "{kind:?}: leader never ran the unhappy pre-prepare fallback"
    );

    // The fallback recovered the system: new transactions commit.
    sim.clear_filter();
    submit(&mut sim, P3, 10, 0);
    sim.run_until_idle();
    assert_safe(&inv);
    assert!(
        sim.committed_txs(P0) >= 20,
        "{kind:?}: no progress after the virtual-lb view change"
    );
}

/// Two honest replicas report the `(pre-prepareQC, vc)` pair over a
/// virtual block; a third reports the same `pre-prepareQC` *unpaired*
/// — unusable, since nobody could resolve the virtual parent of a block
/// extending it. Whatever order the three arrive in, the leader must
/// broadcast the same bytes: one candidate extending the pair.
#[test]
fn leader_decision_ignores_arrival_order_and_unpaired_virtual_qcs() {
    for kind in MARLIN_VIEW_CHANGE {
        arrival_order_is_irrelevant(kind);
    }
}

fn arrival_order_is_irrelevant(kind: ProtocolKind) {
    let cfg = Config::for_test(4, 1);
    // The aftermath of an unhappy view 2: its virtual candidate (parent
    // slot: `contested`, certified in view 1 by `vc`) earned `pre`.
    let genesis = Qc::genesis(BlockId::GENESIS);
    let b_old = Block::new_normal(
        BlockId::GENESIS,
        View::GENESIS,
        View(1),
        Height(1),
        Batch::empty(),
        Justify::One(genesis),
    );
    let qc_old = craft_qc(&cfg, b_old.vote_seed(Phase::Prepare, View(1)));
    let contested = Block::new_normal(
        b_old.id(),
        View(1),
        View(1),
        Height(2),
        Batch::empty(),
        Justify::One(qc_old),
    );
    let vc = craft_qc(&cfg, contested.vote_seed(Phase::Prepare, View(1)));
    let virt = Block::new_virtual(
        View(1),
        View(2),
        Height(3),
        Batch::empty(),
        Justify::One(qc_old),
    );
    let pre = craft_qc(&cfg, virt.vote_seed(Phase::PrePrepare, View(2)));

    let report = |from: ReplicaId, high_qc: Justify, last_voted: BlockMeta| {
        Message::new(
            from,
            View(3),
            MsgBody::ViewChange(ViewChange {
                last_voted,
                high_qc,
                parsig: cfg.keys.signer(from.index()).sign_partial(b"unused"),
                cert: None,
            }),
        )
    };
    let quorum = [
        report(P0, Justify::Two(pre, vc), virt.meta()),
        report(P1, Justify::Two(pre, vc), virt.meta()),
        report(P2, Justify::One(pre), b_old.meta()),
    ];

    let mut proposals = Vec::new();
    for order in [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        // A fresh view-3 leader, stepped with `on_event` so its own
        // VIEW-CHANGE is not looped back: the quorum is exactly the
        // three reports, in this order.
        let mut leader = build_protocol(kind, cfg.with_id(P3));
        leader.on_event(Event::Start);
        leader.on_event(Event::Timeout { view: View(1) });
        leader.on_event(Event::Timeout { view: View(2) });
        assert_eq!(leader.current_view(), View(3));
        let mut broadcasts = Vec::new();
        for i in order {
            let out = leader.on_event(Event::Message(quorum[i].clone()));
            broadcasts.extend(out.actions.into_iter().filter_map(|a| match a {
                Action::Broadcast { message } => Some(message),
                _ => None,
            }));
        }
        let [message] = broadcasts.as_slice() else {
            panic!("{kind:?} {order:?}: expected one broadcast, got {broadcasts:?}");
        };
        let MsgBody::Proposal(p) = &message.body else {
            panic!("{kind:?} {order:?}: not a proposal: {message:?}");
        };
        assert_eq!(p.phase, Phase::PrePrepare, "{kind:?} {order:?}");
        let [candidate] = p.blocks.as_slice() else {
            panic!("{kind:?} {order:?}: expected one candidate: {:?}", p.blocks);
        };
        assert_eq!(
            *candidate.justify(),
            Justify::Two(pre, vc),
            "{kind:?} {order:?}: the leader extended the unpaired virtual pre-prepareQC"
        );
        assert_eq!(candidate.parent_id(), Some(virt.id()), "{kind:?} {order:?}");
        proposals.push(encode_message(message, false));
    }
    assert!(
        proposals.windows(2).all(|w| w[0] == w[1]),
        "{kind:?}: the PRE-PREPARE proposal depends on VIEW-CHANGE arrival order"
    );
}
