//! The protocol family, table-driven: one schedule per behaviour,
//! parameterised by [`ProtocolKind`], asserting what the seven rule
//! sets over the shared replica skeleton have in common and the few
//! things they may differ in (phase ladder, commit rule, view-change
//! shape, how a replica locked on a hidden QC is unlocked, which
//! certificate commits).
//!
//! That the leader's view-change decision is handed its quorum in
//! sender order is pinned on the wire for Jolteon here
//! (`leader_crash_view_change_recovers`) and for basic and chained
//! Marlin by `view_change_regressions.rs`
//! (`leader_decision_ignores_arrival_order_and_unpaired_virtual_qcs`).

mod support;

use marlin_core::harness::build_protocol;
use marlin_core::{
    build_replica, Action, Config, Event, Note, Protocol, ProtocolKind, SafetyJournal, StepOutput,
};
use marlin_crypto::QcFormat;
use marlin_simnet::{SimConfig, SimNet};
use marlin_storage::SharedDisk;
use marlin_telemetry::{Invariants, SharedSink, ViewChanges};
use marlin_types::{
    Batch, Block, BlockId, Decide, Height, Justify, Message, MsgBody, Phase, Proposal, Qc,
    ReplicaId, VcCert, View, ViewChange, Vote,
};
use std::sync::{Arc, Mutex};
use support::{assert_safe, instant, min_view, submit, Ledger, KINDS};

const P0: ReplicaId = ReplicaId(0);
const P1: ReplicaId = ReplicaId(1);
const P2: ReplicaId = ReplicaId(2);
const P3: ReplicaId = ReplicaId(3);

/// The non-chained rule sets: every block climbs its own phase ladder.
const LADDERED: [ProtocolKind; 5] = [
    ProtocolKind::Marlin,
    ProtocolKind::HotStuff,
    ProtocolKind::Jolteon,
    ProtocolKind::TwoPhaseInsecure,
    ProtocolKind::MarlinFourPhase,
];

/// The chained rule sets, with the depth of their k-chain commit rule.
const CHAINED: [(ProtocolKind, usize); 2] = [
    (ProtocolKind::ChainedMarlin, 2),
    (ProtocolKind::ChainedHotStuff, 3),
];

fn cluster(
    kind: ProtocolKind,
    byzantine: &[ReplicaId],
) -> (SimNet, Ledger, SharedSink<Invariants>) {
    instant(kind, Config::for_test(4, 1), byzantine)
}

/// A started cluster observed by a traffic meter whose one window,
/// marked once start-up traffic is drained, counts every copy sent
/// from here on.
fn metered(kind: ProtocolKind) -> (SimNet, SharedSink<ViewChanges>) {
    let meter = SharedSink::new(ViewChanges::new());
    let config = Config::for_test(4, 1);
    let mut sim = SimNet::new(kind, config, SimConfig::instant(), meter.clone());
    sim.run_until_idle();
    meter.with(ViewChanges::mark);
    (sim, meter)
}

/// Message copies the meter counted (its one window).
fn sent(meter: &SharedSink<ViewChanges>) -> u64 {
    meter.with(|meter| {
        let windows = meter.windows();
        assert_eq!(windows.len(), 1, "no view change on the normal path");
        windows[0].traffic.total().messages
    })
}

/// Phases of the QCs `leader` formed, optionally restricted to `view`.
fn qc_phases(sim: &SimNet, leader: ReplicaId, in_view: Option<View>) -> Vec<Phase> {
    sim.notes()
        .filter_map(|(_, p, n)| match n {
            Note::QcFormed { phase, view, .. }
                if p == leader && in_view.is_none_or(|v| v == *view) =>
            {
                Some(*phase)
            }
            _ => None,
        })
        .collect()
}

#[test]
fn normal_case_commits() {
    for kind in KINDS {
        let (mut sim, _, inv) = cluster(kind, &[]);
        submit(&mut sim, P1, 40, 150);
        sim.run_until_idle();
        assert_safe(&inv);
        assert_eq!(sim.committed_txs(P0), 40, "{kind:?}");
    }
}

#[test]
fn phases_per_block() {
    // HotStuff forms Prepare, PreCommit and Commit QCs for every block;
    // the rest of the family commits in two phases. A chained leader
    // forms one QC per block and reports the later phase points it
    // represents for the ancestors: the same two or three phases.
    for kind in KINDS {
        let (mut sim, _, _) = cluster(kind, &[]);
        submit(&mut sim, P1, 5, 0);
        sim.run_until_idle();
        let phases = qc_phases(&sim, P1, None);
        assert!(phases.contains(&Phase::Prepare), "{kind:?}");
        assert!(phases.contains(&Phase::Commit), "{kind:?}");
        assert_eq!(
            phases.contains(&Phase::PreCommit),
            matches!(kind, ProtocolKind::HotStuff | ProtocolKind::ChainedHotStuff),
            "{kind:?}: {phases:?}"
        );
        assert!(!phases.contains(&Phase::PrePrepare), "{kind:?}");
    }
}

#[test]
fn messages_per_block_differ_only_by_the_extra_round() {
    // What the rule sets may differ in on the failure-free path, pinned:
    // at n = 4 a two-phase block costs 2 × (broadcast + votes) + decide
    // = 15 message copies (the perf ledger's `core.msgs_per_block`),
    // and HotStuff's third phase adds exactly one broadcast + vote
    // round: 21 (`twin.hotstuff.msgs_per_block`). Copies are counted
    // per destination, self excluded.
    for kind in LADDERED {
        let (mut sim, meter) = metered(kind);
        let before = sim.committed_blocks(P0);
        for _ in 0..5 {
            submit(&mut sim, P1, 10, 150);
            sim.run_until_idle();
        }
        let blocks = sim.committed_blocks(P0) - before;
        assert!(blocks >= 5, "{kind:?}");
        let expected = if kind == ProtocolKind::HotStuff {
            21
        } else {
            15
        };
        assert_eq!(sent(&meter), expected * blocks, "{kind:?}");
    }
}

#[test]
fn chained_rounds_are_one_broadcast_and_commit_k_rounds_late() {
    // The pipelined normal case, pinned: every block costs exactly one
    // broadcast and one vote round (2 × 3 copies at n = 4, self-copies
    // excluded), and a block commits at the replicas once the k-th
    // proposal after it arrives (its justify completes the k-chain) —
    // the leader closes its own tail, so the last k rounds are empty.
    for (kind, depth) in CHAINED {
        let (mut sim, meter) = metered(kind);
        let proposed = |sim: &SimNet| {
            sim.notes()
                .filter(|(_, _, n)| matches!(n, Note::Proposed { .. }))
                .count()
        };
        let (rounds_before, committed_before) = (proposed(&sim), sim.committed_blocks(P0));
        submit(&mut sim, P1, 10, 150);
        sim.run_until_idle();
        assert_eq!(sim.committed_txs(P0), 10, "{kind:?}");
        let rounds = proposed(&sim) - rounds_before;
        assert_eq!(rounds, 1 + depth, "{kind:?}: payload block + tail");
        assert_eq!(sent(&meter), 6 * rounds as u64, "{kind:?}");
        // Everything up to the payload block is committed; the `depth`
        // tail blocks behind it are certified, not committed.
        let all_rounds = proposed(&sim);
        assert_eq!(
            sim.committed_blocks(P0),
            (all_rounds - depth) as u64,
            "{kind:?}"
        );
        assert!(sim.committed_blocks(P0) > committed_before, "{kind:?}");
    }
}

#[test]
fn leader_crash_view_change_recovers() {
    for kind in KINDS {
        let (mut sim, _, inv) = cluster(kind, &[]);
        // Every transmitted new-view PREPARE proposal's proof bundle.
        let proofs: Arc<Mutex<Vec<Vec<VcCert>>>> = Arc::default();
        let seen = Arc::clone(&proofs);
        sim.set_filter(Box::new(move |_from, _to, msg: &Message| {
            if let MsgBody::Proposal(p) = &msg.body {
                if p.phase == Phase::Prepare && !p.vc_proof.is_empty() {
                    seen.lock().unwrap().push(p.vc_proof.clone());
                }
            }
            true
        }));
        submit(&mut sim, P1, 10, 0);
        sim.run_until_idle();
        sim.crash(P1);
        while min_view(&sim) < View(2) {
            assert!(sim.fire_next_timer());
        }
        sim.run_until_idle();

        let vc_phases = qc_phases(&sim, P2, Some(View(2)));
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
        submit(&mut sim, P2, 10, 0);
        sim.run_until_idle();
        assert_safe(&inv);
        assert_eq!(sim.committed_txs(P0), 20, "{kind:?}");
    }
}

/// A certificate of `phase` for `block`, formed in view 1 by the first
/// three replicas.
fn craft_qc(cfg: &Config, block: &Block, phase: Phase) -> Qc {
    let seed = block.vote_seed(phase, View(1));
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
/// simulation, filters cleared, its ledger and checker, and the
/// contested height.
fn unsafe_snapshot(
    kind: ProtocolKind,
    hide: Hide,
    with_cert: bool,
) -> (SimNet, Ledger, SharedSink<Invariants>, u64) {
    // p1 is the Byzantine replica whose stale VIEW-CHANGE is forged.
    let (mut sim, ledger, inv) = cluster(kind, &[P1]);
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    let contested = sim.committed_blocks(P0) + 1;
    sim.set_filter(Box::new(move |_f, to, msg: &Message| {
        hide(contested, to, msg)
    }));
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    let stale_block = ledger.blocks(P0).last().expect("committed").clone();
    sim.crash(P1);
    sim.set_filter(Box::new(|from, _to, msg: &Message| {
        !(from == P0 && matches!(msg.body, MsgBody::ViewChange(_)))
    }));
    while min_view(&sim) < View(2) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    let cfg = Config::for_test(4, 1);
    let stale_qc = craft_qc(&cfg, &stale_block, Phase::Prepare);
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
    sim.inject(
        P2,
        Event::Message(Message::new(
            P1,
            View(2),
            MsgBody::ViewChange(ViewChange {
                last_voted: lb,
                high_qc: Justify::One(stale_qc),
                parsig,
                cert,
            }),
        )),
    );
    sim.clear_filter();
    sim.run_until_idle();
    (sim, ledger, inv, contested)
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
        let (mut sim, ledger, inv, contested) = unsafe_snapshot(kind, hide, with_cert);
        assert_safe(&inv);
        if kind == ProtocolKind::MarlinFourPhase {
            assert!(
                ledger.blocks(P0).iter().any(|b| b.height().0 == contested),
                "contested block not recovered; heights: {:?}",
                ledger
                    .blocks(P0)
                    .iter()
                    .map(|b| b.height().0)
                    .collect::<Vec<_>>()
            );
            assert_eq!(sim.committed_txs(P0), 20);
        }
        submit(&mut sim, P2, 10, 0);
        sim.run_until_idle();
        assert_safe(&inv);
        assert!(sim.committed_txs(P2) >= 20, "{kind:?}");
    }
}

// ------------------------------------------------ which QC commits --

/// The height-1 block the view-1 leader p1 would propose first.
fn first_block() -> Block {
    Block::new_normal(
        BlockId::GENESIS,
        View::GENESIS,
        View(1),
        Height(1),
        Batch::empty(),
        Justify::One(Qc::genesis(BlockId::GENESIS)),
    )
}

fn proposal(phase: Phase, blocks: Vec<Block>, justify: Justify) -> MsgBody {
    MsgBody::Proposal(Proposal {
        phase,
        blocks,
        justify,
        vc_proof: Vec::new(),
    })
}

/// A started replica `id` of `kind` that has voted for [`first_block`]
/// in view 1 (so the block is in its tree, uncommitted).
fn voter_holding_first_block(kind: ProtocolKind, cfg: &Config, id: ReplicaId) -> Box<dyn Protocol> {
    let block = first_block();
    let mut rep = build_protocol(kind, cfg.with_id(id));
    rep.on_event(Event::Start);
    let justify = *block.justify();
    let out = rep.on_event(Event::Message(Message::new(
        P1,
        View(1),
        proposal(Phase::Prepare, vec![block], justify),
    )));
    assert_eq!(votes(&out).len(), 1, "{kind:?}: no prepare vote");
    rep
}

fn votes(out: &StepOutput) -> Vec<&Vote> {
    out.actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { message, .. } => match &message.body {
                MsgBody::Vote(v) => Some(v),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// Whether the step committed, fetched or sent anything at all.
fn acted(out: &StepOutput) -> bool {
    out.actions
        .iter()
        .any(|a| !matches!(a, Action::Note(_) | Action::SetTimer { .. }))
}

#[test]
fn only_the_rule_sets_commit_certificate_commits() {
    // Exactly one QC phase commits per rule set: `Commit` on a ladder,
    // `Prepare` (the QC completing the k-chain — DESIGN.md §11.2's
    // "certification, not commitment" caveat) in a pipeline. Handed the
    // other one — validly signed, for a block it holds — a replica
    // commits nothing and asks for nothing; and a DECIDE is a
    // `commitQC` dissemination, which a pipeline never has.
    let cfg = Config::for_test(4, 1);
    let block = first_block();
    let prepare_qc = craft_qc(&cfg, &block, Phase::Prepare);
    let commit_qc = craft_qc(&cfg, &block, Phase::Commit);
    let serve = |qc: Qc| {
        let body = MsgBody::CatchUpResponse {
            commit_qc: Some(qc),
        };
        Event::Message(Message::new(P2, View(1), body))
    };
    let decide = |commit_qc: Qc| {
        let body = MsgBody::Decide(Decide { commit_qc });
        Event::Message(Message::new(P2, View(1), body))
    };
    for kind in KINDS {
        let chained = CHAINED.iter().any(|(k, _)| *k == kind);
        let (accepted, refused) = if chained {
            (prepare_qc, commit_qc)
        } else {
            (commit_qc, prepare_qc)
        };
        let mut rep = voter_holding_first_block(kind, &cfg, P0);
        for event in [serve(refused), decide(refused)] {
            let out = rep.on_event(event);
            assert!(!acted(&out), "{kind:?}: {:?}", out.actions);
        }
        if chained {
            let out = rep.on_event(decide(accepted));
            assert!(!acted(&out), "{kind:?} took a DECIDE: {:?}", out.actions);
        }
        assert_eq!(rep.store().last_committed(), BlockId::GENESIS, "{kind:?}");
        // The control: the rule set's own certificate does commit.
        let out = rep.on_event(serve(accepted));
        assert_eq!(out.committed_blocks().count(), 1, "{kind:?}");
        assert_eq!(rep.store().last_committed(), block.id(), "{kind:?}");
    }
}

#[test]
fn a_pipeline_has_no_rungs_above_prepare() {
    // One broadcast per round: a chained replica does not vote on
    // `PRE-COMMIT` / `COMMIT` broadcasts, and a chained leader does not
    // collect votes of those phases — not even a validly signed quorum
    // of them for its in-flight block.
    let cfg = Config::for_test(4, 1);
    let block = first_block();
    let prepare_qc = craft_qc(&cfg, &block, Phase::Prepare);
    for (kind, _) in CHAINED {
        let mut rep = voter_holding_first_block(kind, &cfg, P0);
        for phase in [Phase::PreCommit, Phase::Commit] {
            let body = proposal(phase, Vec::new(), Justify::One(prepare_qc));
            let out = rep.on_event(Event::Message(Message::new(P1, View(1), body)));
            assert!(out.actions.is_empty(), "{kind:?}: {:?}", out.actions);
        }

        // The leader: its start-up proposal is `first_block`, in flight.
        let mut leader = build_protocol(kind, cfg.with_id(P1));
        let out = leader.on_event(Event::Start);
        assert!(out.actions.iter().any(|a| matches!(
            a,
            Action::Broadcast { message }
                if matches!(&message.body, MsgBody::Proposal(p) if p.blocks[0].id() == block.id())
        )));
        for phase in [Phase::PreCommit, Phase::Commit, Phase::Prepare] {
            let seed = block.vote_seed(phase, View(1));
            let mut formed = Vec::new();
            for from in [P0, P2, P3] {
                let vote = Vote {
                    seed,
                    parsig: cfg
                        .keys
                        .signer(from.index())
                        .sign_partial(&seed.signing_bytes()),
                    locked_qc: None,
                };
                let msg = Message::new(from, View(1), MsgBody::Vote(vote));
                let out = leader.on_event(Event::Message(msg));
                formed.extend(out.notes().filter_map(|n| match n {
                    Note::QcFormed { phase, .. } => Some(*phase),
                    _ => None,
                }));
                assert!(
                    phase == Phase::Prepare || out.actions.is_empty(),
                    "{kind:?} acted on a {phase:?} vote: {:?}",
                    out.actions
                );
            }
            // The control: the same quorum of prepare votes certifies.
            let expected: &[Phase] = if phase == Phase::Prepare {
                &[Phase::Prepare]
            } else {
                &[]
            };
            assert_eq!(formed, expected, "{kind:?} {phase:?}");
        }
    }
}

// ------------------------------------------- write-ahead pre-prepare --

#[test]
fn four_phase_pre_prepare_vote_is_write_ahead() {
    // Every kind runs on a journal now, and no rule set can put a vote
    // on the wire around it: the four-phase pre-prepare vote goes
    // through the same view-durability check as Marlin's. The replica
    // enters view 1 while its disk tears (tolerated on view entry), so
    // the view is still not durable when the PRE-PREPARE arrives on a
    // disk that tears again: the vote is withheld, and goes out once
    // the disk has healed.
    let cfg = Config::for_test(4, 1);
    let disk = SharedDisk::new();
    let journal = SafetyJournal::open(disk.clone()).expect("fresh journal");
    let kind = ProtocolKind::MarlinFourPhase;
    let mut rep = build_replica(kind, cfg.with_id(P0), Some(journal), false, None);
    disk.tear_next_write_after(0);
    rep.on_event(Event::Start);

    let block = first_block();
    let justify = *block.justify();
    let pre_prepare = Message::new(
        P1,
        View(1),
        proposal(Phase::PrePrepare, vec![block], justify),
    );
    disk.tear_next_write_after(0);
    let out = rep.on_event(Event::Message(pre_prepare.clone()));
    assert!(votes(&out).is_empty(), "the vote outran the journal");
    let withheld: Vec<_> = out
        .notes()
        .filter(|n| matches!(n, Note::VoteWithheld { .. }))
        .collect();
    assert!(
        matches!(
            withheld[..],
            [Note::VoteWithheld {
                phase: Phase::PrePrepare
            }]
        ),
        "{withheld:?}"
    );

    let out = rep.on_event(Event::Message(pre_prepare));
    let sent = votes(&out);
    assert_eq!(sent.len(), 1, "abstention must be transient");
    assert_eq!(sent[0].seed.phase, Phase::PrePrepare);
}

// ------------------------------------------------ catch-up on recovery --

#[test]
fn every_kind_solicits_catch_up_on_recovery() {
    // Catch-up is the skeleton's: a replica of any rule set that
    // rejoins after a crash broadcasts one CATCH-UP request, and the
    // first response (here one with no newer commit to serve) closes
    // the round trip.
    let cfg = Config::for_test(4, 1);
    for kind in KINDS {
        let mut rep = build_replica(kind, cfg.with_id(P2), None, false, None);
        rep.on_event(Event::Start);
        let out = rep.on_event(Event::Recovered);
        let requested = out
            .notes()
            .filter(|n| matches!(n, Note::CatchUpRequested { .. }))
            .count();
        let requests = out
            .actions
            .iter()
            .filter(|a| {
                matches!(a, Action::Broadcast { message }
                    if matches!(message.body, MsgBody::CatchUpRequest { .. }))
            })
            .count();
        assert_eq!((requested, requests), (1, 1), "{kind:?}: {:?}", out.actions);

        let response = Message::new(P0, View(1), MsgBody::CatchUpResponse { commit_qc: None });
        let out = rep.on_event(Event::Message(response));
        assert!(
            out.notes()
                .any(|n| matches!(n, Note::CatchUpCompleted { .. })),
            "{kind:?}: {:?}",
            out.actions
        );
    }
}
