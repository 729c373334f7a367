//! The paper's "half-baked attempt" (Section IV-D), implemented as an
//! ablation: Marlin's replica-voted pre-prepare phase **without virtual
//! blocks** — as a rule set over the shared [`Replica`] skeleton.
//!
//! The new leader broadcasts a single pre-prepare proposal extending its
//! highest `prepareQC`. A replica locked on a *higher* `prepareQC`
//! cannot vote; instead it NACKs with that QC, and the leader restarts
//! the pre-prepare phase extending it (the paper's "Case 2"). Because a
//! `pre-prepareQC` may therefore fail to form on the first try, the
//! block that finally emerges must commit through **three** more phases
//! (prepare → pre-commit → commit) to stay live across successive view
//! changes — a four-phase view change in total.
//!
//! The paper rejects this design: it is linear, but its view change is
//! *slower than HotStuff's*. Marlin's virtual block removes the wasted
//! round: the leader proposes both possible futures at once, and two of
//! the four phases disappear. This module exists so the claim can be
//! measured (`eval -- ablate-four-phase`); its normal case is identical
//! to Marlin's.

use crate::events::{Action, Note, StepOutput, VcCase};
use crate::replica::{child_of, extends, Adopt, Core, Next, Replica, Rules};
use marlin_types::rank::{qc_rank_cmp, qc_rank_ge};
use marlin_types::{
    Block, BlockId, Justify, Phase, Proposal, Qc, ReplicaId, View, ViewChange, Vote,
};
use std::cmp::Ordering;

/// A replica running the four-phase ablation protocol.
pub type MarlinFourPhase = Replica<FourPhaseRules>;

/// The four-phase ablation's rule set.
#[derive(Clone, Debug)]
pub struct FourPhaseRules;

/// Per-view leader state for the NACK-and-restart pre-prepare phase.
#[derive(Clone, Debug, Default)]
pub struct NackRound {
    /// The block currently proposed in pre-prepare.
    candidate: Option<BlockId>,
    /// Set once a pre-prepareQC formed and the leader moved on; the
    /// candidate is then the in-flight *recovery block*.
    advanced: bool,
}

/// View-change pre-prepare proposal extending `qc`.
fn propose_pre_prepare(core: &mut Core<NackRound>, qc: Qc, out: &mut StepOutput) {
    let view = core.base.cview;
    let batch = core.base.take_batch();
    let block = child_of(&qc, view, batch, Justify::One(qc));
    core.base.store_block(&block);
    core.round_mut(view).ext.candidate = Some(block.id());
    out.actions.push(Action::Note(Note::Proposed {
        view,
        height: block.height(),
        phase: Phase::PrePrepare,
    }));
    core.broadcast_proposal(
        Proposal {
            phase: Phase::PrePrepare,
            blocks: vec![block],
            justify: Justify::One(qc),
            vc_proof: Vec::new(),
        },
        out,
    );
}

impl Rules for FourPhaseRules {
    type Round = NackRound;

    const NAME: &'static str = "marlin-four-phase";

    fn vote_rule(
        core: &mut Core<NackRound>,
        view: View,
        block: &Block,
        p: &Proposal,
    ) -> Option<Adopt> {
        let Justify::One(qc) = p.justify else {
            return None;
        };
        if !core.base.crypto.verify_qc(&qc) {
            return None;
        }
        let ranks = qc_rank_ge(&qc, core.locked_qc.as_ref());
        match qc.phase() {
            // Normal case (Marlin N1).
            Phase::Prepare => {
                (extends(block, &qc) && (qc.is_genesis() || qc.view() == view) && ranks)
                    .then_some(Adopt::Both)
            }
            // Recovery case: the fresh pre-prepareQC certifies this
            // very block.
            Phase::PrePrepare => {
                (block.id() == qc.block() && qc.view() == view && ranks).then_some(Adopt::Nothing)
            }
            _ => None,
        }
    }

    /// `PRE-COMMIT` (recovery path) carries the `prepareQC`; `COMMIT`
    /// carries a `prepareQC` (short path) or `precommitQC` (recovery
    /// path).
    fn broadcast_rule(broadcast: Phase, carried: Phase) -> Option<Adopt> {
        match (broadcast, carried) {
            (Phase::PreCommit, Phase::Prepare) => Some(Adopt::High),
            (Phase::Commit, Phase::Prepare) => Some(Adopt::Both),
            (Phase::Commit, Phase::PreCommit) => Some(Adopt::Lock),
            _ => None,
        }
    }

    /// Recovery blocks take the long path (pre-commit); normal blocks
    /// go straight to commit.
    fn on_prepare_qc(core: &Core<NackRound>, _qc: &Qc, _out: &mut StepOutput) -> Option<Phase> {
        let recovering = core
            .rounds
            .get(&core.base.cview)
            .is_some_and(|r| r.ext.advanced && r.ext.candidate == core.in_flight);
        Some(if recovering {
            Phase::PreCommit
        } else {
            Phase::Commit
        })
    }

    /// Pre-prepare the highest reported `prepareQC`.
    fn on_new_view(
        core: &mut Core<NackRound>,
        view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        out: &mut StepOutput,
    ) -> Next {
        if let Some(qc) = core.adopt_highest_reported(&msgs, true) {
            out.actions.push(Action::Note(Note::UnhappyPathVc {
                view,
                case: VcCase::V2,
            }));
            propose_pre_prepare(core, qc, out);
        }
        Next::Idle
    }

    /// Replica: vote for the pre-prepare candidate, or NACK with a
    /// higher lock.
    fn on_pre_prepare(
        core: &mut Core<NackRound>,
        from: ReplicaId,
        view: View,
        p: Proposal,
        out: &mut StepOutput,
    ) {
        if from != core.cfg().leader_of(view) || p.blocks.len() != 1 {
            return;
        }
        let block = &p.blocks[0];
        let Justify::One(qc) = p.justify else { return };
        let structural = block.view() == view
            && qc.phase() == Phase::Prepare
            && qc.view() < view
            && extends(block, &qc)
            && core.base.crypto.verify_qc(&qc);
        if !structural {
            return;
        }
        let seed = block.vote_seed(Phase::PrePrepare, view);
        // "Yes" contributes to the pre-prepareQC; a NACK reports the
        // higher prepareQC so the leader restarts.
        let yes = qc_rank_ge(&qc, core.locked_qc.as_ref());
        let nack = core.locked_qc.filter(|_| !yes);
        if !core.cast_pre_prepare_vote(from, seed, nack, out) {
            return;
        }
        if yes {
            core.base.store_block(block);
        }
        core.base.progress_timer(out);
    }

    /// Leader: a NACK restarts the pre-prepare phase from the higher QC
    /// ("Case 2" of the half-baked design); a quorum of yes-votes forms
    /// the pre-prepareQC and starts the recovery block's long ladder.
    fn on_pre_prepare_vote(core: &mut Core<NackRound>, v: Vote, out: &mut StepOutput) -> Next {
        let view = core.base.cview;
        if !core.cfg().is_leader(view) {
            return Next::Idle;
        }
        if let Some(higher) = v.locked_qc {
            let restart = !core.round_mut(view).ext.advanced
                && higher.phase() == Phase::Prepare
                && core
                    .high_qc
                    .qc()
                    .is_none_or(|cur| qc_rank_cmp(&higher, cur) == Ordering::Greater)
                && core.base.crypto.verify_qc(&higher);
            if restart {
                core.raise_high(&higher);
                core.votes.clear();
                propose_pre_prepare(core, higher, out);
                return Next::Idle;
            }
        }
        let round = &core.round_mut(view).ext;
        if round.advanced || round.candidate != Some(v.seed.block) {
            return Next::Idle;
        }
        let Some(qc) = core.add_vote(&v, out) else {
            return Next::Idle;
        };
        core.round_mut(view).ext.advanced = true;
        core.in_flight = Some(qc.block());
        let Some(block) = core.base.store.get(&qc.block()).cloned() else {
            return Next::Idle;
        };
        core.broadcast_proposal(
            Proposal {
                phase: Phase::Prepare,
                blocks: vec![block],
                justify: Justify::One(qc),
                vc_proof: Vec::new(),
            },
            out,
        );
        Next::Idle
    }
}
