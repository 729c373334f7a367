//! Basic (non-chained) three-phase HotStuff (PODC 2019), the paper's
//! baseline — as a rule set over the shared [`Replica`] skeleton.
//!
//! Normal case per view/height: **prepare → pre-commit → commit**, each
//! phase one leader broadcast plus a quorum of votes combined into a
//! threshold QC, followed by a `commitQC` dissemination (`Decide`).
//! Replicas store the `prepareQC` when they receive it in the
//! `PRE-COMMIT` message (it becomes their `highQC` for view changes) and
//! become *locked* on the `precommitQC` carried by the `COMMIT`
//! message.
//!
//! View change: replicas send `NEW-VIEW` (here: [`ViewChange`]) carrying
//! their `prepareQC`; the new leader extends the highest one. A replica
//! accepts the new proposal under the standard *safeNode* predicate: the
//! justify QC ranks at least as high as its lock — sound here because a
//! three-phase lock guarantees `n − f` replicas hold the corresponding
//! `prepareQC`, so the leader's snapshot always contains it.

use crate::events::StepOutput;
use crate::replica::{extends, Adopt, Core, Next, Replica, Rules};
use marlin_types::rank::qc_rank_ge;
use marlin_types::{Block, Justify, Phase, Proposal, Qc, ReplicaId, VcCert, View, ViewChange};

/// A replica running basic HotStuff.
///
/// # Example
///
/// ```
/// use marlin_core::{Config, ProtocolKind};
/// use marlin_simnet::{SimConfig, SimNet};
///
/// let mut sim = SimNet::new(ProtocolKind::HotStuff, Config::for_test(4, 1), SimConfig::instant(), ());
/// sim.schedule_client_batch(1u32.into(), 0, 20, 0);
/// sim.run_until_idle();
/// assert_eq!(sim.committed_txs(0u32.into()), 20);
/// ```
pub type HotStuff = Replica<HotStuffRules>;

/// HotStuff's rule set.
#[derive(Clone, Debug)]
pub struct HotStuffRules;

/// The safeNode check shared by HotStuff and the insecure two-phase
/// strawman: a well-formed child of a `prepareQC` that ranks at least
/// as high as the lock.
pub(crate) fn safe_node(core: &mut Core<()>, block: &Block, p: &Proposal) -> bool {
    let Justify::One(qc) = p.justify else {
        return false;
    };
    qc.phase() == Phase::Prepare
        && extends(block, &qc)
        && qc_rank_ge(&qc, core.locked_qc.as_ref())
        && core.base.crypto.verify_qc(&qc)
}

/// The new-view gate shared by HotStuff and the strawman: a leader
/// extends a QC from an older view only after the new-view decision (a
/// premature proposal could miss a higher QC).
pub(crate) fn licence_after_decision(
    core: &Core<()>,
    view: View,
    fresh: bool,
) -> Option<Vec<VcCert>> {
    (fresh || core.rounds.get(&view).is_some_and(|r| r.decided)).then(Vec::new)
}

impl Rules for HotStuffRules {
    type Round = ();

    const NAME: &'static str = "hotstuff";

    /// safeNode; a prepare vote raises nothing.
    fn vote_rule(core: &mut Core<()>, _view: View, block: &Block, p: &Proposal) -> Option<Adopt> {
        safe_node(core, block, p).then_some(Adopt::Nothing)
    }

    /// `PRE-COMMIT` carries the `prepareQC` (recorded as `highQC`);
    /// `COMMIT` carries the `precommitQC` (the replica becomes locked).
    fn broadcast_rule(broadcast: Phase, carried: Phase) -> Option<Adopt> {
        match (broadcast, carried) {
            (Phase::PreCommit, Phase::Prepare) => Some(Adopt::High),
            (Phase::Commit, Phase::PreCommit) => Some(Adopt::Lock),
            _ => None,
        }
    }

    fn on_prepare_qc(_core: &Core<()>, _qc: &Qc, _out: &mut StepOutput) -> Option<Phase> {
        Some(Phase::PreCommit)
    }

    /// Extend the highest reported `prepareQC` (linear view change).
    fn on_new_view(
        core: &mut Core<()>,
        _view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        _out: &mut StepOutput,
    ) -> Next {
        match core.adopt_highest_reported(&msgs, true) {
            Some(_) => Next::Propose,
            None => Next::Idle,
        }
    }

    fn proposal_licence(core: &mut Core<()>, view: View, fresh: bool) -> Option<Vec<VcCert>> {
        licence_after_decision(core, view, fresh)
    }
}
