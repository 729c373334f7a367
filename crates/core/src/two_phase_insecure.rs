//! The **insecure** two-phase HotStuff strawman of Section IV-B — as a
//! rule set over the shared [`Replica`] skeleton.
//!
//! Identical to Marlin's normal case (two phases, replicas lock on the
//! `prepareQC` they receive), but its view change simply lets the new
//! leader extend the highest `prepareQC` it collected — with no
//! pre-prepare phase, no happy path, and no way to unlock a replica
//! locked on a QC the leader never saw.
//!
//! As Figure 2b of the paper shows, an *unsafe view-change snapshot*
//! (one missing the most recent `prepareQC`) then leaves a locked
//! replica permanently rejecting the leader's proposals, killing
//! liveness. This module exists so the workspace's tests can reproduce
//! that failure (`figure2b_insecure_two_phase_stalls`) and demonstrate
//! what Marlin fixes. **Never use it for anything but demonstrations.**

use crate::events::StepOutput;
use crate::hotstuff::{licence_after_decision, safe_node};
use crate::replica::{Adopt, Core, Next, Replica, Rules};
use marlin_types::{Block, Phase, Proposal, ReplicaId, VcCert, View, ViewChange};

/// A replica running the insecure two-phase strawman.
pub type TwoPhaseInsecure = Replica<TwoPhaseInsecureRules>;

/// The strawman's rule set.
#[derive(Clone, Debug)]
pub struct TwoPhaseInsecureRules;

impl Rules for TwoPhaseInsecureRules {
    type Round = ();

    const NAME: &'static str = "two-phase-insecure";

    /// The insecure rule: extend any prepareQC whose rank is at least
    /// the local lock — the leader need not prove its snapshot is
    /// safe, and a replica locked higher simply refuses.
    fn vote_rule(core: &mut Core<()>, _view: View, block: &Block, p: &Proposal) -> Option<Adopt> {
        safe_node(core, block, p).then_some(Adopt::Both)
    }

    fn broadcast_rule(broadcast: Phase, carried: Phase) -> Option<Adopt> {
        (broadcast == Phase::Commit && carried == Phase::Prepare).then_some(Adopt::Both)
    }

    /// Pick the highest QC in the snapshot — which may miss the most
    /// recent one (the unsafe-snapshot flaw).
    fn on_new_view(
        core: &mut Core<()>,
        _view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        _out: &mut StepOutput,
    ) -> Next {
        match core.adopt_highest_reported(&msgs, false) {
            Some(_) => Next::Propose,
            None => Next::Idle,
        }
    }

    fn proposal_licence(core: &mut Core<()>, view: View, fresh: bool) -> Option<Vec<VcCert>> {
        licence_after_decision(core, view, fresh)
    }
}
