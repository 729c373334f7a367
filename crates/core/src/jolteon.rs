//! A Jolteon/Fast-HotStuff-style baseline: a **two-phase normal case**
//! bought with a **quadratic view change** — as a rule set over the
//! shared [`Replica`] skeleton.
//!
//! The normal case matches Marlin's (prepare + commit, replicas lock on
//! the `prepareQC`). The view change is PBFT-like: each replica's
//! `VIEW-CHANGE` additionally carries a conventional signature over its
//! `highQC` claim ([`marlin_types::VcCert`]); the new leader bundles
//! `n − f` such certificates into its first proposal as *proof* that it
//! extended the highest QC of a quorum. Every replica verifies the whole
//! bundle — `O(n)` signatures per replica, `O(n²)` across the system —
//! which is exactly the cost Table I attributes to Jolteon and
//! Fast-HotStuff, and what Marlin's replica-voted pre-prepare phase
//! removes.

use crate::events::StepOutput;
use crate::replica::{extends, Adopt, Core, Next, Replica, Rules};
use marlin_crypto::Signature;
use marlin_types::rank::{qc_rank_cmp, qc_rank_ge};
use marlin_types::{Block, Justify, Phase, Proposal, Qc, ReplicaId, VcCert, View, ViewChange};
use std::cmp::Ordering;

/// A replica running the Jolteon-style baseline.
pub type Jolteon = Replica<JolteonRules>;

/// The Jolteon-style rule set.
#[derive(Clone, Debug)]
pub struct JolteonRules;

/// Per-view leader state: the quadratic proof the view's first
/// proposal must carry, once the new-view decision assembled it.
#[derive(Clone, Debug, Default)]
pub struct ProofRound {
    proof: Option<Vec<VcCert>>,
}

/// Verifies a quadratic new-view proof: `n − f` valid certificates
/// from distinct replicas, none claiming a QC above `qc`.
fn verify_vc_proof(core: &mut Core<ProofRound>, view: View, qc: &Qc, proof: &[VcCert]) -> bool {
    let mut seen = std::collections::HashSet::new();
    let mut valid = 0usize;
    for cert in proof {
        if !seen.insert(cert.from) {
            continue;
        }
        if !core.base.crypto.verify_vc_cert(view, cert) {
            continue;
        }
        if qc_rank_cmp(&cert.high_qc, qc) == Ordering::Greater {
            return false; // the leader ignored a higher QC
        }
        valid += 1;
    }
    valid >= core.cfg().quorum()
}

impl Rules for JolteonRules {
    type Round = ProofRound;

    const NAME: &'static str = "jolteon";

    fn vote_rule(
        core: &mut Core<ProofRound>,
        view: View,
        block: &Block,
        p: &Proposal,
    ) -> Option<Adopt> {
        let Justify::One(qc) = p.justify else {
            return None;
        };
        let structural =
            qc.phase() == Phase::Prepare && extends(block, &qc) && core.base.crypto.verify_qc(&qc);
        if !structural {
            return None;
        }
        // Within a view the justify is the in-view chain: the lock rank
        // check suffices. Across a view change the leader must present a
        // quorum's certificates proving qc is the highest of a quorum —
        // which unlocks any replica (the PBFT-style rule); verifying the
        // bundle is the O(n) per-replica / O(n²) total cost.
        let safe = if qc.is_genesis() || qc.view() == view {
            qc_rank_ge(&qc, core.locked_qc.as_ref())
        } else {
            verify_vc_proof(core, view, &qc, &p.vc_proof)
        };
        safe.then_some(Adopt::Both)
    }

    fn broadcast_rule(broadcast: Phase, carried: Phase) -> Option<Adopt> {
        (broadcast == Phase::Commit && carried == Phase::Prepare).then_some(Adopt::Both)
    }

    /// The quadratic-proof certificate: a conventional signature over
    /// our `highQC` claim for the target view.
    fn view_change_cert(core: &mut Core<ProofRound>, target: View) -> Option<Signature> {
        let high_qc = *core.high_qc.qc()?;
        let cert_bytes = VcCert::signing_bytes(core.cfg().id, target, &high_qc);
        Some(core.base.crypto.sign_bytes(&cert_bytes))
    }

    /// Only certificate-carrying messages are usable in the proof.
    fn usable_view_change(vc: &ViewChange) -> bool {
        vc.cert.is_some()
    }

    /// Bundle the quorum's certificates (in sender order) and extend
    /// the highest certified QC.
    fn on_new_view(
        core: &mut Core<ProofRound>,
        view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        _out: &mut StepOutput,
    ) -> Next {
        let mut certs = Vec::with_capacity(msgs.len());
        let mut best: Option<Qc> = None;
        for (sender, m) in &msgs {
            let (Some(qc), Some(sig)) = (m.high_qc.qc(), m.cert) else {
                continue;
            };
            let cert = VcCert {
                from: *sender,
                high_qc: *qc,
                sig,
            };
            if !core.base.crypto.verify_vc_cert(view, &cert) {
                continue;
            }
            if best
                .as_ref()
                .is_none_or(|b| qc_rank_cmp(qc, b) == Ordering::Greater)
            {
                best = Some(*qc);
            }
            certs.push(cert);
        }
        let Some(qc) = best.filter(|_| certs.len() >= core.cfg().quorum()) else {
            return Next::Idle;
        };
        core.raise_high(&qc);
        core.round_mut(view).ext.proof = Some(certs);
        Next::Propose
    }

    /// A cross-view justify needs the quadratic proof, which only
    /// exists once the new-view decision has been made; the view's
    /// first proposal carries it.
    fn proposal_licence(
        core: &mut Core<ProofRound>,
        view: View,
        fresh: bool,
    ) -> Option<Vec<VcCert>> {
        let proof = core.rounds.get_mut(&view).and_then(|r| r.ext.proof.take());
        (fresh || proof.is_some()).then(|| proof.unwrap_or_default())
    }
}
