//! Chained (pipelined) Marlin and HotStuff — as rule sets over the
//! shared [`Replica`] skeleton.
//!
//! In chained mode every round has a single leader broadcast: the
//! proposal for block `b_k` carries the `prepareQC` for `b_{k-1}` as its
//! justify, so each certificate simultaneously serves as a phase of
//! several in-flight blocks ("Chained Marlin", Section V-C; the chained
//! HotStuff of the original paper). The phase ladder therefore has one
//! rung: a fresh `prepareQC` closes the round and the next proposal
//! carries it.
//!
//! Commit rules (same-view, consecutive-height chains, ancestors ride
//! along via the block tree):
//!
//! * **Chained Marlin** — a *two-chain*: when `b_k` is certified and its
//!   direct child `b_{k+1}` is certified, `b_k` commits. Replicas lock
//!   on the justify `prepareQC` exactly as in basic Marlin; the vote
//!   rule and the view change *are* basic Marlin's (happy path or
//!   pre-prepare with V1–V3/R1–R3), by delegation to
//!   [`MarlinRules`]. No new block is proposed in the prepare phase
//!   right after an unhappy view change — matching the paper's remark.
//! * **Chained HotStuff** — a *three-chain*: `b_k` commits once three
//!   consecutively-certified descendants exist; replicas lock on the
//!   grandparent certificate and vote under basic HotStuff's safeNode;
//!   the new-view (extend the highest reported `prepareQC`) is basic
//!   HotStuff's, by delegation to [`HotStuffRules`].
//!
//! What is the pipeline's own — the one-rung ladder, the k-chain commit
//! and lock target, the `prepareQC` as commit certificate and as view
//! proof, and the idle pacing — is the same code for both depths
//! (DESIGN.md §18 rows (1)–(6)).

use crate::events::{Action, Note, StepOutput};
use crate::hotstuff::{safe_node, HotStuffRules};
use crate::marlin::{MarlinRound, MarlinRules};
use crate::replica::{Adopt, Core, Next, Replica, Rules};
use crate::util::Base;
use marlin_types::{
    Block, BlockId, BlockStore, Justify, Message, MsgBody, Phase, Proposal, Qc, ReplicaId, VcCert,
    View, ViewChange, Vote,
};

/// Chained (pipelined) Marlin: one broadcast per block, two-chain
/// commits, Marlin's linear view change.
pub type ChainedMarlin = Replica<ChainedMarlinRules>;

/// Chained (pipelined) HotStuff: one broadcast per block, three-chain
/// commits, HotStuff's linear new-view.
pub type ChainedHotStuff = Replica<ChainedHotStuffRules>;

/// Chained Marlin's rule set.
#[derive(Clone, Debug)]
pub struct ChainedMarlinRules;

/// Chained HotStuff's rule set.
#[derive(Clone, Debug)]
pub struct ChainedHotStuffRules;

/// The commit rule, as the rungs of the basic protocol's ladder above
/// `Prepare`: in a pipeline a block climbs one each time another direct
/// descendant is certified, and the last commits it.
type Chain = &'static [Phase];

/// Two certificates stack (chained Marlin; Jolteon-style protocols).
const TWO_CHAIN: Chain = &[Phase::Commit];

/// Three certificates stack (chained HotStuff).
const THREE_CHAIN: Chain = &[Phase::PreCommit, Phase::Commit];

/// One idle keep-alive block per this many empty heartbeats: a
/// pipelined leader proposing on every beat would commit an empty block
/// four times per base timeout, forever.
const IDLE_BEATS_PER_BLOCK: u32 = 4;

/// The heartbeat after a round that closed the pipeline runs at twice
/// the idle rate (base timeout / 8).
const CLOSED_ROUND_BEAT: u64 = 8;

/// The certificate one *direct link* below `qc`: the justify of the
/// block `qc` certifies, provided it is a non-genesis `prepareQC` for
/// the preceding height formed in the same view.
fn direct_link(store: &BlockStore, qc: &Qc) -> Option<Qc> {
    let below = *store.get(&qc.block())?.justify().qc()?;
    let direct = !below.is_genesis()
        && below.phase() == Phase::Prepare
        && below.height().next() == qc.height()
        && below.view() == qc.view();
    direct.then_some(below)
}

/// The certificate `depth` direct links below `qc` (`qc` itself at 0).
fn link_below(store: &BlockStore, qc: &Qc, depth: usize) -> Option<Qc> {
    (0..depth).try_fold(*qc, |qc, _| direct_link(store, &qc))
}

/// The commit evidence in a certified chain for a rule needing `links`
/// direct links ([`Rules::COMMIT_LINKS`]): down from `qc` through each
/// block's justify `prepareQC`, the highest certificate at or above
/// height `floor` with `links` direct links above it (a ladder's: `qc`).
pub(crate) fn commit_evidence(store: &BlockStore, qc: &Qc, links: usize, floor: u64) -> Option<Qc> {
    let mut cursor = *qc;
    while cursor.height().0 >= floor + links as u64 {
        if let Some(proven) = link_below(store, &cursor, links) {
            return Some(proven);
        }
        let below = store.get(&cursor.block())?.justify().qc();
        cursor = *below.filter(|b| b.phase() == Phase::Prepare && b.height() < cursor.height())?;
    }
    None
}

/// The k-chain commit rule, run on the justify of the block just voted
/// for: the justify advances the chain, so the certificate one direct
/// link below it per rung of `R`'s chain — if the links are there — is
/// a commit certificate, committed like a disseminated one.
fn chain_commit<R: Rules>(
    base: &mut Base,
    justify: &Justify,
    from: ReplicaId,
    out: &mut StepOutput,
) {
    let Some(qc) = justify.qc().filter(|qc| qc.phase() == Phase::Prepare) else {
        return;
    };
    if let Some(committing) = link_below(&base.store, qc, R::COMMIT_LINKS) {
        base.commit_or_sync(committing, from, out);
    }
}

/// A chained certificate simultaneously serves as a later phase of the
/// in-flight ancestors it stacks on (Section V-C linearity). Emits the
/// ancestor phase points the fresh `prepareQC` `qc` represents, so the
/// cross-replica commit-latency decomposition measures the chained
/// rule's true depth: `Commit` at the parent for the two-chain rule;
/// `PreCommit` at the parent and `Commit` at the grandparent for the
/// three-chain rule.
fn note_ancestor_phases(store: &BlockStore, chain: Chain, qc: &Qc, out: &mut StepOutput) {
    let mut link = *qc;
    for phase in chain {
        let Some(below) = direct_link(store, &link) else {
            return;
        };
        out.actions.push(Action::Note(Note::QcFormed {
            phase: *phase,
            view: qc.view(),
            height: below.height(),
        }));
        link = below;
    }
}

/// View proof: a proposal (full or by digest) whose justify is a
/// verified `prepareQC` formed in the proposal's own view shows that
/// view started. (Chained replicas have no `DECIDE` to synchronise
/// views on.)
fn carries_in_view_prepare_qc<X>(core: &mut Core<X>, msg: &Message) -> bool {
    let justify = match &msg.body {
        MsgBody::Proposal(p) => p.justify,
        MsgBody::DigestProposal { justify, .. } => *justify,
        _ => return false,
    };
    justify.qc().is_some_and(|qc| {
        qc.view() == msg.view && qc.phase() == Phase::Prepare && core.base.crypto.verify_qc(qc)
    })
}

/// Whether certified-but-uncommitted payload is still in flight behind
/// the block `qc` certifies: walks parent links from it down to the
/// committed prefix looking for a nonempty payload. While it is, the
/// leader keeps extending the chain itself, even with an empty mempool
/// — pacing the tail with heartbeats alone would strand the last blocks
/// of a burst until an outside timer fired (the pipeline-tail liveness
/// gap, DESIGN.md §11.3). Only a fully closed pipeline falls back to
/// heartbeat pacing.
fn tail_open(store: &BlockStore, qc: &Qc) -> bool {
    let committed = store
        .get(&store.last_committed())
        .map(|b| b.height())
        .unwrap_or_default();
    let mut cursor = qc.block();
    loop {
        let Some(block) = store.get(&cursor) else {
            return false;
        };
        if block.height() <= committed {
            return false;
        }
        if !block.payload().is_empty() {
            return true;
        }
        match block.parent_id() {
            Some(parent) => cursor = parent,
            // An unresolved virtual block interposes: conservatively
            // keep the pipeline moving until the commit rule clears it.
            None => return true,
        }
    }
}

impl Rules for ChainedMarlinRules {
    type Round = MarlinRound;

    const NAME: &'static str = "chained-marlin";
    const COMMIT_CERT: Phase = Phase::Prepare;
    const COMMIT_LINKS: usize = TWO_CHAIN.len();
    const IDLE_BEATS_PER_BLOCK: u32 = IDLE_BEATS_PER_BLOCK;
    const CLOSED_ROUND_BEAT: u64 = CLOSED_ROUND_BEAT;

    /// Marlin's Cases N1/N2; an N1 vote locks on the justify.
    fn vote_rule(
        core: &mut Core<MarlinRound>,
        view: View,
        block: &Block,
        p: &Proposal,
    ) -> Option<Adopt> {
        MarlinRules::vote_rule(core, view, block, p)
    }

    /// One broadcast per round: there is no `PRE-COMMIT` / `COMMIT`.
    fn broadcast_rule(_broadcast: Phase, _carried: Phase) -> Option<Adopt> {
        None
    }

    fn on_prepare_qc(core: &Core<MarlinRound>, qc: &Qc, out: &mut StepOutput) -> Option<Phase> {
        note_ancestor_phases(&core.base.store, TWO_CHAIN, qc, out);
        None
    }

    fn after_vote(
        core: &mut Core<MarlinRound>,
        justify: &Justify,
        leader: ReplicaId,
        out: &mut StepOutput,
    ) {
        chain_commit::<Self>(&mut core.base, justify, leader, out);
    }

    fn adopt_high(core: &mut Core<MarlinRound>, justify: Justify) {
        MarlinRules::adopt_high(core, justify);
    }

    fn proves_view(core: &mut Core<MarlinRound>, msg: &Message) -> bool {
        carries_in_view_prepare_qc(core, msg)
    }

    fn on_new_view(
        core: &mut Core<MarlinRound>,
        view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        out: &mut StepOutput,
    ) -> Next {
        MarlinRules::on_new_view(core, view, msgs, out)
    }

    fn reproposed_block(core: &Core<MarlinRound>) -> Option<BlockId> {
        MarlinRules::reproposed_block(core)
    }

    fn on_pre_prepare(
        core: &mut Core<MarlinRound>,
        from: ReplicaId,
        view: View,
        p: Proposal,
        out: &mut StepOutput,
    ) {
        MarlinRules::on_pre_prepare(core, from, view, p, out);
    }

    fn on_pre_prepare_vote(core: &mut Core<MarlinRound>, v: Vote, out: &mut StepOutput) -> Next {
        MarlinRules::on_pre_prepare_vote(core, v, out)
    }

    fn tail_open(core: &Core<MarlinRound>, qc: &Qc) -> bool {
        tail_open(&core.base.store, qc)
    }
}

impl Rules for ChainedHotStuffRules {
    type Round = ();

    const NAME: &'static str = "chained-hotstuff";
    const COMMIT_CERT: Phase = Phase::Prepare;
    const COMMIT_LINKS: usize = THREE_CHAIN.len();
    const IDLE_BEATS_PER_BLOCK: u32 = IDLE_BEATS_PER_BLOCK;
    const CLOSED_ROUND_BEAT: u64 = CLOSED_ROUND_BEAT;

    /// safeNode; the vote records the justify as `highQC` and locks one
    /// link below it ([`Rules::lock_target`]).
    fn vote_rule(core: &mut Core<()>, _view: View, block: &Block, p: &Proposal) -> Option<Adopt> {
        safe_node(core, block, p).then_some(Adopt::Both)
    }

    /// One broadcast per round: there is no `PRE-COMMIT` / `COMMIT`.
    fn broadcast_rule(_broadcast: Phase, _carried: Phase) -> Option<Adopt> {
        None
    }

    fn on_prepare_qc(core: &Core<()>, qc: &Qc, out: &mut StepOutput) -> Option<Phase> {
        note_ancestor_phases(&core.base.store, THREE_CHAIN, qc, out);
        None
    }

    /// The grandparent certificate, if it directly precedes the justify
    /// (the block entering the chain's last rung, as on HotStuff's
    /// ladder; for a two-chain that is the justify itself).
    fn lock_target(core: &Core<()>, justify: &Qc) -> Option<Qc> {
        direct_link(&core.base.store, justify)
    }

    fn after_vote(core: &mut Core<()>, justify: &Justify, leader: ReplicaId, out: &mut StepOutput) {
        chain_commit::<Self>(&mut core.base, justify, leader, out);
    }

    /// Chained `highQC` is the justify of the latest vote (the tip of
    /// the pipeline this replica follows), not a running maximum.
    fn adopt_high(core: &mut Core<()>, justify: Justify) {
        core.high_qc = justify;
    }

    fn proves_view(core: &mut Core<()>, msg: &Message) -> bool {
        carries_in_view_prepare_qc(core, msg)
    }

    fn on_new_view(
        core: &mut Core<()>,
        view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        out: &mut StepOutput,
    ) -> Next {
        HotStuffRules::on_new_view(core, view, msgs, out)
    }

    fn proposal_licence(core: &mut Core<()>, view: View, fresh: bool) -> Option<Vec<VcCert>> {
        HotStuffRules::proposal_licence(core, view, fresh)
    }

    fn tail_open(core: &Core<()>, qc: &Qc) -> bool {
        tail_open(&core.base.store, qc)
    }
}
