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

/// The k-chain commit rule, run on the justify of the block just voted
/// for: the justify advances the chain, so the certificate one direct
/// link below it per rung of `chain` — if the links are there — commits.
fn chain_commit(
    base: &mut Base,
    chain: Chain,
    justify: &Justify,
    from: ReplicaId,
    out: &mut StepOutput,
) {
    let Some(qc) = justify.qc().filter(|qc| qc.phase() == Phase::Prepare) else {
        return;
    };
    if let Some(committing) = link_below(&base.store, qc, chain.len()) {
        base.try_commit(committing, from, out);
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

/// View proof: a proposal whose justify is a verified `prepareQC`
/// formed in the proposal's own view shows that view started. (Chained
/// replicas have no `DECIDE` to synchronise views on.)
fn carries_in_view_prepare_qc<X>(core: &mut Core<X>, msg: &Message) -> bool {
    let MsgBody::Proposal(p) = &msg.body else {
        return false;
    };
    p.justify.qc().is_some_and(|qc| {
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
        chain_commit(&mut core.base, TWO_CHAIN, justify, leader, out);
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

    fn on_recovered(core: &mut Core<MarlinRound>, out: &mut StepOutput) -> Next {
        core.solicit_catch_up(out)
    }
}

impl Rules for ChainedHotStuffRules {
    type Round = ();

    const NAME: &'static str = "chained-hotstuff";
    const COMMIT_CERT: Phase = Phase::Prepare;
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
        chain_commit(&mut core.base, THREE_CHAIN, justify, leader, out);
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

    fn on_recovered(core: &mut Core<()>, out: &mut StepOutput) -> Next {
        core.solicit_catch_up(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Cluster;
    use crate::{Config, ProtocolKind};

    const P0: ReplicaId = ReplicaId(0);
    const P1: ReplicaId = ReplicaId(1);
    const P2: ReplicaId = ReplicaId(2);

    fn run_pipeline(kind: ProtocolKind, seed: u64) -> Cluster {
        let mut cl = Cluster::new(kind, Config::for_test(4, 1), seed);
        cl.submit_to(P1, 250, 0); // several batches worth
                                  // No timer scaffolding: the leader itself closes the pipeline
                                  // tail with empty blocks once the mempool drains (see
                                  // `on_vote`), so message delivery alone commits everything.
        cl.run_until_idle();
        cl
    }

    #[test]
    fn chained_marlin_commits_pipeline() {
        let cl = run_pipeline(ProtocolKind::ChainedMarlin, 1);
        cl.assert_consistent();
        assert_eq!(cl.total_committed_txs(P0), 250);
    }

    #[test]
    fn chained_hotstuff_commits_pipeline() {
        let cl = run_pipeline(ProtocolKind::ChainedHotStuff, 2);
        cl.assert_consistent();
        assert_eq!(cl.total_committed_txs(P0), 250);
    }

    #[test]
    fn chained_marlin_commits_with_two_chain_latency() {
        // A single batch needs exactly one successor QC to commit: the
        // leader's own tail-closing block finalizes it without any
        // timer firing.
        let mut cl = Cluster::new(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), 3);
        cl.submit_to(P1, 10, 0);
        cl.run_until_idle();
        cl.assert_consistent();
        assert_eq!(cl.total_committed_txs(P0), 10);
    }

    /// Regression (pipeline-tail liveness gap): an idle chained cluster
    /// must commit the tail of a burst from message delivery alone.
    /// Before the fix the leader parked the last in-flight blocks
    /// behind a heartbeat, so `run_until_idle()` (which never fires
    /// timers) left the burst partially uncommitted and tests had to
    /// close the pipeline with manual heartbeats.
    #[test]
    fn chained_pipeline_tail_closes_without_timers() {
        for kind in [ProtocolKind::ChainedMarlin, ProtocolKind::ChainedHotStuff] {
            let mut cl = Cluster::new(kind, Config::for_test(4, 1), 9);
            cl.submit_to(P1, 120, 0);
            cl.run_until_idle();
            cl.assert_consistent();
            assert_eq!(
                cl.total_committed_txs(P0),
                120,
                "{kind:?}: pipeline tail not closed without timers"
            );
        }
    }

    /// Regression (idle empty-block spam): once the pipeline has closed
    /// and the mempool is empty, the leader used to propose a fresh
    /// empty block on *every* heartbeat — four keep-alive blocks per
    /// base timeout, forever. Now it re-arms the heartbeat cheaply and
    /// emits a keep-alive block only every `IDLE_BEATS_PER_BLOCK`th
    /// beat, so a sustained quiet period produces a bounded trickle.
    #[test]
    fn idle_heartbeats_do_not_spam_empty_blocks() {
        for kind in [ProtocolKind::ChainedMarlin, ProtocolKind::ChainedHotStuff] {
            let mut cl = Cluster::new(kind, Config::for_test(4, 1), 11);
            cl.submit_to(P1, 40, 0);
            cl.run_until_idle();
            assert_eq!(cl.total_committed_txs(P0), 40);

            // A long quiet period: every fired timer is a leader
            // heartbeat (payload commits keep re-arming the view timers
            // before they can expire).
            let before = cl.committed_height(P0);
            let fires = 32;
            for _ in 0..fires {
                assert!(cl.fire_next_timer(), "{kind:?}: heartbeat chain broke");
            }
            cl.run_until_idle();
            let idle_blocks = cl.committed_height(P0) - before;
            // Before the fix every beat proposed, committing ~one empty
            // block per fire (~32 here). Gated, at most every 4th idle
            // beat proposes; the commit rule trails by a block or two.
            assert!(
                idle_blocks <= fires / 4 + 2,
                "{kind:?}: {idle_blocks} empty blocks from {fires} idle heartbeats"
            );
            // ...but the trickle must not dry up entirely: keep-alive
            // blocks still flow, so view timers stay quenched.
            assert!(
                idle_blocks >= 2,
                "{kind:?}: idle keep-alive stalled ({idle_blocks} blocks)"
            );
            assert_eq!(
                cl.min_view(),
                View(1),
                "{kind:?}: idle period lost the view"
            );
        }
    }

    /// Regression (post-quiet liveness): a burst arriving after a long
    /// idle stretch must commit from message delivery alone — the
    /// heartbeat gating above must not strand fresh transactions behind
    /// the idle-beat counter.
    #[test]
    fn load_after_quiet_period_commits_without_timers() {
        for kind in [ProtocolKind::ChainedMarlin, ProtocolKind::ChainedHotStuff] {
            let mut cl = Cluster::new(kind, Config::for_test(4, 1), 12);
            cl.submit_to(P1, 30, 0);
            cl.run_until_idle();
            for _ in 0..13 {
                assert!(cl.fire_next_timer());
            }
            cl.run_until_idle();
            // New load lands while the leader sits in the gated-idle
            // state: `NewTransactions` proposes immediately.
            cl.submit_to(P1, 30, 0);
            cl.run_until_idle();
            cl.assert_consistent();
            assert_eq!(
                cl.total_committed_txs(P0),
                60,
                "{kind:?}: post-quiet burst stranded"
            );
        }
    }

    #[test]
    fn chained_marlin_view_change_recovers() {
        let mut cl = Cluster::new(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), 4);
        cl.submit_to(P1, 50, 0);
        cl.run_until_idle();
        cl.crash(P1);
        while cl.min_view() < View(2) {
            assert!(cl.fire_next_timer());
        }
        cl.run_until_idle();
        cl.submit_to(P2, 50, 0);
        cl.run_until_idle();
        for _ in 0..8 {
            cl.fire_next_timer();
        }
        cl.run_until_idle();
        cl.assert_consistent();
        assert_eq!(cl.total_committed_txs(P0), 100);
    }

    #[test]
    fn chained_hotstuff_view_change_recovers() {
        let mut cl = Cluster::new(ProtocolKind::ChainedHotStuff, Config::for_test(4, 1), 5);
        cl.submit_to(P1, 50, 0);
        cl.run_until_idle();
        // Close the pipeline before crashing: an uncertified tip block
        // would otherwise be orphaned by HotStuff's new-view (its QC
        // never traveled), which is faithful but not what this test is
        // about.
        while cl.total_committed_txs(P0) < 50 {
            assert!(cl.fire_next_timer());
            cl.run_until_idle();
        }
        cl.crash(P1);
        while cl.min_view() < View(2) {
            assert!(cl.fire_next_timer());
        }
        cl.run_until_idle();
        cl.submit_to(P2, 50, 0);
        cl.run_until_idle();
        for _ in 0..10 {
            cl.fire_next_timer();
        }
        cl.run_until_idle();
        cl.assert_consistent();
        assert_eq!(cl.total_committed_txs(P0), 100);
    }

    #[test]
    fn three_chain_commits_one_block_later_than_two_chain() {
        // Both rules commit the whole burst (the leader closes its own
        // tail), but the three-chain rule needs exactly one more
        // tail-closing block to do it.
        let mut marlin = Cluster::new(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), 6);
        let mut hotstuff = Cluster::new(ProtocolKind::ChainedHotStuff, Config::for_test(4, 1), 6);
        marlin.submit_to(P1, 30, 0);
        hotstuff.submit_to(P1, 30, 0);
        marlin.run_until_idle();
        hotstuff.run_until_idle();
        assert_eq!(marlin.total_committed_txs(P0), 30);
        assert_eq!(hotstuff.total_committed_txs(P0), 30);
        let proposals = |cl: &Cluster| {
            cl.notes()
                .iter()
                .filter(|(_, n)| matches!(n, Note::Proposed { .. }))
                .count()
        };
        assert_eq!(proposals(&hotstuff), proposals(&marlin) + 1);
    }
}
