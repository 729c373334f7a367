//! Chained (pipelined) Marlin and HotStuff.
//!
//! In chained mode every round has a single leader broadcast: the
//! proposal for block `b_k` carries the `prepareQC` for `b_{k-1}` as its
//! justify, so each certificate simultaneously serves as a phase of
//! several in-flight blocks ("Chained Marlin", Section V-C; the chained
//! HotStuff of the original paper).
//!
//! Commit rules (same-view, consecutive-height chains, ancestors ride
//! along via the block tree):
//!
//! * **Chained Marlin** — a *two-chain*: when `b_k` is certified and its
//!   direct child `b_{k+1}` is certified, `b_k` commits. Replicas lock
//!   on the justify `prepareQC` exactly as in basic Marlin; the view
//!   change is basic Marlin's (happy path or pre-prepare with
//!   V1–V3/R1–R3). No new block is proposed in the prepare phase right
//!   after an unhappy view change — matching the paper's remark.
//! * **Chained HotStuff** — a *three-chain*: `b_k` commits once three
//!   consecutively-certified descendants exist; replicas lock on the
//!   grandparent certificate.

use crate::config::Config;
use crate::events::{Action, Event, Note, StepOutput, VcCase};
use crate::journal::SafetyJournal;
use crate::util::{Base, Protocol};
use crate::votes::VoteCollector;
use marlin_types::rank::{block_rank_gt, highest_block, qc_rank_cmp, qc_rank_ge};
use marlin_types::{
    Block, BlockId, BlockKind, BlockMeta, BlockStore, Justify, Message, MsgBody, Phase, Proposal,
    Qc, ReplicaId, View, ViewChange, Vote,
};
use std::cmp::Ordering;
use std::collections::HashMap;

/// How many QCs must stack on top of a block before it commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CommitRule {
    /// Two-chain (chained Marlin / Jolteon-style).
    TwoChain,
    /// Three-chain (chained HotStuff).
    ThreeChain,
}

/// Per-view leader state for the Marlin-style view change.
#[derive(Clone, Debug, Default)]
struct VcRound {
    msgs: HashMap<ReplicaId, ViewChange>,
    decided: bool,
    candidates: Vec<BlockId>,
    virtual_vc: Option<Qc>,
    stashed_virtual_qc: Option<Qc>,
    advanced: bool,
}

/// Shared implementation of both chained protocols.
#[derive(Clone, Debug)]
struct Chained {
    base: Base,
    rule: CommitRule,
    name: &'static str,
    lb: BlockMeta,
    locked_qc: Option<Qc>,
    /// `highQC`: `One(prepareQC)` normally; after a Marlin-style unhappy
    /// view change it may be `One(pre-prepareQC)` or `Two(pre, vc)`.
    high_qc: Justify,
    votes: VoteCollector,
    /// The leader's outstanding (not yet certified) proposal.
    outstanding: Option<BlockId>,
    vc_rounds: HashMap<View, VcRound>,
    /// Highest view each peer attested in a `CATCH-UP` response (the
    /// same post-crash resynchronization rule as basic Marlin: once
    /// `f + 1` distinct peers claim views above ours, join).
    peer_views: HashMap<ReplicaId, View>,
    /// A broadcast `CATCH-UP` request is awaiting its first response.
    catch_up_outstanding: bool,
    /// Consecutive heartbeats with nothing to propose (empty mempool,
    /// closed pipeline). Gates idle empty-block production: the leader
    /// keeps the heartbeat armed but only emits a keep-alive block
    /// every [`IDLE_BEATS_PER_BLOCK`]th beat.
    idle_beats: u32,
    /// Write-ahead safety journal; `None` runs without durability.
    journal: Option<SafetyJournal>,
}

/// One idle keep-alive block per this many empty heartbeats.
const IDLE_BEATS_PER_BLOCK: u32 = 4;

impl Chained {
    fn new(config: Config, rule: CommitRule, name: &'static str) -> Self {
        Chained {
            base: Base::new(config),
            rule,
            name,
            lb: BlockMeta::genesis(),
            locked_qc: None,
            high_qc: Justify::One(Qc::genesis(BlockId::GENESIS)),
            votes: VoteCollector::new(),
            outstanding: None,
            vc_rounds: HashMap::new(),
            peer_views: HashMap::new(),
            catch_up_outstanding: false,
            idle_beats: 0,
            journal: None,
        }
    }

    fn with_journal(
        config: Config,
        rule: CommitRule,
        name: &'static str,
        journal: SafetyJournal,
    ) -> Self {
        let mut replica = Chained::new(config, rule, name);
        replica.journal = Some(journal);
        replica
    }

    /// Rebuilds safety state from a durable journal (amnesia-safe
    /// restart): the replica resumes in the journaled view with the
    /// journaled `lb`, lock and `highQC`, so it cannot re-vote in a
    /// pipeline slot it voted in before the crash.
    fn recover(
        config: Config,
        rule: CommitRule,
        name: &'static str,
        journal: SafetyJournal,
    ) -> Self {
        let snapshot = *journal.state();
        let mut replica = Chained::with_journal(config, rule, name, journal);
        replica.lb = snapshot.last_voted;
        replica.locked_qc = snapshot.locked_qc;
        if !matches!(snapshot.high_qc, Justify::None) {
            replica.high_qc = snapshot.high_qc;
        }
        if snapshot.view > View::GENESIS {
            replica.base.cview = snapshot.view;
        }
        replica
    }

    fn cfg(&self) -> &Config {
        &self.base.cfg
    }

    fn quorum(&self) -> usize {
        self.base.cfg.quorum()
    }

    fn meta_of_qc(qc: &Qc) -> BlockMeta {
        BlockMeta {
            id: qc.block(),
            view: qc.block_view(),
            height: qc.height(),
            pview: qc.pview(),
            kind: qc.block_kind(),
            rank_boost: false,
        }
    }

    fn raise_lock(&mut self, qc: &Qc) {
        let higher = match &self.locked_qc {
            None => true,
            Some(cur) => qc_rank_cmp(qc, cur) == Ordering::Greater,
        };
        if higher {
            self.locked_qc = Some(*qc);
        }
    }

    /// Write-ahead check for votes that change no block-level safety
    /// state (pre-prepare votes, view-change shares): the current view
    /// must be durable. Returns `false` — abstain — when the journal
    /// cannot be written; abstention is always safe.
    fn journal_view_durable(&mut self, view: View, phase: Phase, out: &mut StepOutput) -> bool {
        match self.journal.as_mut() {
            None => true,
            Some(j) => match j.log_view(view) {
                Ok(()) => true,
                Err(_) => {
                    out.actions.push(Action::Note(Note::VoteWithheld { phase }));
                    false
                }
            },
        }
    }

    fn enter_view(&mut self, view: View, out: &mut StepOutput) {
        self.votes.clear();
        self.outstanding = None;
        // Durable before actionable: a replica recovering from its
        // journal must not re-enter an older view. Failure here is
        // tolerated (view regression costs liveness, not safety — votes
        // are guarded by the separately-journaled `lb` and lock).
        if let Some(j) = self.journal.as_mut() {
            let _ = j.log_view(view);
        }
        let drained = self.base.enter_view(view, out);
        self.vc_rounds.retain(|v, _| *v >= view);
        for msg in drained {
            let sub = self.handle(Event::Message(msg));
            out.merge(sub);
        }
    }

    fn start_view_change(&mut self, target: View, out: &mut StepOutput) {
        out.actions.push(Action::Note(Note::ViewChangeStarted {
            from_view: self.base.cview,
        }));
        self.enter_view(target, out);
        let parsig = self
            .base
            .crypto
            .sign_seed(&ViewChange::happy_seed(&self.lb, target));
        let msg = Message::new(
            self.cfg().id,
            target,
            MsgBody::ViewChange(ViewChange {
                last_voted: self.lb,
                high_qc: self.high_qc,
                parsig,
                cert: None,
            }),
        );
        // The happy-path share inside a VIEW-CHANGE is combinable into a
        // prepareQC for `lb`, so it is write-ahead journaled like any
        // other vote: the target view must be durable before it is sent.
        if !self.journal_view_durable(target, Phase::Prepare, out) {
            return;
        }
        out.actions.push(Action::Send {
            to: self.cfg().leader_of(target),
            message: msg,
        });
    }

    /// Leader: proposes the next block in the pipeline (or re-broadcasts
    /// a pre-prepared block after a Marlin-style view change).
    ///
    /// Gated until the justify is valid for the current view (see the
    /// basic protocols): two-chain replicas only accept in-view
    /// prepareQCs; three-chain leaders must wait for their new-view
    /// decision (`vc_decided`) before extending a cross-view QC.
    fn propose(&mut self, out: &mut StepOutput) {
        let view = self.base.cview;
        if self.outstanding.is_some() {
            return;
        }
        if let Some(qc) = self.high_qc.qc() {
            let in_view = qc.is_genesis() || qc.view() == view;
            let ready = match self.rule {
                CommitRule::TwoChain => in_view,
                CommitRule::ThreeChain => {
                    in_view
                        || self
                            .vc_rounds
                            .get(&view)
                            .map(|r| r.decided)
                            .unwrap_or(false)
                }
            };
            if !ready {
                return;
            }
        }
        let (block, justify) = match self.high_qc {
            Justify::One(qc) if qc.phase() == Phase::Prepare => {
                let batch = self.base.take_batch();
                let block = Block::new_normal(
                    qc.block(),
                    qc.block_view(),
                    view,
                    qc.height().next(),
                    batch,
                    Justify::One(qc),
                );
                self.base.store_block(&block);
                (block, self.high_qc)
            }
            Justify::One(pre) | Justify::Two(pre, _) => {
                let Some(block) = self.base.store.get(&pre.block()).cloned() else {
                    return;
                };
                (block, self.high_qc)
            }
            Justify::None => return,
        };
        self.outstanding = Some(block.id());
        out.actions.push(Action::Note(Note::Proposed {
            view,
            height: block.height(),
            phase: Phase::Prepare,
        }));
        out.actions.push(Action::Broadcast {
            message: Message::new(
                self.cfg().id,
                view,
                MsgBody::Proposal(Proposal {
                    phase: Phase::Prepare,
                    blocks: vec![block],
                    justify,
                    vc_proof: Vec::new(),
                }),
            ),
        });
    }

    /// The chained commit rule: called with a fresh `prepareQC`; walks
    /// the `justify` chain below the certified block and commits the
    /// `rule`-deep ancestor when the chain links are direct (consecutive
    /// heights, same view).
    fn try_chain_commit(&mut self, qc: &Qc, from: ReplicaId, out: &mut StepOutput) {
        let Some(block) = self.base.store.get(&qc.block()).cloned() else {
            return;
        };
        let Some(parent_qc) = block.justify().qc().copied() else {
            return;
        };
        if parent_qc.is_genesis() || parent_qc.phase() != Phase::Prepare {
            return;
        }
        let direct = parent_qc.height().next() == qc.height() && parent_qc.view() == qc.view();
        if !direct {
            return;
        }
        match self.rule {
            CommitRule::TwoChain => {
                self.base.try_commit(parent_qc, from, out);
            }
            CommitRule::ThreeChain => {
                let Some(parent) = self.base.store.get(&parent_qc.block()).cloned() else {
                    return;
                };
                let Some(gp_qc) = parent.justify().qc().copied() else {
                    return;
                };
                if gp_qc.is_genesis() || gp_qc.phase() != Phase::Prepare {
                    return;
                }
                let direct2 =
                    gp_qc.height().next() == parent_qc.height() && gp_qc.view() == parent_qc.view();
                if direct2 {
                    self.base.try_commit(gp_qc, from, out);
                }
            }
        }
    }

    fn on_message(&mut self, msg: Message, out: &mut StepOutput) {
        if self.base.handle_fetch(&msg, out) {
            return;
        }
        if self.base.handle_sync(&msg, out) {
            return;
        }
        // Catch-up (crash recovery) messages are view-independent: a
        // recovering replica may be views behind.
        if let MsgBody::CatchUpRequest { last_committed } = &msg.body {
            if msg.from == self.cfg().id {
                return; // our own broadcast, looped back
            }
            // Always answer: even with no newer commit to serve, the
            // response header carries our current view, which is the
            // attestation a recovering replica needs to resynchronize.
            let commit_qc = self
                .base
                .latest_commit_qc
                .filter(|qc| qc.height() > *last_committed);
            out.actions.push(Action::Note(Note::CatchUpServed {
                view: self.base.cview,
                newer: commit_qc.is_some(),
            }));
            out.actions.push(Action::Send {
                to: msg.from,
                message: Message::new(
                    self.cfg().id,
                    self.base.cview,
                    MsgBody::CatchUpResponse { commit_qc },
                ),
            });
            return;
        }
        if let MsgBody::CatchUpResponse { commit_qc } = &msg.body {
            // The first response closes the catch-up round trip.
            if self.catch_up_outstanding {
                self.catch_up_outstanding = false;
                out.actions.push(Action::Note(Note::CatchUpCompleted {
                    view: self.base.cview,
                }));
            }
            if let Some(qc) = commit_qc {
                self.on_commit_certificate(*qc, msg.from, out);
            }
            self.note_peer_view(msg.from, msg.view, out);
            return;
        }
        if msg.view > self.base.cview {
            // Fast-forward on a certified view: a valid prepareQC formed
            // in a later view is proof that view started.
            if let MsgBody::Proposal(p) = &msg.body {
                if let Some(qc) = p.justify.qc() {
                    if qc.view() == msg.view
                        && qc.phase() == Phase::Prepare
                        && self.base.crypto.verify_qc(qc)
                    {
                        self.enter_view(msg.view, out);
                        self.on_message(msg, out);
                        return;
                    }
                }
            }
            self.base.buffer_future(msg);
            if let Some(target) = self.base.future_view_change_senders(self.cfg().f + 1) {
                if target > self.base.cview {
                    self.start_view_change(target, out);
                }
            }
            return;
        }
        if msg.view < self.base.cview {
            return;
        }
        match msg.body {
            MsgBody::Proposal(p) => match p.phase {
                Phase::Prepare => self.on_prepare(msg.from, msg.view, p, out),
                Phase::PrePrepare => self.on_pre_prepare_proposal(msg.from, msg.view, p, out),
                _ => {}
            },
            MsgBody::Vote(v) => match v.seed.phase {
                Phase::Prepare => self.on_vote(v, out),
                Phase::PrePrepare => self.on_pre_prepare_vote(v, out),
                _ => {}
            },
            MsgBody::ViewChange(vc) => self.on_view_change(msg.from, msg.view, vc, out),
            _ => {}
        }
    }

    fn on_prepare(&mut self, from: ReplicaId, view: View, p: Proposal, out: &mut StepOutput) {
        if from != self.cfg().leader_of(view) || p.blocks.len() != 1 {
            return;
        }
        let block = &p.blocks[0];
        if block.view() != view || !block_rank_gt(&block.meta(), &self.lb) {
            return;
        }
        let Some(qc) = p.justify.qc().copied() else {
            return;
        };
        if !self.base.crypto.verify_justify(&p.justify) {
            return;
        }
        let mut virtual_vc = None;
        let valid = match (&p.justify, qc.phase()) {
            (Justify::One(_), Phase::Prepare) => {
                block.parent_id() == Some(qc.block())
                    && block.height() == qc.height().next()
                    && block.pview() == qc.block_view()
                    && match self.rule {
                        // Two-chain locks on the justify: the rank check
                        // mirrors basic Marlin's Case N1 (same view only).
                        CommitRule::TwoChain => {
                            (qc.is_genesis() || qc.view() == view)
                                && qc_rank_ge(&qc, self.locked_qc.as_ref())
                        }
                        // Three-chain: the standard safeNode predicate.
                        CommitRule::ThreeChain => qc_rank_ge(&qc, self.locked_qc.as_ref()),
                    }
            }
            (justify, Phase::PrePrepare) => {
                // Marlin-style Case N2 after an unhappy view change.
                let base_ok = self.rule == CommitRule::TwoChain
                    && block.id() == qc.block()
                    && qc.view() == view
                    && qc_rank_ge(&qc, self.locked_qc.as_ref());
                match justify {
                    Justify::One(_) => base_ok && qc.block_kind() == BlockKind::Normal,
                    Justify::Two(_, vc) => {
                        let ok = base_ok
                            && qc.block_kind() == BlockKind::Virtual
                            && vc.phase() == Phase::Prepare
                            && vc.view() == qc.pview()
                            && vc.height() == qc.height().prev();
                        if ok {
                            virtual_vc = Some(*vc);
                        }
                        ok
                    }
                    Justify::None => false,
                }
            }
            _ => false,
        };
        if !valid {
            return;
        }
        self.base.store_block(block);
        if let Some(vc) = virtual_vc {
            self.base
                .store
                .resolve_virtual_parent(block.id(), vc.block());
        }
        // The lock raise this vote implies, computed up front so it can
        // be journaled together with `lb` and `highQC`. Two-chain locks
        // on the justify itself; three-chain locks on the grandparent
        // certificate if it directly precedes the justify.
        let lock_raise: Option<Qc> = if qc.phase() == Phase::Prepare {
            match self.rule {
                CommitRule::TwoChain => Some(qc),
                CommitRule::ThreeChain => self
                    .base
                    .store
                    .get(&qc.block())
                    .and_then(|parent| parent.justify().qc().copied())
                    .filter(|gp_qc| {
                        !gp_qc.is_genesis()
                            && gp_qc.phase() == Phase::Prepare
                            && gp_qc.height().next() == qc.height()
                            && gp_qc.view() == qc.view()
                    }),
            }
        } else {
            None
        };
        // Write-ahead voting: every safety delta this vote implies (the
        // new `lb`, the justify as `highQC`, any lock raise) must be
        // durable before the vote can reach the wire. On a failed append
        // the replica abstains, and its in-memory state must not outrun
        // the journal either.
        if let Some(j) = self.journal.as_mut() {
            let mut res = j.log_last_voted(&block.meta());
            if res.is_ok() {
                res = j.log_high_qc(&p.justify);
            }
            if res.is_ok() {
                if let Some(lock) = &lock_raise {
                    res = j.log_lock(lock);
                }
            }
            if res.is_err() {
                out.actions.push(Action::Note(Note::VoteWithheld {
                    phase: Phase::Prepare,
                }));
                return;
            }
        }
        let seed = block.vote_seed(Phase::Prepare, view);
        let parsig = self.base.crypto.sign_seed(&seed);
        out.actions.push(Action::Send {
            to: from,
            message: Message::new(
                self.cfg().id,
                view,
                MsgBody::Vote(Vote {
                    seed,
                    parsig,
                    locked_qc: None,
                }),
            ),
        });
        self.lb = block.meta();
        self.high_qc = p.justify;
        if let Some(lock) = lock_raise {
            self.raise_lock(&lock);
        }
        if qc.phase() == Phase::Prepare {
            // The justify certificate advances the chain: try to commit.
            self.try_chain_commit(&qc, from, out);
        }
        self.base.progress_timer(out);
    }

    fn on_vote(&mut self, v: Vote, out: &mut StepOutput) {
        if v.seed.view != self.base.cview || Some(v.seed.block) != self.outstanding {
            return;
        }
        let quorum = self.quorum();
        let Some(qc) =
            crate::votes::add_vote_noted(&mut self.votes, &v, quorum, &mut self.base.crypto, out)
        else {
            return;
        };
        out.actions.push(Action::Note(Note::QcFormed {
            phase: Phase::Prepare,
            view: qc.view(),
            height: qc.height(),
        }));
        self.note_ancestor_phases(&qc, out);
        self.outstanding = None;
        self.high_qc = Justify::One(qc);
        // Pipeline: immediately propose the next block carrying this QC.
        // While certified-but-uncommitted payload is still in flight the
        // leader keeps extending the chain itself, even with an empty
        // mempool — pacing the tail with heartbeats alone would strand
        // the last blocks of a burst until an outside timer fired (the
        // pipeline-tail liveness gap). Only a fully-closed pipeline
        // falls back to heartbeat pacing.
        if !self.base.mempool.is_empty() || self.tail_open(&qc) {
            self.propose(out);
        } else {
            out.actions.push(Action::SetHeartbeat {
                delay_ns: self.base.cfg.base_timeout_ns / 8,
            });
        }
    }

    /// Whether certified-but-uncommitted payload is still in flight behind
    /// the freshly certified block: walks parent links from the certified
    /// block down to the committed prefix looking for a nonempty payload.
    fn tail_open(&self, qc: &Qc) -> bool {
        let committed = self
            .base
            .store
            .get(&self.base.store.last_committed())
            .map(|b| b.height())
            .unwrap_or_default();
        let mut cursor = qc.block();
        loop {
            let Some(block) = self.base.store.get(&cursor) else {
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

    /// A chained certificate simultaneously serves as a phase of the
    /// in-flight ancestors it stacks on (Section V-C linearity). Emit
    /// the ancestor phase points this `prepareQC` represents so the
    /// cross-replica commit-latency decomposition measures the chained
    /// rule's true depth: 2 phases per block for the two-chain rule,
    /// 3 for the three-chain rule.
    fn note_ancestor_phases(&self, qc: &Qc, out: &mut StepOutput) {
        let Some(block) = self.base.store.get(&qc.block()) else {
            return;
        };
        let Some(parent_qc) = block.justify().qc().copied() else {
            return;
        };
        if parent_qc.is_genesis()
            || parent_qc.phase() != Phase::Prepare
            || parent_qc.height().next() != qc.height()
            || parent_qc.view() != qc.view()
        {
            return;
        }
        match self.rule {
            CommitRule::TwoChain => {
                out.actions.push(Action::Note(Note::QcFormed {
                    phase: Phase::Commit,
                    view: qc.view(),
                    height: parent_qc.height(),
                }));
            }
            CommitRule::ThreeChain => {
                out.actions.push(Action::Note(Note::QcFormed {
                    phase: Phase::PreCommit,
                    view: qc.view(),
                    height: parent_qc.height(),
                }));
                let Some(parent) = self.base.store.get(&parent_qc.block()) else {
                    return;
                };
                let Some(gp_qc) = parent.justify().qc().copied() else {
                    return;
                };
                if !gp_qc.is_genesis()
                    && gp_qc.phase() == Phase::Prepare
                    && gp_qc.height().next() == parent_qc.height()
                    && gp_qc.view() == parent_qc.view()
                {
                    out.actions.push(Action::Note(Note::QcFormed {
                        phase: Phase::Commit,
                        view: qc.view(),
                        height: gp_qc.height(),
                    }));
                }
            }
        }
    }

    /// Handles a served commit certificate. In chained mode the "commit
    /// certificate" a peer serves is the `prepareQC` whose formation
    /// committed the block at the server (`latest_commit_qc`), so an
    /// honest server only ever serves certificates of committed blocks;
    /// the receiver verifies the certificate and commits its chain
    /// (fetching missing ancestors).
    fn on_commit_certificate(&mut self, qc: Qc, from: ReplicaId, out: &mut StepOutput) {
        if qc.is_genesis() || qc.phase() != Phase::Prepare || !self.base.crypto.verify_qc(&qc) {
            return;
        }
        // A certificate from a future view is also a view-synchronisation
        // signal: join that view (we missed its VIEW-CHANGE).
        if qc.view() > self.base.cview {
            self.enter_view(qc.view(), out);
        }
        self.base.try_commit(qc, from, out);
    }

    /// Post-crash view resynchronization via catch-up view attestations:
    /// join the `(f + 1)`-th highest view claimed by distinct peers —
    /// at least one claimant is honest, so the view is safe to join.
    /// (With linear view changes a lagging replica never overhears
    /// `VIEW-CHANGE` traffic, so it needs explicit attestations.)
    fn note_peer_view(&mut self, from: ReplicaId, view: View, out: &mut StepOutput) {
        if from == self.cfg().id {
            return;
        }
        let slot = self.peer_views.entry(from).or_default();
        *slot = (*slot).max(view);
        let mut above: Vec<View> = self
            .peer_views
            .values()
            .copied()
            .filter(|v| *v > self.base.cview)
            .collect();
        if above.len() <= self.cfg().f {
            return;
        }
        above.sort_unstable_by(|a, b| b.cmp(a));
        let target = above[self.cfg().f];
        self.start_view_change(target, out);
    }

    /// Handles rejoin after a crash: re-arms the view timer (any
    /// pre-crash timer is dead), asks peers for commit certificates
    /// formed while this replica was down, and — when it leads the
    /// current view with an extendable `prepareQC` — re-proposes to
    /// restart the pipeline.
    fn on_recovered(&mut self, out: &mut StepOutput) {
        let view = self.base.cview;
        out.actions.push(Action::SetTimer {
            view,
            delay_ns: self.base.pacemaker.delay_for(view),
        });
        let last_committed = self
            .base
            .store
            .get(&self.base.store.last_committed())
            .map(|b| b.height())
            .unwrap_or_default();
        self.catch_up_outstanding = true;
        out.actions
            .push(Action::Note(Note::CatchUpRequested { view }));
        out.actions.push(Action::Broadcast {
            message: Message::new(
                self.cfg().id,
                view,
                MsgBody::CatchUpRequest { last_committed },
            ),
        });
        if self.cfg().is_leader(view)
            && matches!(&self.high_qc, Justify::One(qc) if qc.phase() == Phase::Prepare)
        {
            self.propose(out);
        }
    }

    // ----------------------------------- Marlin-style view change ----

    fn on_view_change(
        &mut self,
        from: ReplicaId,
        view: View,
        vc: ViewChange,
        out: &mut StepOutput,
    ) {
        if !self.cfg().is_leader(view) {
            return;
        }
        let quorum = self.quorum();
        let round = self.vc_rounds.entry(view).or_default();
        if round.decided {
            return;
        }
        round.msgs.insert(from, vc);
        if round.msgs.len() < quorum {
            return;
        }
        round.decided = true;
        let msgs: Vec<(ReplicaId, ViewChange)> =
            round.msgs.iter().map(|(k, v)| (*k, v.clone())).collect();
        match self.rule {
            CommitRule::TwoChain => self.run_marlin_pre_prepare(view, msgs, out),
            CommitRule::ThreeChain => self.run_hotstuff_new_view(view, msgs, out),
        }
    }

    /// Chained HotStuff's linear new-view: extend the highest prepareQC.
    fn run_hotstuff_new_view(
        &mut self,
        _view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        out: &mut StepOutput,
    ) {
        let mut best: Option<Qc> = None;
        for (_, m) in &msgs {
            if let Some(qc) = m.high_qc.qc() {
                if qc.phase() == Phase::Prepare
                    && self.base.crypto.verify_qc(qc)
                    && best
                        .as_ref()
                        .is_none_or(|b| qc_rank_cmp(qc, b) == Ordering::Greater)
                {
                    best = Some(*qc);
                }
            }
        }
        if let Some(qc) = best {
            self.high_qc = Justify::One(qc);
            self.propose(out);
        }
    }

    /// Chained Marlin's view change — identical to basic Marlin's
    /// (happy path, then V1/V2/V3).
    fn run_marlin_pre_prepare(
        &mut self,
        view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        out: &mut StepOutput,
    ) {
        let first_lb = msgs[0].1.last_voted;
        if msgs.iter().all(|(_, m)| m.last_voted.id == first_lb.id) {
            let seed = ViewChange::happy_seed(&first_lb, view);
            let valid: Vec<_> = msgs
                .iter()
                .filter(|(_, m)| self.base.crypto.verify_partial(&seed, &m.parsig))
                .map(|(_, m)| m.parsig)
                .collect();
            if valid.len() >= self.quorum() {
                if let Some(qc) = self.base.crypto.combine(seed, &valid) {
                    out.actions.push(Action::Note(Note::HappyPathVc { view }));
                    if first_lb.kind == BlockKind::Virtual {
                        if let Some(vc) = Self::find_virtual_vc(&first_lb, &msgs) {
                            self.base
                                .store
                                .resolve_virtual_parent(first_lb.id, vc.block());
                        }
                    }
                    self.high_qc = Justify::One(qc);
                    self.propose(out);
                    return;
                }
            }
        }

        let mut qcs: Vec<(Qc, Option<Qc>)> = Vec::new();
        for (_, m) in &msgs {
            if !self.base.crypto.verify_justify(&m.high_qc) {
                continue;
            }
            match m.high_qc {
                Justify::One(qc) => qcs.push((qc, None)),
                Justify::Two(pre, vc) => {
                    qcs.push((pre, Some(vc)));
                    qcs.push((vc, None));
                }
                Justify::None => {}
            }
        }
        if qcs.is_empty() {
            return;
        }
        let top_rank = qcs
            .iter()
            .map(|(qc, _)| qc)
            .max_by(|a, b| qc_rank_cmp(a, b))
            .copied()
            .expect("nonempty");
        let top: Vec<(Qc, Option<Qc>)> = qcs
            .iter()
            .filter(|(qc, _)| qc_rank_cmp(qc, &top_rank) == Ordering::Equal)
            .cloned()
            .collect();
        let metas: Vec<BlockMeta> = msgs.iter().map(|(_, m)| m.last_voted).collect();
        let bv = *highest_block(metas.iter()).expect("quorum is nonempty");

        let batch = self.base.take_batch();
        let round = self.vc_rounds.entry(view).or_default();
        round.candidates.clear();
        let mut blocks: Vec<Block> = Vec::new();
        let (first, first_vc) = top[0];
        if first.phase() == Phase::Prepare {
            let qc = first;
            if block_rank_gt(&bv, &Self::meta_of_qc(&qc)) {
                out.actions.push(Action::Note(Note::UnhappyPathVc {
                    view,
                    case: VcCase::V1,
                }));
                blocks.push(Block::new_normal(
                    qc.block(),
                    qc.block_view(),
                    view,
                    qc.height().next(),
                    batch.clone(),
                    Justify::One(qc),
                ));
                blocks.push(Block::new_virtual(
                    qc.block_view(),
                    view,
                    qc.height().plus(2),
                    batch,
                    Justify::One(qc),
                ));
            } else {
                out.actions.push(Action::Note(Note::UnhappyPathVc {
                    view,
                    case: VcCase::V2,
                }));
                blocks.push(Block::new_normal(
                    qc.block(),
                    qc.block_view(),
                    view,
                    qc.height().next(),
                    batch,
                    Justify::One(qc),
                ));
            }
        } else if top
            .iter()
            .map(|(qc, _)| qc.block())
            .collect::<std::collections::HashSet<_>>()
            .len()
            == 1
        {
            out.actions.push(Action::Note(Note::UnhappyPathVc {
                view,
                case: VcCase::V2,
            }));
            let justify = match (first.block_kind(), first_vc) {
                (BlockKind::Virtual, Some(vc)) => Justify::Two(first, vc),
                _ => Justify::One(first),
            };
            blocks.push(Block::new_normal(
                first.block(),
                first.block_view(),
                view,
                first.height().next(),
                batch,
                justify,
            ));
        } else {
            out.actions.push(Action::Note(Note::UnhappyPathVc {
                view,
                case: VcCase::V3,
            }));
            let normal = top
                .iter()
                .find(|(qc, _)| qc.block_kind() == BlockKind::Normal);
            let virt = top
                .iter()
                .find(|(qc, _)| qc.block_kind() == BlockKind::Virtual);
            if let Some((qc1, _)) = normal {
                blocks.push(Block::new_normal(
                    qc1.block(),
                    qc1.block_view(),
                    view,
                    qc1.height().next(),
                    batch.clone(),
                    Justify::One(*qc1),
                ));
            }
            if let Some((qc2, Some(vc))) = virt {
                blocks.push(Block::new_normal(
                    qc2.block(),
                    qc2.block_view(),
                    view,
                    qc2.height().next(),
                    batch,
                    Justify::Two(*qc2, *vc),
                ));
            }
            if blocks.is_empty() {
                return;
            }
        }

        for b in &blocks {
            self.base.store_block(b);
            if let Justify::Two(pre, vc) = b.justify() {
                self.base
                    .store
                    .resolve_virtual_parent(pre.block(), vc.block());
            }
            let round = self.vc_rounds.entry(view).or_default();
            round.candidates.push(b.id());
        }
        out.actions.push(Action::Broadcast {
            message: Message::new(
                self.cfg().id,
                view,
                MsgBody::Proposal(Proposal {
                    phase: Phase::PrePrepare,
                    blocks,
                    justify: Justify::None,
                    vc_proof: Vec::new(),
                }),
            ),
        });
    }

    fn find_virtual_vc(lb: &BlockMeta, msgs: &[(ReplicaId, ViewChange)]) -> Option<Qc> {
        msgs.iter().find_map(|(_, m)| match m.high_qc {
            Justify::Two(pre, vc) if pre.block() == lb.id => Some(vc),
            _ => None,
        })
    }

    fn on_pre_prepare_proposal(
        &mut self,
        from: ReplicaId,
        view: View,
        p: Proposal,
        out: &mut StepOutput,
    ) {
        if self.rule != CommitRule::TwoChain {
            return;
        }
        if from != self.cfg().leader_of(view) || p.blocks.is_empty() || p.blocks.len() > 2 {
            return;
        }
        let mut progressed = false;
        for block in &p.blocks {
            if block.view() != view {
                continue;
            }
            let justify = *block.justify();
            let Some(qc) = justify.qc().copied() else {
                continue;
            };
            if qc.view() >= view || !self.base.crypto.verify_justify(&justify) {
                continue;
            }
            let structural = match block.kind() {
                BlockKind::Normal => {
                    block.parent_id() == Some(qc.block())
                        && block.height() == qc.height().next()
                        && block.pview() == qc.block_view()
                }
                BlockKind::Virtual => {
                    qc.phase() == Phase::Prepare
                        && block.height() == qc.height().plus(2)
                        && block.pview() == qc.block_view()
                        && matches!(justify, Justify::One(_))
                }
            };
            if !structural {
                continue;
            }
            if let Justify::Two(pre, vc) = &justify {
                let pair_ok = pre.block_kind() == BlockKind::Virtual
                    && vc.phase() == Phase::Prepare
                    && vc.view() == pre.pview()
                    && vc.height() == pre.height().prev();
                if !pair_ok {
                    continue;
                }
                self.base
                    .store
                    .resolve_virtual_parent(pre.block(), vc.block());
            }
            let mut attach = None;
            let r1 = qc_rank_ge(&qc, self.locked_qc.as_ref());
            let r2 = !r1
                && block.kind() == BlockKind::Virtual
                && qc.phase() == Phase::Prepare
                && self
                    .locked_qc
                    .as_ref()
                    .is_some_and(|l| l.view() == qc.view() && l.height() == qc.height().next());
            let r3 = !r1
                && !r2
                && qc.phase() == Phase::PrePrepare
                && self
                    .locked_qc
                    .as_ref()
                    .is_some_and(|l| l.block() == qc.block());
            if r2 {
                attach = self.locked_qc;
            }
            if !(r1 || r2 || r3) {
                continue;
            }
            // Write-ahead: a pre-prepare vote changes no block-level
            // safety state, but the view it is cast in must be durable.
            if !self.journal_view_durable(view, Phase::PrePrepare, out) {
                continue;
            }
            self.base.store_block(block);
            let seed = block.vote_seed(Phase::PrePrepare, view);
            let parsig = self.base.crypto.sign_seed(&seed);
            out.actions.push(Action::Send {
                to: from,
                message: Message::new(
                    self.cfg().id,
                    view,
                    MsgBody::Vote(Vote {
                        seed,
                        parsig,
                        locked_qc: attach,
                    }),
                ),
            });
            progressed = true;
        }
        if progressed {
            self.base.progress_timer(out);
        }
    }

    fn on_pre_prepare_vote(&mut self, v: Vote, out: &mut StepOutput) {
        if self.rule != CommitRule::TwoChain {
            return;
        }
        let view = self.base.cview;
        if v.seed.view != view || !self.cfg().is_leader(view) {
            return;
        }
        let quorum = self.quorum();
        let Some(round) = self.vc_rounds.get_mut(&view) else {
            return;
        };
        if round.advanced || !round.candidates.contains(&v.seed.block) {
            return;
        }
        // Record a validating prepareQC from a Case R2 voter. As in
        // the non-chained leader, only a vc that resolves the round's
        // virtual candidate (the `pair_ok` shape) may occupy the slot,
        // and matching attachments keep being accepted rather than
        // latching whichever arrived first.
        if let Some(vc) = v.locked_qc {
            let virt = round
                .candidates
                .iter()
                .find_map(|id| self.base.store.get(id).filter(|b| b.is_virtual()))
                .map(|b| (b.pview(), b.height()));
            if let Some((pview, height)) = virt {
                let fits = vc.phase() == Phase::Prepare
                    && vc.view() == pview
                    && vc.height() == height.prev()
                    && self.base.crypto.verify_qc(&vc);
                if fits {
                    let round = self.vc_rounds.get_mut(&view).expect("exists");
                    round.virtual_vc = Some(vc);
                }
            }
        }
        if let Some(qc) =
            crate::votes::add_vote_noted(&mut self.votes, &v, quorum, &mut self.base.crypto, out)
        {
            out.actions.push(Action::Note(Note::QcFormed {
                phase: Phase::PrePrepare,
                view: qc.view(),
                height: qc.height(),
            }));
            let round = self.vc_rounds.get_mut(&view).expect("exists");
            match qc.block_kind() {
                BlockKind::Normal => {
                    round.advanced = true;
                    self.high_qc = Justify::One(qc);
                    self.propose(out);
                }
                BlockKind::Virtual => match round.virtual_vc {
                    Some(vc) => {
                        round.advanced = true;
                        self.base
                            .store
                            .resolve_virtual_parent(qc.block(), vc.block());
                        self.high_qc = Justify::Two(qc, vc);
                        self.propose(out);
                    }
                    None => round.stashed_virtual_qc = Some(qc),
                },
            }
        } else if let Some(round) = self.vc_rounds.get_mut(&view) {
            if !round.advanced {
                if let (Some(pre), Some(vc)) = (round.stashed_virtual_qc, round.virtual_vc) {
                    round.advanced = true;
                    self.base
                        .store
                        .resolve_virtual_parent(pre.block(), vc.block());
                    self.high_qc = Justify::Two(pre, vc);
                    self.propose(out);
                }
            }
        }
    }

    fn handle(&mut self, event: Event) -> StepOutput {
        let mut out = StepOutput::empty();
        match event {
            Event::Start => {
                // Idempotent: a replica that already joined a view
                // (e.g. via a commit certificate that arrived before
                // its start event) must not regress.
                if self.base.cview == View::GENESIS {
                    self.enter_view(View(1), &mut out);
                    if self.cfg().is_leader(View(1)) {
                        self.propose(&mut out);
                    }
                }
            }
            Event::Message(msg) => self.on_message(msg, &mut out),
            Event::Timeout { view } => {
                if view == self.base.cview {
                    self.start_view_change(view.next(), &mut out);
                }
            }
            Event::NewTransactions(txs) => {
                self.base.add_transactions(txs, &mut out);
                if self.cfg().is_leader(self.base.cview) && self.outstanding.is_none() {
                    self.idle_beats = 0;
                    self.propose(&mut out);
                }
            }
            Event::Heartbeat => {
                if self.cfg().is_leader(self.base.cview) && self.outstanding.is_none() {
                    let tail_open = self.high_qc.qc().is_some_and(|qc| self.tail_open(qc));
                    if !self.base.mempool.is_empty() || tail_open {
                        // Real work (or an open pipeline tail): propose
                        // now. The pipeline drives itself from here, no
                        // re-arm needed.
                        self.idle_beats = 0;
                        self.propose(&mut out);
                    } else {
                        // Idle: keep the heartbeat armed so transactions
                        // arriving later are picked up promptly, but emit
                        // a keep-alive block only every
                        // `IDLE_BEATS_PER_BLOCK`th beat instead of on
                        // every one — sustained quiet periods otherwise
                        // spam empty blocks 4× per base timeout.
                        self.idle_beats += 1;
                        out.actions.push(Action::SetHeartbeat {
                            delay_ns: self.base.cfg.base_timeout_ns / 4,
                        });
                        if self.idle_beats.is_multiple_of(IDLE_BEATS_PER_BLOCK) {
                            self.propose(&mut out);
                        }
                    }
                }
            }
            Event::Recovered => self.on_recovered(&mut out),
        }
        self.base.finish(self.journal.as_mut(), out)
    }
}

/// Chained (pipelined) Marlin: one broadcast per block, two-chain
/// commits, Marlin's linear view change.
#[derive(Clone, Debug)]
pub struct ChainedMarlin(Chained);

impl ChainedMarlin {
    /// Creates a replica in the pre-start state.
    pub fn new(config: Config) -> Self {
        ChainedMarlin(Chained::new(config, CommitRule::TwoChain, "chained-marlin"))
    }

    /// Creates a replica that write-ahead journals every safety-state
    /// transition to `journal` *before* the corresponding vote can
    /// leave the replica.
    pub fn with_journal(config: Config, journal: SafetyJournal) -> Self {
        ChainedMarlin(Chained::with_journal(
            config,
            CommitRule::TwoChain,
            "chained-marlin",
            journal,
        ))
    }

    /// Creates a replica whose safety state is reconstructed from a
    /// durable journal (amnesia-safe restart). Feed
    /// [`Event::Recovered`] to re-arm timers and solicit commits formed
    /// while the replica was down.
    pub fn recover(config: Config, journal: SafetyJournal) -> Self {
        ChainedMarlin(Chained::recover(
            config,
            CommitRule::TwoChain,
            "chained-marlin",
            journal,
        ))
    }

    /// The attached safety journal, if any.
    pub fn journal(&self) -> Option<&SafetyJournal> {
        self.0.journal.as_ref()
    }

    /// The last block this replica voted for.
    pub fn last_voted(&self) -> &BlockMeta {
        &self.0.lb
    }

    /// The current lock, if any.
    pub fn locked_qc(&self) -> Option<&Qc> {
        self.0.locked_qc.as_ref()
    }

    /// The replica's `highQC`.
    pub fn high_qc(&self) -> &Justify {
        &self.0.high_qc
    }
}

impl Protocol for ChainedMarlin {
    fn config(&self) -> &Config {
        &self.0.base.cfg
    }

    fn current_view(&self) -> View {
        self.0.base.cview
    }

    fn store(&self) -> &BlockStore {
        &self.0.base.store
    }

    fn mempool_len(&self) -> usize {
        self.0.base.mempool.len()
    }

    fn maintain_crypto(&mut self, max_verified: usize) -> crate::CryptoCacheStats {
        self.0.base.maintain_crypto(max_verified)
    }

    fn locked_qc(&self) -> Option<&Qc> {
        self.0.locked_qc.as_ref()
    }

    fn name(&self) -> &'static str {
        self.0.name
    }

    fn on_event(&mut self, event: Event) -> StepOutput {
        self.0.handle(event)
    }
}

/// Chained (pipelined) HotStuff: one broadcast per block, three-chain
/// commits, HotStuff's linear new-view.
#[derive(Clone, Debug)]
pub struct ChainedHotStuff(Chained);

impl ChainedHotStuff {
    /// Creates a replica in the pre-start state.
    pub fn new(config: Config) -> Self {
        ChainedHotStuff(Chained::new(
            config,
            CommitRule::ThreeChain,
            "chained-hotstuff",
        ))
    }

    /// Creates a replica that write-ahead journals every safety-state
    /// transition to `journal` *before* the corresponding vote can
    /// leave the replica.
    pub fn with_journal(config: Config, journal: SafetyJournal) -> Self {
        ChainedHotStuff(Chained::with_journal(
            config,
            CommitRule::ThreeChain,
            "chained-hotstuff",
            journal,
        ))
    }

    /// Creates a replica whose safety state is reconstructed from a
    /// durable journal (amnesia-safe restart). Feed
    /// [`Event::Recovered`] to re-arm timers and solicit commits formed
    /// while the replica was down.
    pub fn recover(config: Config, journal: SafetyJournal) -> Self {
        ChainedHotStuff(Chained::recover(
            config,
            CommitRule::ThreeChain,
            "chained-hotstuff",
            journal,
        ))
    }

    /// The attached safety journal, if any.
    pub fn journal(&self) -> Option<&SafetyJournal> {
        self.0.journal.as_ref()
    }

    /// The last block this replica voted for.
    pub fn last_voted(&self) -> &BlockMeta {
        &self.0.lb
    }

    /// The current lock, if any.
    pub fn locked_qc(&self) -> Option<&Qc> {
        self.0.locked_qc.as_ref()
    }

    /// The replica's `highQC`.
    pub fn high_qc(&self) -> &Justify {
        &self.0.high_qc
    }
}

impl Protocol for ChainedHotStuff {
    fn config(&self) -> &Config {
        &self.0.base.cfg
    }

    fn current_view(&self) -> View {
        self.0.base.cview
    }

    fn store(&self) -> &BlockStore {
        &self.0.base.store
    }

    fn mempool_len(&self) -> usize {
        self.0.base.mempool.len()
    }

    fn maintain_crypto(&mut self, max_verified: usize) -> crate::CryptoCacheStats {
        self.0.base.maintain_crypto(max_verified)
    }

    fn locked_qc(&self) -> Option<&Qc> {
        self.0.locked_qc.as_ref()
    }

    fn name(&self) -> &'static str {
        self.0.name
    }

    fn on_event(&mut self, event: Event) -> StepOutput {
        self.0.handle(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Cluster;
    use crate::ProtocolKind;

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
