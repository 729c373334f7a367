//! One replica skeleton for the whole protocol family.
//!
//! Marlin, basic HotStuff, the Jolteon-style baseline, the two
//! ablations (insecure two-phase, four-phase) and the two chained
//! (pipelined) protocols share everything except a handful of rules:
//! the vote-safety predicate, where the lock and `highQC` are raised,
//! the phase ladder, the commit rule, and the shape of the view-change
//! proof. [`Replica`] owns the shared machine — the pacemaker and
//! message buffering ([`Base`]), `lb` / `lockedQC` / `highQC`, vote
//! collection, the optional write-ahead journal, per-view `VIEW-CHANGE`
//! collection, digest proposals when `Config::dissemination` is on, and
//! the event loop — and is statically generic over a
//! [`Rules`] implementation holding only what is the protocol's own
//! (DESIGN.md §18 tabulates the seven rule sets).
//!
//! Rules never call back into the skeleton: a hook that wants the
//! leader to propose returns [`Next::Propose`].

use crate::config::Config;
use crate::events::{Action, Event, Note, StepOutput};
use crate::journal::SafetyJournal;
use crate::payload::PayloadOutcome;
use crate::util::{Base, Protocol};
use crate::votes::VoteCollector;
use marlin_crypto::Signature;
use marlin_types::rank::{block_rank_gt, qc_rank_cmp};
use marlin_types::{
    BatchId, Block, BlockId, BlockMeta, BlockStore, Decide, Justify, Message, MsgBody, Phase,
    Proposal, Qc, QcSeed, ReplicaId, VcCert, View, ViewChange, Vote,
};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Debug;

/// What a rule hook asks the skeleton to do once it returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub enum Next {
    /// Nothing further.
    Idle,
    /// The leader now holds a justify valid for this view: propose.
    Propose,
}

/// Which safety state a vote raises to the justify it was cast on:
/// `highQC` to the justify itself, the lock to the QC
/// [`Rules::lock_target`] names (the justify's own, unless the rule set
/// locks deeper in the chain). The raise is journaled before the vote
/// is emitted and applied after (write-ahead voting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adopt {
    /// The vote raises nothing.
    Nothing,
    /// The vote raises `highQC` (through [`Rules::adopt_high`]).
    High,
    /// The vote raises the lock, if the QC outranks the current one.
    Lock,
    /// The vote raises both.
    Both,
}

/// Digest proposals a replica parks at once while their batches are
/// fetched; further ones are dropped until the view changes.
const MAX_PARKED_DIGESTS: usize = 32;

/// A digest proposal parked while its batch is fetched.
#[derive(Clone, Debug)]
struct ParkedDigest {
    /// The proposing leader (and first fetch target).
    from: ReplicaId,
    /// The proposal's justify, replayed once the batch resolves.
    justify: Justify,
    /// The fetch was already fanned out to all replicas after the
    /// proposer answered `None` — don't broadcast again per response.
    fanned_out: bool,
}

/// Per-view state: the `VIEW-CHANGE` messages a leader collected plus
/// the protocol's own per-view extras. Rounds below the current view
/// are pruned on view entry, so nothing per-view can outlive its view.
#[derive(Clone, Debug, Default)]
pub struct VcRound<X> {
    /// Received `VIEW-CHANGE` messages, one per sender.
    msgs: HashMap<ReplicaId, ViewChange>,
    /// Set once the leader has acted on a quorum.
    pub(crate) decided: bool,
    /// The protocol's per-view extras ([`Rules::Round`]).
    pub(crate) ext: X,
}

/// The replica state every rule set shares.
#[derive(Clone, Debug)]
pub struct Core<X> {
    pub(crate) base: Base,
    /// Metadata of the last block voted in a prepare phase (`lb`).
    pub(crate) lb: BlockMeta,
    /// The lock (`lockedQC`); `None` until the first lock.
    pub(crate) locked_qc: Option<Qc>,
    /// `highQC` — what this replica reports in `VIEW-CHANGE` messages.
    pub(crate) high_qc: Justify,
    /// Leader: vote shares per seed.
    pub(crate) votes: VoteCollector,
    /// Leader: the block currently going through its phases.
    pub(crate) in_flight: Option<BlockId>,
    /// Leader: view-change rounds by view.
    pub(crate) rounds: HashMap<View, VcRound<X>>,
    /// Digest proposals of the current view whose batch is still being
    /// fetched, replayed when the `PAYLOAD-RESPONSE` arrives. Bounded:
    /// one per digest, at most `MAX_PARKED_DIGESTS`, and purged on
    /// leaving the view: those fetches will never be replayed, and
    /// their slots must not crowd out future ones.
    parked_digests: HashMap<BatchId, ParkedDigest>,
    /// Highest view each member has attested, indexed by replica id
    /// (length `n`, so an id outside the cluster has no slot). A future
    /// `VIEW-CHANGE` attests its view by a share that verifies for its
    /// sender; a `CATCH-UP` response's header view rests on the link's
    /// binding of its sender. The f+1 view join reads only this map.
    peer_views: Vec<View>,
    /// A broadcast `CATCH-UP` request is awaiting its first response
    /// (drives the catch-up round-trip telemetry).
    catch_up_outstanding: bool,
    /// Consecutive heartbeats on which this replica, as an idle leader,
    /// had nothing to propose; paces keep-alive blocks
    /// ([`Rules::IDLE_BEATS_PER_BLOCK`]). Deliberately not per-view: a
    /// quiet period spans views.
    idle_beats: u32,
    /// Write-ahead safety journal; `None` runs without durability.
    pub(crate) journal: Option<SafetyJournal>,
}

impl<X: Default> Core<X> {
    fn new(config: Config) -> Self {
        Core {
            peer_views: vec![View::GENESIS; config.n],
            base: Base::new(config),
            lb: BlockMeta::genesis(),
            locked_qc: None,
            high_qc: Justify::One(Qc::genesis(BlockId::GENESIS)),
            votes: VoteCollector::new(),
            in_flight: None,
            rounds: HashMap::new(),
            parked_digests: HashMap::new(),
            catch_up_outstanding: false,
            idle_beats: 0,
            journal: None,
        }
    }

    pub(crate) fn cfg(&self) -> &Config {
        &self.base.cfg
    }

    /// The current view's leader round, created on first use.
    pub(crate) fn round_mut(&mut self, view: View) -> &mut VcRound<X> {
        self.rounds.entry(view).or_default()
    }

    /// Raises `highQC` to `qc` if it outranks the current one.
    pub(crate) fn raise_high(&mut self, qc: &Qc) {
        let cur = self.high_qc.qc();
        if cur.is_none_or(|cur| qc_rank_cmp(qc, cur) == Ordering::Greater) {
            self.high_qc = Justify::One(*qc);
        }
    }

    /// Adds a vote share, with first-share telemetry
    /// (see [`crate::votes::add_vote_noted`]).
    pub(crate) fn add_vote(&mut self, v: &Vote, out: &mut StepOutput) -> Option<Qc> {
        let quorum = self.base.cfg.quorum();
        let formed =
            crate::votes::add_vote_noted(&mut self.votes, v, quorum, &mut self.base.crypto, out);
        if let Some(qc) = &formed {
            out.actions.push(Action::Note(Note::QcFormed {
                phase: qc.phase(),
                view: qc.view(),
                height: qc.height(),
            }));
        }
        formed
    }

    /// Signs `seed` and sends the vote to `to`, attaching `locked_qc`
    /// (Marlin's Case R2 / the four-phase NACK). Private: a rule set can
    /// only put a vote on the wire through [`Core::cast_vote`] or
    /// [`Core::cast_pre_prepare_vote`], which journal first.
    fn send_vote(
        &mut self,
        to: ReplicaId,
        seed: QcSeed,
        locked_qc: Option<Qc>,
        out: &mut StepOutput,
    ) {
        let parsig = self.base.crypto.sign_seed(&seed);
        let vote = Vote {
            seed,
            parsig,
            locked_qc,
        };
        if to != self.base.cfg.id {
            out.actions.push(Action::Note(Note::voted(&seed)));
        }
        out.actions.push(Action::Send {
            to,
            message: Message::new(self.base.cfg.id, seed.view, MsgBody::Vote(vote)),
        });
    }

    /// Broadcasts a proposal for the current view.
    pub(crate) fn broadcast_proposal(&mut self, proposal: Proposal, out: &mut StepOutput) {
        out.actions.push(Action::Broadcast {
            message: Message::new(
                self.base.cfg.id,
                self.base.cview,
                MsgBody::Proposal(proposal),
            ),
        });
    }

    /// Casts a pre-prepare vote (or NACK) for `seed`, attaching
    /// `locked_qc`. Write-ahead: such a vote changes no block-level
    /// safety state, but the view it is cast in must be durable.
    /// Returns whether the vote was sent.
    pub(crate) fn cast_pre_prepare_vote(
        &mut self,
        to: ReplicaId,
        seed: QcSeed,
        locked_qc: Option<Qc>,
        out: &mut StepOutput,
    ) -> bool {
        let durable = self.journal_view_durable(seed.view, Phase::PrePrepare, out);
        if durable {
            self.send_vote(to, seed, locked_qc, out);
        }
        durable
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

    /// Write-ahead voting: every safety delta the vote implies (the new
    /// `lb` for a prepare vote, `highQC`, any lock raise) must be
    /// durable before the vote can reach the wire. On a failed append
    /// the replica abstains, and its in-memory state must not outrun
    /// the journal either.
    fn cast_vote<R: Rules<Round = X>>(
        &mut self,
        to: ReplicaId,
        seed: QcSeed,
        voted: Option<BlockMeta>,
        justify: Justify,
        adopt: Adopt,
        out: &mut StepOutput,
    ) {
        let high = matches!(adopt, Adopt::High | Adopt::Both).then_some(justify);
        let lock = justify
            .qc()
            .filter(|_| matches!(adopt, Adopt::Lock | Adopt::Both))
            .and_then(|qc| R::lock_target(self, qc));
        if let Some(j) = self.journal.as_mut() {
            let res = voted
                .map_or(Ok(()), |meta| j.log_last_voted(&meta))
                .and_then(|()| high.map_or(Ok(()), |h| j.log_high_qc(&h)))
                .and_then(|()| lock.as_ref().map_or(Ok(()), |l| j.log_lock(l)));
            if res.is_err() {
                let phase = seed.phase;
                out.actions.push(Action::Note(Note::VoteWithheld { phase }));
                return;
            }
        }
        self.send_vote(to, seed, None, out);
        if let Some(meta) = voted {
            self.lb = meta;
        }
        if let Some(high) = high {
            R::adopt_high(self, high);
        }
        let cur = self.locked_qc;
        if let Some(lock) = lock.filter(|l| cur.is_none_or(|c| qc_rank_cmp(l, &c).is_gt())) {
            self.locked_qc = Some(lock);
            let lock = marlin_telemetry::Lock::of(&lock);
            out.actions.push(Action::Note(Note::Locked { lock }));
        }
        R::after_vote(self, &justify, to, out);
        // A valid proposal is progress: keep the view timer fresh.
        self.base.progress_timer(out);
    }

    /// The highest-ranked verified QC reported in a quorum of
    /// `VIEW-CHANGE` messages (`prepare_only` skips other phases),
    /// adopted as `highQC`.
    pub(crate) fn adopt_highest_reported(
        &mut self,
        msgs: &[(ReplicaId, ViewChange)],
        prepare_only: bool,
    ) -> Option<Qc> {
        let mut best: Option<Qc> = None;
        for (_, m) in msgs {
            if let Some(qc) = m.high_qc.qc() {
                if (!prepare_only || qc.phase() == Phase::Prepare)
                    && self.base.crypto.verify_qc(qc)
                    && best
                        .as_ref()
                        .is_none_or(|b| qc_rank_cmp(qc, b) == Ordering::Greater)
                {
                    best = Some(*qc);
                }
            }
        }
        if let Some(qc) = &best {
            self.raise_high(qc);
        }
        best
    }
}

/// Whether `block` is a well-formed child of the block `qc` certifies.
pub(crate) fn extends(block: &Block, qc: &Qc) -> bool {
    block.parent_id() == Some(qc.block())
        && block.height() == qc.height().next()
        && block.pview() == qc.block_view()
}

/// A normal block proposed in `view` on top of the block `qc` certifies.
pub(crate) fn child_of(qc: &Qc, view: View, batch: marlin_types::Batch, justify: Justify) -> Block {
    Block::new_normal(
        qc.block(),
        qc.block_view(),
        view,
        qc.height().next(),
        batch,
        justify,
    )
}

/// What one protocol of the family decides for itself. Everything else
/// is [`Replica`]. Hooks with a default are no-ops for protocols that
/// do not have the corresponding rule. A rule set is stateless: what it
/// must remember lives in [`Core`], per view in [`Rules::Round`].
pub trait Rules: Clone + Debug {
    /// Per-view state beyond the collected `VIEW-CHANGE`s.
    type Round: Clone + Debug + Default + Send;

    /// Protocol name, e.g. `"marlin"`.
    const NAME: &'static str;

    /// The phase whose QC commits a block — the top rung of the ladder.
    /// Votes for rungs above it are not collected, and it is the one
    /// phase a `CATCH-UP` response may serve or carry. `Prepare` for
    /// the chained protocols, whose commit certificate is the
    /// `prepareQC` that completed the k-chain.
    const COMMIT_CERT: Phase = Phase::Commit;

    /// The direct links (consecutive height, same view) a commit
    /// certificate needs above it before its block counts as committed:
    /// 0 for a ladder, whose `commitQC` proves the commit alone; k − 1
    /// for a k-chain, whose `prepareQC` proves only certification. The
    /// sync engine installs and commits on nothing less (DESIGN.md §14.1).
    const COMMIT_LINKS: usize = 0;

    /// Idle pacing: a leader with nothing to propose keeps its
    /// heartbeat armed and emits one keep-alive block per this many
    /// idle beats.
    const IDLE_BEATS_PER_BLOCK: u32 = 1;

    /// Idle pacing: the heartbeat armed when a round closes with
    /// nothing to propose is the base timeout divided by this.
    const CLOSED_ROUND_BEAT: u64 = 4;

    /// The vote-safety predicate for a `PREPARE` proposal of `block`
    /// (already checked: sent by the leader of `view`, built in `view`,
    /// outranking `lb`). Verifies the justify and returns what voting
    /// commits the replica to, or `None` to withhold the vote.
    fn vote_rule(
        core: &mut Core<Self::Round>,
        view: View,
        block: &Block,
        p: &Proposal,
    ) -> Option<Adopt>;

    /// The phase ladder, replica side: whether a `broadcast`-phase
    /// message may carry a QC of phase `carried`, and what voting for
    /// it raises.
    fn broadcast_rule(broadcast: Phase, carried: Phase) -> Option<Adopt>;

    /// The phase ladder, leader side: the phase a freshly formed
    /// `prepareQC` is broadcast in (`COMMIT` for a two-phase commit,
    /// `PRE-COMMIT` for a three-phase one). `None` when the `prepareQC`
    /// climbs no further rung: it closes the round and travels as the
    /// next proposal's justify (chained).
    fn on_prepare_qc(_core: &Core<Self::Round>, _qc: &Qc, _out: &mut StepOutput) -> Option<Phase> {
        Some(Phase::Commit)
    }

    /// The QC a lock-raising vote on `justify` locks on: the justify
    /// itself, or a certificate deeper in its chain (three-chain).
    fn lock_target(_core: &Core<Self::Round>, justify: &Qc) -> Option<Qc> {
        Some(*justify)
    }

    /// A vote on `justify` was just sent to `leader` and its raises
    /// applied: the chained commit rule runs here, between the vote and
    /// the view-timer refresh.
    fn after_vote(
        _core: &mut Core<Self::Round>,
        _justify: &Justify,
        _leader: ReplicaId,
        _out: &mut StepOutput,
    ) {
    }

    /// Records `justify` as `highQC`. The default keeps the highest
    /// QC seen; Marlin tracks the justify of its latest vote instead.
    fn adopt_high(core: &mut Core<Self::Round>, justify: Justify) {
        if let Some(qc) = justify.qc() {
            core.raise_high(qc);
        }
    }

    /// Extra certificate carried in this replica's `VIEW-CHANGE`.
    fn view_change_cert(_core: &mut Core<Self::Round>, _target: View) -> Option<Signature> {
        None
    }

    /// Whether a `VIEW-CHANGE` counts towards the leader's quorum.
    fn usable_view_change(_vc: &ViewChange) -> bool {
        true
    }

    /// Whether a message from a view above ours proves that view
    /// started, so the replica enters it instead of buffering. A
    /// commit certificate is such a proof for every rule set (see
    /// `on_commit_cert`); this hook is for protocols that have no
    /// `DECIDE` to synchronise on.
    fn proves_view(_core: &mut Core<Self::Round>, _msg: &Message) -> bool {
        false
    }

    /// The new leader's decision on `n − f` `VIEW-CHANGE` messages for
    /// `view`, handed over sorted by sender.
    fn on_new_view(
        core: &mut Core<Self::Round>,
        view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        out: &mut StepOutput,
    ) -> Next;

    /// Whether the leader may propose on its `highQC` now, and the
    /// view-change proof to attach. `fresh` says the QC is valid for
    /// `view` on its face (genesis, or formed in `view`); proposing on
    /// an older QC needs the new-view decision first, or every replica
    /// would reject the proposal and stall the view.
    fn proposal_licence(
        _core: &mut Core<Self::Round>,
        _view: View,
        fresh: bool,
    ) -> Option<Vec<VcCert>> {
        fresh.then(Vec::new)
    }

    /// Case N2: the already-certified block the leader must re-broadcast
    /// instead of extending `highQC` (Case N1, the default).
    fn reproposed_block(_core: &Core<Self::Round>) -> Option<BlockId> {
        None
    }

    /// Replica handling of a `PRE-PREPARE` proposal.
    fn on_pre_prepare(
        _core: &mut Core<Self::Round>,
        _from: ReplicaId,
        _view: View,
        _p: Proposal,
        _out: &mut StepOutput,
    ) {
    }

    /// Leader handling of a current-view `PRE-PREPARE` vote.
    fn on_pre_prepare_vote(_core: &mut Core<Self::Round>, _v: Vote, _out: &mut StepOutput) -> Next {
        Next::Idle
    }

    /// Idle pacing: whether certified-but-uncommitted payload is still
    /// in flight behind the block `qc` certifies, so the leader must
    /// keep proposing even with nothing new to propose.
    fn tail_open(_core: &Core<Self::Round>, _qc: &Qc) -> bool {
        false
    }
}

/// A replica running rule set `R`.
#[derive(Clone, Debug)]
pub struct Replica<R: Rules> {
    pub(crate) core: Core<R::Round>,
}

impl<R: Rules> Replica<R> {
    /// Creates a replica in the pre-start state; feed [`Event::Start`].
    pub fn new(config: Config) -> Self {
        Replica {
            core: Core::new(config),
        }
    }

    /// Creates a replica that write-ahead journals every safety-state
    /// transition (view entries, `lb`, lock and `highQC` raises) to
    /// `journal` *before* the corresponding vote can leave the replica.
    pub fn with_journal(config: Config, journal: SafetyJournal) -> Self {
        let mut replica = Self::new(config);
        replica.core.journal = Some(journal);
        replica
    }

    /// Creates a replica whose safety state is reconstructed from a
    /// durable journal (amnesia-safe restart): it resumes in the
    /// journaled view with the journaled `lb`, lock and `highQC`, so it
    /// cannot re-vote in a slot it voted in before the crash. Feed
    /// [`Event::Recovered`] to re-arm timers and solicit commits formed
    /// while the replica was down.
    pub fn recover(config: Config, journal: SafetyJournal) -> Self {
        let snapshot = *journal.state();
        let mut replica = Self::with_journal(config, journal);
        replica.core.lb = snapshot.last_voted;
        replica.core.locked_qc = snapshot.locked_qc;
        if !matches!(snapshot.high_qc, Justify::None) {
            replica.core.high_qc = snapshot.high_qc;
        }
        if snapshot.view > View::GENESIS {
            replica.core.base.cview = snapshot.view;
        }
        replica
    }

    /// The attached safety journal, if any.
    pub fn journal(&self) -> Option<&SafetyJournal> {
        self.core.journal.as_ref()
    }

    /// The current lock, if any.
    pub fn locked_qc(&self) -> Option<&Qc> {
        self.core.locked_qc.as_ref()
    }

    /// The replica's `highQC`.
    pub fn high_qc(&self) -> &Justify {
        &self.core.high_qc
    }

    /// Metadata of the last voted block.
    pub fn last_voted(&self) -> &BlockMeta {
        &self.core.lb
    }

    fn idle_leader(&self) -> bool {
        self.core.cfg().is_leader(self.core.base.cview) && self.core.in_flight.is_none()
    }

    fn follow(&mut self, next: Next, out: &mut StepOutput) {
        if next == Next::Propose {
            self.propose(out);
        }
    }

    /// The in-flight block reached the top of its ladder with `qc`: the
    /// leader starts the next round at once while there is something to
    /// propose — or, pipelined, certified payload still short of its
    /// commit — and otherwise paces empty proposals with a heartbeat.
    fn close_round(&mut self, qc: &Qc, out: &mut StepOutput) {
        let core = &mut self.core;
        core.in_flight = None;
        if core.base.work_pending() || R::tail_open(core, qc) {
            self.propose(out);
        } else {
            out.actions.push(Action::SetHeartbeat {
                delay_ns: core.base.cfg.base_timeout_ns / R::CLOSED_ROUND_BEAT,
            });
        }
    }

    /// Enters `view` and reprocesses any buffered messages; refuses
    /// (`false`) a view above [`View::MAX`], which the journal could not
    /// replay, so a replica at the ceiling stays there.
    fn enter_view(&mut self, view: View, out: &mut StepOutput) -> bool {
        if view > View::MAX {
            return false;
        }
        self.core.votes.clear();
        self.core.in_flight = None;
        // Durable before actionable: a replica recovering from its
        // journal must not re-enter an older view. Failure here is
        // tolerated (view regression costs liveness, not safety — votes
        // are guarded by the separately-journaled `lb` and lock).
        if let Some(j) = self.core.journal.as_mut() {
            let _ = j.log_view(view);
        }
        let drained = self.core.base.enter_view(view, out);
        self.core.rounds.retain(|v, _| *v >= view);
        self.core.parked_digests.clear();
        // View entry is also a retransmission opportunity for sealed
        // batches whose availability quorum stalled in the old view.
        self.core.base.payload_tick(out);
        for msg in drained {
            let sub = self.on_event(Event::Message(msg));
            out.merge(sub);
        }
        true
    }

    /// Times out of the current view and joins the view change for
    /// `target` (normally `cview + 1`).
    fn start_view_change(&mut self, target: View, out: &mut StepOutput) {
        if target > View::MAX {
            return; // `enter_view` refuses it
        }
        out.actions.push(Action::Note(Note::ViewChangeStarted {
            from_view: self.core.base.cview,
        }));
        self.enter_view(target, out);
        let core = &mut self.core;
        let parsig = core
            .base
            .crypto
            .sign_seed(&ViewChange::happy_seed(&core.lb, target));
        let cert = R::view_change_cert(core, target);
        let msg = Message::new(
            core.cfg().id,
            target,
            MsgBody::ViewChange(ViewChange {
                last_voted: core.lb,
                high_qc: core.high_qc,
                parsig,
                cert,
            }),
        );
        // The happy-path share inside a VIEW-CHANGE is combinable into a
        // prepareQC for `lb`, so it is write-ahead journaled like any
        // other vote: the target view must be durable before it is sent.
        if !core.journal_view_durable(target, Phase::Prepare, out) {
            return;
        }
        out.actions.push(Action::Send {
            to: core.cfg().leader_of(target),
            message: msg,
        });
    }

    /// Leader: proposes per the normal-case rules (N1/N2).
    ///
    /// A leader may only propose once it holds a justify that is valid
    /// for the current view (the genesis QC, a prepareQC formed in this
    /// view — including the happy-path view-change QC — a fresh
    /// pre-prepareQC, or whatever [`Rules::proposal_licence`] admits).
    /// Proposing earlier (e.g. when client transactions arrive before
    /// the view change completes) would be rejected by every replica
    /// and stall the view.
    fn propose(&mut self, out: &mut StepOutput) {
        let core = &mut self.core;
        let view = core.base.cview;
        debug_assert!(core.cfg().is_leader(view));
        if core.in_flight.is_some() {
            return;
        }
        let Some(qc) = core.high_qc.qc().copied() else {
            return;
        };
        let fresh = qc.is_genesis() || qc.view() == view;
        let Some(vc_proof) = R::proposal_licence(core, view, fresh) else {
            return;
        };
        let justify = core.high_qc;
        let mut digest = None;
        let block = if let Some(id) = R::reproposed_block(core) {
            // Case N2: re-broadcast the pre-prepared block. (Only a
            // leader recovered from its journal can lack it: the
            // pre-prepareQC is durable, the block tree is not.)
            let Some(block) = core.base.store.get(&id).cloned() else {
                return;
            };
            block
        } else {
            // Case N1: extend the block of highQC. With dissemination
            // on, the broadcast names a digest the availability quorum
            // already holds; the full block is still built and stored
            // here. A view-change proof rides only in a full proposal.
            if core.base.cfg.dissemination && vc_proof.is_empty() {
                core.base.seal_payloads(out);
                digest = core.base.payloads.pop_ready();
                if digest.is_none() && core.base.payloads.has_work() {
                    // Sealed batches are still collecting acks; proposing
                    // their transactions inline now would double-spend
                    // the batch. The quorum ack re-triggers this proposal
                    // — and the heartbeat keeps the payload tick
                    // (retransmit, expiry) running so lost pushes cannot
                    // leave the leader silent until the view times out.
                    out.actions.push(Action::SetHeartbeat {
                        delay_ns: core.base.cfg.base_timeout_ns / 4,
                    });
                    return;
                }
            }
            let batch = match &digest {
                Some(d) => core
                    .base
                    .payloads
                    .batch(d)
                    .cloned()
                    .expect("ready digests are pinned"),
                None => core.base.take_batch(),
            };
            let block = child_of(&qc, view, batch, justify);
            core.base.store_block(&block);
            block
        };
        core.in_flight = Some(block.id());
        out.actions.push(Action::Note(Note::Proposed {
            view,
            height: block.height(),
            phase: Phase::Prepare,
        }));
        let body = match digest {
            Some(digest) => MsgBody::DigestProposal { digest, justify },
            None => MsgBody::Proposal(Proposal {
                phase: Phase::Prepare,
                blocks: vec![block],
                justify,
                vc_proof,
            }),
        };
        let message = Message::new(core.cfg().id, view, body);
        out.actions.push(Action::Broadcast { message });
    }

    // ------------------------------------------------- message paths --

    fn on_message(&mut self, msg: Message, out: &mut StepOutput) {
        if self.core.base.handle_fetch(&msg, out) {
            return;
        }
        // Sync traffic (snapshot/range requests and responses) is
        // view-independent on both the serving and the fetching side.
        if self.core.base.handle_sync::<R>(&msg, out) {
            return;
        }
        // Payload-plane traffic (push/ack/fetch) is view-independent:
        // batches outlive the view they were sealed in.
        match self.core.base.handle_payload(&msg, out) {
            PayloadOutcome::NotPayload => {}
            PayloadOutcome::Consumed => return,
            PayloadOutcome::QuorumReached => {
                // A digest became proposable; an idle leader proposes.
                if self.idle_leader() {
                    self.propose(out);
                }
                return;
            }
            PayloadOutcome::Resolved(digest) => {
                // Parked proposals are always for the current view.
                if let Some(p) = self.core.parked_digests.remove(&digest) {
                    let view = self.core.base.cview;
                    self.on_digest_proposal(p.from, view, digest, p.justify, out);
                }
                return;
            }
            PayloadOutcome::Unavailable(digest) => {
                // The fetch target no longer holds the batch (evicted,
                // or crashed and restarted). The proposer is not the
                // only replica that can serve it — every member of the
                // availability quorum stored the push — so fan the
                // fetch out to all replicas once instead of wedging
                // this digest (and, with every parking slot wedged, the
                // whole fallback path) until the view changes.
                if let Some(p) = self.core.parked_digests.get_mut(&digest) {
                    if !p.fanned_out {
                        p.fanned_out = true;
                        self.core.base.broadcast_payload_request(digest, out);
                    }
                }
                return;
            }
        }
        // Decides are valid whenever the commitQC verifies (a DECIDE
        // carries a `commitQC` by definition, whatever `COMMIT_CERT` is).
        if let MsgBody::Decide(Decide { commit_qc }) = &msg.body {
            if commit_qc.phase() == Phase::Commit {
                self.on_commit_cert(*commit_qc, msg.from, out);
            }
            return;
        }
        // Catch-up (crash recovery) messages are likewise
        // view-independent: a recovering replica may be views behind.
        if let MsgBody::CatchUpRequest { last_committed } = &msg.body {
            self.on_catch_up_request(msg.from, *last_committed, out);
            return;
        }
        if let MsgBody::CatchUpResponse { commit_qc } = &msg.body {
            // The first response closes the catch-up round trip.
            if self.core.catch_up_outstanding {
                self.core.catch_up_outstanding = false;
                out.actions.push(Action::Note(Note::CatchUpCompleted {
                    view: self.core.base.cview,
                }));
            }
            // A served commit certificate is handled exactly like a
            // DECIDE: verify, sync views, commit (fetching blocks).
            if let Some(qc) = commit_qc {
                self.on_commit_cert(*qc, msg.from, out);
            }
            self.note_peer_view(msg.from, msg.view, out);
            return;
        }
        if msg.view > self.core.base.cview {
            if R::proves_view(&mut self.core, &msg) {
                if self.enter_view(msg.view, out) {
                    self.on_message(msg, out);
                }
                return;
            }
            // A VIEW-CHANGE whose share verifies for its sender attests
            // that sender's view to the f+1 join (`note_peer_view`).
            let attested = match &msg.body {
                MsgBody::ViewChange(vc) => {
                    let seed = ViewChange::happy_seed(&vc.last_voted, msg.view);
                    vc.parsig.signer() == msg.from.index()
                        && self.core.base.crypto.verify_partial(&seed, &vc.parsig)
                }
                _ => false,
            };
            let (from, view) = (msg.from, msg.view);
            self.core.base.buffer_future(msg);
            if attested {
                self.note_peer_view(from, view, out);
            }
            return;
        }
        if msg.view < self.core.base.cview {
            return; // stale
        }
        let (from, view) = (msg.from, msg.view);
        match msg.body {
            MsgBody::Proposal(p) => match p.phase {
                Phase::Prepare => self.on_prepare(from, view, p, out),
                Phase::PrePrepare => R::on_pre_prepare(&mut self.core, from, view, p, out),
                Phase::PreCommit | Phase::Commit => self.on_qc_broadcast(from, view, p, out),
            },
            MsgBody::Vote(v) => self.on_vote(v, out),
            MsgBody::ViewChange(vc) => self.on_view_change(from, view, vc, out),
            MsgBody::DigestProposal { digest, justify } => {
                self.on_digest_proposal(from, view, digest, justify, out);
            }
            MsgBody::Decide(_)
            | MsgBody::FetchRequest { .. }
            | MsgBody::FetchResponse { .. }
            | MsgBody::CatchUpRequest { .. }
            | MsgBody::CatchUpResponse { .. }
            | MsgBody::SnapshotRequest
            | MsgBody::SnapshotResponse { .. }
            | MsgBody::BlockRangeRequest { .. }
            | MsgBody::BlockRangeResponse { .. }
            | MsgBody::PayloadPush { .. }
            | MsgBody::PayloadAck { .. }
            | MsgBody::PayloadRequest { .. }
            | MsgBody::PayloadResponse { .. } => {
                unreachable!("handled above")
            }
        }
    }

    /// Replica handling of a `DIGEST-PROPOSAL`: resolves the digest
    /// into the full block (the batch was pushed ahead of the proposal)
    /// for the normal Case N1 path. A digest it cannot resolve is
    /// fetched from the proposer and the proposal parked until the
    /// batch arrives.
    fn on_digest_proposal(
        &mut self,
        from: ReplicaId,
        view: View,
        digest: BatchId,
        justify: Justify,
        out: &mut StepOutput,
    ) {
        let core = &mut self.core;
        if from != core.cfg().leader_of(view) {
            return;
        }
        let Some(batch) = core.base.payloads.batch(&digest).cloned() else {
            if core.parked_digests.len() < MAX_PARKED_DIGESTS {
                let parked = ParkedDigest {
                    from,
                    justify,
                    fanned_out: false,
                };
                core.parked_digests.insert(digest, parked);
                core.base.request_payload(digest, from, out);
            }
            return;
        };
        let Justify::One(qc) = justify else {
            return;
        };
        let proposal = Proposal {
            phase: Phase::Prepare,
            blocks: vec![child_of(&qc, view, batch, justify)],
            justify,
            vc_proof: Vec::new(),
        };
        // The leader loops its own broadcast back through this path;
        // `on_prepare` applies the full vote rule.
        self.on_prepare(from, view, proposal, out);
    }

    /// Replica handling of a normal-case `PREPARE` proposal.
    fn on_prepare(&mut self, from: ReplicaId, view: View, p: Proposal, out: &mut StepOutput) {
        let core = &mut self.core;
        if from != core.cfg().leader_of(view) || p.blocks.len() != 1 {
            return;
        }
        let block = &p.blocks[0];
        // The proposal must outrank the last voted block.
        if block.view() != view || !block_rank_gt(&block.meta(), &core.lb) {
            return;
        }
        let Some(adopt) = R::vote_rule(core, view, block, &p) else {
            return;
        };
        core.base.store_block(block);
        let seed = block.vote_seed(Phase::Prepare, view);
        core.cast_vote::<R>(from, seed, Some(block.meta()), p.justify, adopt, out);
    }

    /// Replica handling of a `PRE-COMMIT` / `COMMIT` broadcast carrying
    /// the previous phase's QC.
    fn on_qc_broadcast(&mut self, from: ReplicaId, view: View, p: Proposal, out: &mut StepOutput) {
        let core = &mut self.core;
        if from != core.cfg().leader_of(view) {
            return;
        }
        let Justify::One(qc) = p.justify else { return };
        let Some(adopt) = R::broadcast_rule(p.phase, qc.phase()) else {
            return;
        };
        if qc.view() != view || !core.base.crypto.verify_qc(&qc) {
            return;
        }
        let seed = QcSeed {
            phase: p.phase,
            ..*qc.seed()
        };
        core.cast_vote::<R>(from, seed, None, p.justify, adopt, out);
    }

    /// Leader vote handling: each quorum forms the phase's QC and moves
    /// the in-flight block one rung up the ladder; the top rung closes
    /// the round (a `commitQC` is disseminated first) and starts the
    /// next block.
    fn on_vote(&mut self, v: Vote, out: &mut StepOutput) {
        let core = &mut self.core;
        if v.seed.view != core.base.cview {
            return;
        }
        if v.seed.phase == Phase::PrePrepare {
            let next = R::on_pre_prepare_vote(core, v, out);
            return self.follow(next, out);
        }
        if v.seed.phase > R::COMMIT_CERT || Some(v.seed.block) != core.in_flight {
            return;
        }
        let Some(qc) = core.add_vote(&v, out) else {
            return;
        };
        let phase = match qc.phase() {
            Phase::Prepare => {
                R::adopt_high(core, Justify::One(qc));
                match R::on_prepare_qc(core, &qc, out) {
                    Some(phase) => phase,
                    None => return self.close_round(&qc, out),
                }
            }
            Phase::PreCommit => Phase::Commit,
            Phase::Commit => {
                out.actions.push(Action::Broadcast {
                    message: Message::new(
                        core.cfg().id,
                        core.base.cview,
                        MsgBody::Decide(Decide { commit_qc: qc }),
                    ),
                });
                // Next proposal: highQC is the prepareQC for the decided
                // block, so Case N1 extends it.
                return self.close_round(&qc, out);
            }
            Phase::PrePrepare => unreachable!("routed to the rules above"),
        };
        core.broadcast_proposal(
            Proposal {
                phase,
                blocks: Vec::new(),
                justify: Justify::One(qc),
                vc_proof: Vec::new(),
            },
            out,
        );
    }

    /// Anyone handling a disseminated or served commit certificate.
    fn on_commit_cert(&mut self, qc: Qc, from: ReplicaId, out: &mut StepOutput) {
        if qc.is_genesis() || qc.phase() != R::COMMIT_CERT || !self.core.base.crypto.verify_qc(&qc)
        {
            return;
        }
        // A certificate from a future view is also a view-synchronisation
        // signal: join that view (without a VIEW-CHANGE — we missed it).
        if qc.view() > self.core.base.cview {
            self.enter_view(qc.view(), out);
        }
        self.core.base.commit_or_sync(qc, from, out);
    }

    // --------------------------------------------------- view change --

    /// New leader: collect `VIEW-CHANGE` messages for `view`.
    fn on_view_change(
        &mut self,
        from: ReplicaId,
        view: View,
        vc: ViewChange,
        out: &mut StepOutput,
    ) {
        let core = &mut self.core;
        if !core.cfg().is_leader(view) || !R::usable_view_change(&vc) {
            return;
        }
        let quorum = core.cfg().quorum();
        let round = core.round_mut(view);
        if round.decided {
            return;
        }
        round.msgs.insert(from, vc);
        if round.msgs.len() < quorum {
            return;
        }
        round.decided = true;
        // Move the collected messages out instead of deep-cloning the
        // map (`decided` above keeps later arrivals from re-entering).
        // Sorting by sender makes the leader's decision — and anything
        // it puts on the wire — independent of HashMap iteration order.
        let mut msgs: Vec<(ReplicaId, ViewChange)> =
            std::mem::take(&mut round.msgs).into_iter().collect();
        msgs.sort_unstable_by_key(|(id, _)| *id);
        let next = R::on_new_view(core, view, msgs, out);
        self.follow(next, out);
    }

    /// Answers a recovering peer's `CATCH-UP` request.
    fn on_catch_up_request(
        &mut self,
        from: ReplicaId,
        last_committed: marlin_types::Height,
        out: &mut StepOutput,
    ) {
        let core = &self.core;
        if from == core.cfg().id {
            return; // our own broadcast, looped back
        }
        // Always answer: even with no newer commit to serve, the
        // response header carries our current view, which is the
        // attestation a recovering replica needs to resynchronize
        // (commits may have stopped precisely because it was down).
        let commit_qc = core
            .base
            .latest_commit_qc
            .filter(|qc| qc.height() > last_committed);
        out.actions.push(Action::Note(Note::CatchUpServed {
            view: core.base.cview,
            newer: commit_qc.is_some(),
        }));
        out.actions.push(Action::Send {
            to: from,
            message: Message::new(
                core.cfg().id,
                core.base.cview,
                MsgBody::CatchUpResponse { commit_qc },
            ),
        });
    }

    /// The f+1 view join: records a member's attested view (a verified
    /// future `VIEW-CHANGE`, or a `CATCH-UP` response header) and joins
    /// the highest view that `f + 1` distinct members have reached, if
    /// it is above ours. An id outside the cluster is dropped.
    ///
    /// Taking the `(f + 1)`-th highest attestation bounds the jump to a
    /// view some *honest* replica actually entered — up to `f`
    /// Byzantine members can inflate their own claims but cannot drag
    /// us past every honest peer. With linear view changes this is how
    /// the next leader enters its view before its own timer fires, and
    /// how a recovered replica, which overhears no `VIEW-CHANGE`
    /// traffic, stops trailing its peers' timer backoff.
    fn note_peer_view(&mut self, from: ReplicaId, view: View, out: &mut StepOutput) {
        let core = &mut self.core;
        if from == core.cfg().id {
            return;
        }
        let Some(slot) = core.peer_views.get_mut(from.index()) else {
            return;
        };
        *slot = (*slot).max(view);
        let mut above: Vec<View> = core
            .peer_views
            .iter()
            .copied()
            .filter(|v| *v > core.base.cview)
            .collect();
        if above.len() <= core.cfg().f {
            return;
        }
        above.sort_unstable_by(|a, b| b.cmp(a));
        let target = above[core.cfg().f];
        self.start_view_change(target, out);
    }
}

impl<R: Rules> Protocol for Replica<R> {
    fn config(&self) -> &Config {
        &self.core.base.cfg
    }

    fn current_view(&self) -> View {
        self.core.base.cview
    }

    fn store(&self) -> &BlockStore {
        &self.core.base.store
    }

    fn mempool_len(&self) -> usize {
        self.core.base.mempool.len()
    }

    fn maintain_crypto(&mut self, max_verified: usize) -> crate::CryptoCacheStats {
        self.core.base.maintain_crypto(max_verified)
    }

    fn name(&self) -> &'static str {
        R::NAME
    }

    fn on_event(&mut self, event: Event) -> StepOutput {
        let mut out = StepOutput::empty();
        let heartbeat = Action::SetHeartbeat {
            delay_ns: self.core.base.cfg.base_timeout_ns / 4,
        };
        match event {
            Event::Start => {
                // Idempotent: a replica that already joined a view
                // (e.g. via a commit certificate that arrived before
                // its start event) must not regress.
                if self.core.base.cview == View::GENESIS {
                    self.enter_view(View(1), &mut out);
                    if self.core.cfg().is_leader(View(1)) {
                        self.propose(&mut out);
                    }
                }
            }
            Event::Message(msg) => self.on_message(msg, &mut out),
            Event::Timeout { view } => {
                // Stale timers (for views already left) are ignored.
                if view == self.core.base.cview {
                    self.start_view_change(view.next(), &mut out);
                }
            }
            Event::NewTransactions(txs) => {
                self.core.base.add_transactions(txs, &mut out);
                // Push freshly admitted payloads ahead of leadership:
                // dissemination overlaps with whatever is in flight.
                self.core.base.seal_payloads(&mut out);
                if self.idle_leader() {
                    self.core.idle_beats = 0;
                    self.propose(&mut out);
                }
                // Keep the heartbeat armed while this replica has sealed
                // batches in flight, so the payload plane's
                // retransmit/expiry clock keeps ticking. Leaders get
                // heartbeats from the proposal path anyway; this covers
                // non-leaders, whose seals would otherwise never age
                // (and a lost push would wedge their dissemination
                // window until the next time they lead). `has_work` is
                // only ever true once batches are sealed.
                if self.core.base.payloads.has_work() {
                    out.actions.push(heartbeat);
                }
            }
            Event::Heartbeat => {
                // Drive the sync engine first: deadlines, re-dispatch,
                // re-arm (no-op without an active run).
                self.core.base.sync_tick(&mut out);
                // Then the payload plane's retransmit/expiry clock, so
                // stalled seals are re-pushed and eventually abandoned.
                self.core.base.payload_tick(&mut out);
                if self.idle_leader() {
                    let core = &mut self.core;
                    if core.base.work_pending()
                        || core.high_qc.qc().is_some_and(|qc| R::tail_open(core, qc))
                    {
                        // Real work (or an open pipeline tail): propose
                        // now. The rounds drive themselves from here,
                        // no re-arm needed.
                        core.idle_beats = 0;
                        self.propose(&mut out);
                    } else {
                        // Idle: keep the heartbeat armed so transactions
                        // arriving later are picked up promptly, but
                        // emit a keep-alive block only every
                        // `IDLE_BEATS_PER_BLOCK`th beat — a pipelined
                        // leader proposing on every one would spam
                        // empty blocks 4× per base timeout.
                        core.idle_beats = core.idle_beats.wrapping_add(1);
                        out.actions.push(heartbeat.clone());
                        if core.idle_beats.is_multiple_of(R::IDLE_BEATS_PER_BLOCK) {
                            self.propose(&mut out);
                        }
                    }
                }
                if self.core.base.payloads.has_work() {
                    out.actions.push(heartbeat);
                }
            }
            Event::Recovered => {
                // Pre-crash timers died with the process: re-arm the view
                // timer so the replica can time out of a stale view. Then
                // ask peers for commit certificates formed while this
                // replica was down; each response's header also feeds
                // the f+1 view join.
                let core = &mut self.core;
                let view = core.base.cview;
                let lock = core.locked_qc.as_ref().map(marlin_telemetry::Lock::of);
                let store = &core.base.store;
                let last_committed = store
                    .get(&store.last_committed())
                    .map(|b| b.height())
                    .unwrap_or_default();
                core.catch_up_outstanding = true;
                out.actions.extend([
                    Action::Note(Note::Recovered { view, lock }),
                    Action::SetTimer {
                        view,
                        delay_ns: core.base.pacemaker.delay_for(view),
                    },
                    Action::Note(Note::CatchUpRequested { view }),
                    Action::Broadcast {
                        message: Message::new(
                            core.cfg().id,
                            view,
                            MsgBody::CatchUpRequest { last_committed },
                        ),
                    },
                ]);
                // The view's leader re-proposes on a plain prepareQC:
                // Case N1 needs only the QC's metadata; Case N2 would
                // need the pre-prepared block itself, which did not
                // survive the crash.
                let plain =
                    matches!(core.high_qc, Justify::One(qc) if qc.phase() == Phase::Prepare);
                if core.cfg().is_leader(view) && plain {
                    self.propose(&mut out);
                }
            }
        }
        self.core.base.finish(self.core.journal.as_mut(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chained::{ChainedHotStuffRules, ChainedMarlinRules};
    use crate::hotstuff::HotStuffRules;
    use crate::jolteon::JolteonRules;
    use crate::marlin::MarlinRules;
    use crate::marlin_four_phase::FourPhaseRules;
    use crate::two_phase_insecure::TwoPhaseInsecureRules;

    /// A genesis-state `VIEW-CHANGE` for `view` from replica `from`
    /// (certificate included, so every rule set counts it).
    fn view_change(cfg: &Config, from: u32, view: View) -> Message {
        let genesis = Qc::genesis(BlockId::GENESIS);
        let lb = BlockMeta::genesis();
        let signer = cfg.keys.signer(from as usize);
        let parsig = signer.sign_partial(&ViewChange::happy_seed(&lb, view).signing_bytes());
        let cert = signer.sign(&VcCert::signing_bytes(ReplicaId(from), view, &genesis));
        Message::new(
            ReplicaId(from),
            view,
            MsgBody::ViewChange(ViewChange {
                last_voted: lb,
                high_qc: Justify::One(genesis),
                parsig,
                cert: Some(cert),
            }),
        )
    }

    /// Regression: the per-view "leader already decided" flag used to
    /// live in a map that view entry never pruned, so a long-lived
    /// replica leaked one entry per view it led. All per-view leader
    /// state now sits in `rounds`, pruned on every view entry.
    fn led_views_leave_no_state_behind<R: Rules>() {
        let cfg = Config::for_test(4, 1).with_id(ReplicaId(2));
        let mut replica = Replica::<R>::new(cfg.clone());
        replica.step(Event::Start);
        // Replica 2 leads views 2 and 6; a quorum of VIEW-CHANGEs pulls
        // it into each (f+1 join rule) and makes it decide there.
        for target in [View(2), View(6)] {
            for from in [0, 1, 3] {
                replica.step(Event::Message(view_change(&cfg, from, target)));
            }
            assert_eq!(replica.current_view(), target, "{}", R::NAME);
            let rounds = &replica.core.rounds;
            assert!(rounds[&target].decided, "{}: leader never decided", R::NAME);
            assert!(
                rounds.keys().all(|v| *v >= target),
                "{}: stale leader rounds {:?} in {target:?}",
                R::NAME,
                rounds.keys().collect::<Vec<_>>()
            );
        }
        // Leaving the led view for one it does not lead drops the rest.
        replica.step(Event::Timeout { view: View(6) });
        assert_eq!(replica.current_view(), View(7));
        assert!(replica.core.rounds.is_empty(), "{}", R::NAME);
    }

    #[test]
    fn no_leader_state_survives_its_view() {
        led_views_leave_no_state_behind::<MarlinRules>();
        led_views_leave_no_state_behind::<HotStuffRules>();
        led_views_leave_no_state_behind::<JolteonRules>();
        led_views_leave_no_state_behind::<TwoPhaseInsecureRules>();
        led_views_leave_no_state_behind::<FourPhaseRules>();
        led_views_leave_no_state_behind::<ChainedMarlinRules>();
        led_views_leave_no_state_behind::<ChainedHotStuffRules>();
    }
}
