//! The [`Protocol`] trait and replica plumbing shared by every protocol
//! implementation (message buffering, mempool, commits, block fetch).

use crate::config::Config;
use crate::crypto_ctx::{CryptoCacheStats, CryptoCtx};
use crate::events::{Action, Event, Note, StepOutput};
use crate::journal::SafetyJournal;
use crate::pacemaker::Pacemaker;
use crate::payload::{PayloadOutcome, PayloadPlane};
use marlin_mempool::{Mempool, MempoolConfig};
use marlin_types::{
    Batch, BatchId, Block, BlockId, BlockStore, CommitError, Message, MsgBody, Qc, ReplicaId,
    Transaction, TxView, View,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// A consensus protocol as a deterministic state machine any thread may step.
///
/// Implementations only define [`Protocol::on_event`]; drivers call
/// [`Protocol::step`], which additionally routes self-addressed sends
/// and the replica's own copy of broadcasts back into the machine (a
/// leader is also a voter).
pub trait Protocol: Send {
    /// The replica's configuration.
    fn config(&self) -> &Config;

    /// The replica's current view.
    fn current_view(&self) -> View;

    /// The replica's block tree.
    fn store(&self) -> &BlockStore;

    /// The replica's current lock, if the protocol keeps one. Exposed
    /// so cross-replica invariant checkers can relate locks to the
    /// committed chain; the default is lock-free.
    fn locked_qc(&self) -> Option<&Qc> {
        None
    }

    /// Transactions currently resident in the replica's mempool.
    /// Exposed so overload campaigns can assert memory boundedness;
    /// wrapper shims delegate to the wrapped replica.
    fn mempool_len(&self) -> usize {
        0
    }

    /// Handles one event. Drivers should call [`Protocol::step`] instead.
    fn on_event(&mut self, event: Event) -> StepOutput;

    /// Protocol name, e.g. `"marlin"`.
    fn name(&self) -> &'static str;

    /// Bounds the replica's crypto caches (verified-QC set trimmed to
    /// at most `max_verified` entries, oldest first) and reports their
    /// health. Long-running drivers call this periodically so the
    /// caches cannot grow without bound; the default is a no-op for
    /// protocol shims without a crypto context.
    fn maintain_crypto(&mut self, _max_verified: usize) -> CryptoCacheStats {
        CryptoCacheStats::default()
    }

    /// This replica's id.
    fn id(&self) -> ReplicaId {
        self.config().id
    }

    /// Handles `event` and drains all resulting self-deliveries.
    ///
    /// Returned actions contain no `Send` addressed to this replica;
    /// `Broadcast`s remain (for the other replicas) but have already
    /// been applied locally, so drivers must not loop them back.
    fn step(&mut self, event: Event) -> StepOutput {
        let mut result = StepOutput::empty();
        let mut queue = VecDeque::new();
        queue.push_back(event);
        let mut guard = 0usize;
        while let Some(ev) = queue.pop_front() {
            guard += 1;
            assert!(
                guard < 100_000,
                "self-delivery loop runaway in {}",
                self.name()
            );
            let out = self.on_event(ev);
            result.cpu_ns += out.cpu_ns;
            result.crypto_ns += out.crypto_ns;
            result.journal_ns += out.journal_ns;
            for action in out.actions {
                match action {
                    Action::Send { to, message } if to == self.id() => {
                        queue.push_back(Event::Message(message));
                    }
                    Action::Broadcast { ref message } => {
                        queue.push_back(Event::Message(message.clone()));
                        result.actions.push(action);
                    }
                    other => result.actions.push(other),
                }
            }
        }
        result
    }
}

/// How many committed blocks back the in-memory tree keeps before
/// pruning (the paper checkpoints every 5000 blocks; the durable record
/// lives in `marlin-storage`).
const PRUNE_INTERVAL: u64 = 5_000;

/// Payload ticks for which sealing is suspended after a seal expired
/// without its availability quorum. While suspended, proposals carry
/// their batches inline — the degraded-but-live path — instead of
/// immediately re-sealing the requeued transactions into a push that
/// is likely to be lost again.
const PAYLOAD_BACKOFF_TICKS: u32 = 4;

/// Maximum sealed batches in flight (pushed, awaiting their
/// availability quorum or proposal) per replica. Two keeps the push
/// pipe full without building a deep sealed backlog: batches sealed
/// long before their proposal slot age in the payload store and
/// inflate end-to-end latency under overload.
const DISSEMINATION_WINDOW: usize = 2;

/// State common to every replica implementation.
#[derive(Clone, Debug)]
pub(crate) struct Base {
    pub cfg: Config,
    pub crypto: CryptoCtx,
    pub store: BlockStore,
    pub pacemaker: Pacemaker,
    pub cview: View,
    pub mempool: Mempool,
    /// Payload-dissemination bookkeeping; empty unless
    /// `cfg.dissemination` (see [`crate::payload`]).
    pub(crate) payloads: PayloadPlane,
    /// Remaining payload ticks of the post-expiry sealing backoff
    /// (see [`PAYLOAD_BACKOFF_TICKS`]).
    payload_backoff: u32,
    /// Messages for views we have not entered yet.
    pending_msgs: BTreeMap<View, Vec<Message>>,
    /// Commit certificates whose chains have missing blocks.
    pending_commits: Vec<(Qc, ReplicaId)>,
    /// Outstanding block fetches with an attempt counter: the request is
    /// re-sent periodically so a dropped fetch cannot wedge commits.
    fetching: HashMap<BlockId, u32>,
    /// The highest commit certificate processed so far; served to
    /// recovering replicas that ask for a catch-up.
    pub latest_commit_qc: Option<Qc>,
    commits_since_prune: u64,
    /// Block-sync engine state (snapshot anchors, active run, peer
    /// scores); inert unless `cfg.sync_snapshot_interval > 0`.
    pub(crate) sync: crate::sync::SyncState,
    /// Sync horizon the safety journal should GC below: set when a
    /// snapshot anchor prunes the committed prefix, drained by
    /// [`Base::finish`] after the step.
    pub(crate) journal_gc_due: Option<marlin_types::Height>,
}

impl Base {
    pub fn new(cfg: Config) -> Self {
        let crypto = CryptoCtx::new(&cfg);
        let pacemaker = Pacemaker::new(&cfg);
        let mempool = Mempool::new(MempoolConfig {
            capacity: cfg.mempool_capacity,
            priority_fee_threshold: 0,
        });
        Base {
            cfg,
            crypto,
            store: BlockStore::new(),
            pacemaker,
            cview: View::GENESIS,
            mempool,
            payloads: PayloadPlane::default(),
            payload_backoff: 0,
            pending_msgs: BTreeMap::new(),
            pending_commits: Vec::new(),
            fetching: HashMap::new(),
            latest_commit_qc: None,
            commits_since_prune: 0,
            sync: Default::default(),
            journal_gc_due: None,
        }
    }

    /// Re-arms the current view's failure timer after protocol progress.
    ///
    /// In rotating-leader mode this is a no-op: the rotation timer is
    /// armed once at view entry and must fire on schedule regardless of
    /// progress (progress re-arming would postpone rotation forever).
    pub fn progress_timer(&self, out: &mut StepOutput) {
        if self.pacemaker.rotating() {
            return;
        }
        out.actions.push(Action::SetTimer {
            view: self.cview,
            delay_ns: self.pacemaker.delay_for(self.cview),
        });
    }

    /// Finishes a step: settles the replica's `journal` (if it keeps
    /// one), then moves the crypto charge into `out`, attributed to the
    /// crypto lane (everything a `CryptoCtx` charges is cryptographic
    /// work).
    pub fn finish(
        &mut self,
        journal: Option<&mut SafetyJournal>,
        mut out: StepOutput,
    ) -> StepOutput {
        // A new snapshot anchor pruned the committed prefix this step:
        // let the journal fold away history below the same horizon so
        // long-lived nodes bound journal disk alongside block residency.
        let gc_due = self.journal_gc_due.take();
        if let Some(j) = journal {
            if let Some(horizon) = gc_due {
                let _ = j.gc_below(horizon);
            }
            // Report the step's write-ahead journal IO (appends, bytes,
            // modeled latency). Reported, never charged to the step:
            // folding the modeled cost into the schedule would perturb
            // the deterministic timings the fault-injection campaign
            // pins by fingerprint, and the simulator charges
            // persisted-commit IO to the journal lane itself.
            let io = j.take_io();
            if io.appends > 0 {
                out.actions.push(Action::Note(Note::JournalWrite {
                    appends: io.appends,
                    bytes: io.bytes,
                    cost_ns: io.cost_ns,
                }));
            }
        }
        let crypto_ns = self.crypto.take_charge();
        out.cpu_ns += crypto_ns;
        out.crypto_ns += crypto_ns;
        out
    }

    /// Shared implementation of [`Protocol::maintain_crypto`].
    pub fn maintain_crypto(&mut self, max_verified: usize) -> CryptoCacheStats {
        self.crypto.trim_cache(max_verified);
        self.crypto.cache_stats()
    }

    /// Enters `view`: arms its timer, emits a note, and returns any
    /// buffered messages that are now processable (callers re-feed them
    /// through their handler).
    pub fn enter_view(&mut self, view: View, out: &mut StepOutput) -> Vec<Message> {
        debug_assert!(view > self.cview || self.cview == View::GENESIS);
        self.cview = view;
        out.actions.push(Action::SetTimer {
            view,
            delay_ns: self.pacemaker.delay_for(view),
        });
        out.actions.push(Action::Note(Note::EnteredView {
            view,
            leader: self.cfg.is_leader(view),
        }));
        let mut drained = Vec::new();
        let keep = self.pending_msgs.split_off(&view.next());
        for (_, msgs) in std::mem::replace(&mut self.pending_msgs, keep) {
            drained.extend(msgs);
        }
        drained
    }

    /// Buffers a message for a future view.
    pub fn buffer_future(&mut self, msg: Message) {
        self.pending_msgs.entry(msg.view).or_default().push(msg);
    }

    /// Whether at least `threshold` distinct replicas have buffered
    /// view-change messages for a view above ours — the f+1 join rule.
    pub fn future_view_change_senders(&self, threshold: usize) -> Option<View> {
        let mut senders: HashSet<ReplicaId> = HashSet::new();
        let mut lowest: Option<View> = None;
        for (view, msgs) in self.pending_msgs.iter() {
            for m in msgs {
                if matches!(m.body, MsgBody::ViewChange(_)) {
                    senders.insert(m.from);
                    lowest = Some(lowest.map_or(*view, |l: View| l.min(*view)));
                }
            }
        }
        (senders.len() >= threshold).then_some(lowest.unwrap_or(self.cview.next()))
    }

    /// Drains up to `batch_size` transactions for a new proposal.
    pub fn take_batch(&mut self) -> Batch {
        Batch::new(self.mempool.take(self.cfg.batch_size))
    }

    /// Offers transactions to the mempool under its admission rules
    /// (dedup, capacity). With any mempool knob configured,
    /// the admission outcome is emitted as a note — legacy
    /// configurations stay note-free so their deterministic traces are
    /// byte-identical to before admission control existed.
    pub fn add_transactions(&mut self, txs: Vec<Transaction>, out: &mut StepOutput) {
        let before = self.mempool.stats();
        for tx in txs {
            self.mempool.admit(tx);
        }
        if !self.cfg.mempool_configured() {
            return;
        }
        let after = self.mempool.stats();
        out.actions.push(Action::Note(Note::MempoolAdmission {
            admitted: (after.admitted - before.admitted) as usize,
            duplicates: (after.duplicates - before.duplicates) as usize,
            rejected: (after.rejected_full - before.rejected_full) as usize,
            priority: (after.priority_admitted - before.priority_admitted) as usize,
        }));
    }

    /// Whether a proposer has anything to propose: resident mempool
    /// transactions, or payload batches in flight on the dissemination
    /// plane (sealed awaiting their quorum, or ready digests).
    pub fn work_pending(&self) -> bool {
        !self.mempool.is_empty() || self.payloads.has_work()
    }

    /// Seals mempool transactions into digest-addressed batches and
    /// pushes them to all replicas, up to the dissemination window.
    /// No-op unless `cfg.dissemination`.
    pub fn seal_payloads(&mut self, out: &mut StepOutput) {
        if !self.cfg.dissemination || self.payload_backoff > 0 {
            return;
        }
        while !self.mempool.is_empty() && self.payloads.in_flight() < DISSEMINATION_WINDOW {
            let batch = self.take_batch();
            let digest = batch.digest();
            self.crypto.charge_hash(batch.wire_len());
            out.actions.push(Action::Note(Note::PayloadPushed {
                batch: digest,
                txs: batch.len(),
                bytes: batch.wire_len(),
            }));
            out.actions.push(Action::Broadcast {
                message: Message::new(
                    self.cfg.id,
                    self.cview,
                    MsgBody::PayloadPush {
                        digest,
                        batch: batch.clone(),
                    },
                ),
            });
            self.payloads.seal(digest, batch, self.cfg.id);
        }
    }

    /// Drives the payload plane's retransmit/expiry clock (no-op
    /// without dissemination): sealed batches that missed their
    /// availability quorum are pushed again — the push or its acks may
    /// have been lost to more than `f` peers — and seals that stay
    /// unacked past the expiry horizon are abandoned, their
    /// transactions requeued at the front of the mempool so the next
    /// seal (or inline proposal) carries them. Ticked from heartbeats
    /// and view entries; without it a lost push would occupy one of
    /// the `DISSEMINATION_WINDOW` slots forever and, once every slot
    /// wedged, the replica could never seal — or, as leader, propose —
    /// again.
    pub fn payload_tick(&mut self, out: &mut StepOutput) {
        if !self.cfg.dissemination {
            return;
        }
        self.payload_backoff = self.payload_backoff.saturating_sub(1);
        let tick = self.payloads.tick();
        if !tick.expired.is_empty() {
            self.payload_backoff = PAYLOAD_BACKOFF_TICKS;
        }
        for (digest, batch) in tick.repush {
            out.actions.push(Action::Note(Note::PayloadPushed {
                batch: digest,
                txs: batch.len(),
                bytes: batch.wire_len(),
            }));
            out.actions.push(Action::Broadcast {
                message: Message::new(
                    self.cfg.id,
                    self.cview,
                    MsgBody::PayloadPush { digest, batch },
                ),
            });
        }
        for (digest, batch) in tick.expired {
            let txs = batch.len();
            out.actions
                .push(Action::Note(Note::PayloadExpired { batch: digest, txs }));
            let owned = batch.iter().map(TxView::to_transaction);
            self.mempool.requeue(owned.collect());
        }
    }

    /// Requests a missing payload batch from `source` (the proposer).
    pub fn request_payload(&mut self, digest: BatchId, source: ReplicaId, out: &mut StepOutput) {
        out.actions.push(Action::Send {
            to: source,
            message: Message::new(self.cfg.id, self.cview, MsgBody::PayloadRequest { digest }),
        });
    }

    /// Fans a payload fetch out to every replica — the fallback when
    /// the proposer could not serve it. Any member of the availability
    /// quorum holds the batch, and `n − f ≥ f + 1` guarantees an
    /// honest holder exists if the digest was genuinely quorum-acked.
    pub fn broadcast_payload_request(&mut self, digest: BatchId, out: &mut StepOutput) {
        out.actions.push(Action::Broadcast {
            message: Message::new(self.cfg.id, self.cview, MsgBody::PayloadRequest { digest }),
        });
    }

    /// Handles the payload-plane messages shared by all protocols (push,
    /// ack, fetch). Returns [`PayloadOutcome::NotPayload`] for anything
    /// else; see the other variants for the protocol-visible effects.
    pub(crate) fn handle_payload(&mut self, msg: &Message, out: &mut StepOutput) -> PayloadOutcome {
        let mut reply = Vec::new();
        let outcome = self
            .payloads
            .handle(msg, self.cfg.id, self.cfg.quorum(), &mut reply);
        match &msg.body {
            // Receiving a push costs a digest check over the batch.
            MsgBody::PayloadPush { batch, .. } if msg.from != self.cfg.id => {
                self.crypto.charge_hash(batch.wire_len());
            }
            MsgBody::PayloadResponse {
                batch: Some(batch), ..
            } => {
                self.crypto.charge_hash(batch.wire_len());
            }
            _ => {}
        }
        for (to, body) in reply {
            out.actions.push(Action::Send {
                to,
                message: Message::new(self.cfg.id, self.cview, body),
            });
        }
        match outcome {
            PayloadOutcome::QuorumReached => {
                if let MsgBody::PayloadAck { digest } = &msg.body {
                    out.actions
                        .push(Action::Note(Note::PayloadQuorum { batch: *digest }));
                }
            }
            PayloadOutcome::Resolved(digest) => {
                out.actions
                    .push(Action::Note(Note::PayloadFetched { batch: digest }));
            }
            _ => {}
        }
        outcome
    }

    /// Attempts to commit the chain certified by `qc`, fetching missing
    /// blocks from `from` when necessary.
    pub fn try_commit(&mut self, qc: Qc, from: ReplicaId, out: &mut StepOutput) {
        if self
            .latest_commit_qc
            .as_ref()
            .is_none_or(|cur| qc.height() > cur.height())
        {
            self.latest_commit_qc = Some(qc);
        }
        let block = qc.block();
        match self.store.commit(&block) {
            Ok(newly) if newly.is_empty() => {}
            Ok(newly) => {
                self.commits_since_prune += newly.len() as u64;
                let txs = newly.iter().map(|b| b.payload().len()).sum();
                let height = newly.last().expect("nonempty").height();
                out.actions
                    .push(Action::Note(Note::Committed { height, txs }));
                out.actions.push(Action::Commit { blocks: newly });
                self.pacemaker.record_progress(self.cview);
                // Progress: keep the failure timer fresh (no-op when
                // rotating — see `progress_timer`).
                self.progress_timer(out);
                self.record_anchor_if_due(&qc, out);
                if self.commits_since_prune >= PRUNE_INTERVAL {
                    self.commits_since_prune = 0;
                    let keep_from = self
                        .store
                        .get(&self.store.last_committed())
                        .map(|b| marlin_types::Height(b.height().0.saturating_sub(PRUNE_INTERVAL)))
                        .unwrap_or_default();
                    if self.sync_enabled() {
                        // Committed-prefix GC is owned by the snapshot
                        // horizon (`record_anchor_if_due`); this pass
                        // only clears uncommitted fork garbage, so the
                        // serve horizon stays interval-aligned.
                        self.store.prune(keep_from, usize::MAX);
                    } else {
                        self.store.prune(keep_from, 64);
                    }
                }
            }
            Err(CommitError::MissingAncestor { of, parent }) => {
                let wanted = parent.unwrap_or(of);
                self.pending_commits.push((qc, from));
                self.request_block(wanted, from, out);
            }
            Err(CommitError::UnknownBlock(id)) => {
                self.pending_commits.push((qc, from));
                self.request_block(id, from, out);
            }
            Err(CommitError::ConflictsWithCommitted { block }) => {
                // Locally observable evidence of a safety failure
                // elsewhere (e.g. amnesiac restarts re-voting): the
                // replica keeps its original chain and surfaces the
                // conflict for invariant checkers instead of committing.
                out.actions
                    .push(Action::Note(Note::CommitConflict { block }));
            }
        }
    }

    /// Requests a missing block: from `source` when that is a peer, or
    /// from everyone when the requester would otherwise ask itself
    /// (a leader completing its own chain). Requests are re-sent every
    /// few attempts (and broadcast after repeated failures) so a dropped
    /// fetch cannot permanently wedge the commit pipeline.
    fn request_block(&mut self, wanted: BlockId, source: ReplicaId, out: &mut StepOutput) {
        let attempts = self.fetching.entry(wanted).or_insert(0);
        let n = *attempts;
        *attempts += 1;
        if !n.is_multiple_of(4) {
            return;
        }
        let message = Message::new(
            self.cfg.id,
            self.cview,
            MsgBody::FetchRequest { block: wanted },
        );
        if source == self.cfg.id || n >= 8 {
            out.actions.push(Action::Broadcast { message });
        } else {
            out.actions.push(Action::Send {
                to: source,
                message,
            });
        }
    }

    /// Handles the block-synchronisation messages shared by all
    /// protocols. Returns `true` if the message was consumed.
    pub fn handle_fetch(&mut self, msg: &Message, out: &mut StepOutput) -> bool {
        match &msg.body {
            MsgBody::FetchRequest { block } => {
                if let Some(b) = self.store.get(block) {
                    let virtual_parent = b
                        .is_virtual()
                        .then(|| self.store.parent_id_of(block))
                        .flatten();
                    out.actions.push(Action::Send {
                        to: msg.from,
                        message: Message::new(
                            self.cfg.id,
                            self.cview,
                            MsgBody::FetchResponse {
                                block: b.clone(),
                                virtual_parent,
                            },
                        ),
                    });
                }
                true
            }
            MsgBody::FetchResponse {
                block,
                virtual_parent,
            } => {
                self.fetching.remove(&block.id());
                if self.store.contains(&block.id())
                    && !(block.is_virtual() && virtual_parent.is_some())
                {
                    // Duplicate response: avoid re-running the pending
                    // retries for every copy of a broadcast fetch.
                    return true;
                }
                self.crypto.charge_hash(block.wire_len());
                self.store.insert(block.clone());
                if let (true, Some(pid)) = (block.is_virtual(), virtual_parent) {
                    self.store.resolve_virtual_parent(block.id(), *pid);
                }
                let pending = std::mem::take(&mut self.pending_commits);
                for (qc, from) in pending {
                    self.try_commit(qc, from, out);
                }
                true
            }
            _ => false,
        }
    }

    /// Stores a proposed block (charging hashing cost for its bytes).
    pub fn store_block(&mut self, block: &Block) {
        self.crypto.charge_hash(block.wire_len());
        self.store.insert(block.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use marlin_types::{Justify, Phase};

    fn base() -> Base {
        Base::new(Config::for_test(4, 1))
    }

    fn tx(id: u64) -> Transaction {
        Transaction::new(id, 0, Bytes::new(), 0)
    }

    #[test]
    fn enter_view_arms_timer_and_drains_buffered() {
        let mut b = base();
        let m1 = Message::new(
            ReplicaId(1),
            View(2),
            MsgBody::FetchRequest {
                block: BlockId::GENESIS,
            },
        );
        let m2 = Message::new(
            ReplicaId(2),
            View(5),
            MsgBody::FetchRequest {
                block: BlockId::GENESIS,
            },
        );
        b.buffer_future(m1.clone());
        b.buffer_future(m2);
        let mut out = StepOutput::empty();
        let drained = b.enter_view(View(3), &mut out);
        assert_eq!(drained, vec![m1]);
        assert!(matches!(
            out.actions[0],
            Action::SetTimer { view: View(3), .. }
        ));
        // The view-5 message stays buffered.
        let drained = b.enter_view(View(5), &mut StepOutput::empty());
        assert_eq!(drained.len(), 1);
    }

    #[test]
    fn take_batch_respects_batch_size() {
        let mut b = base();
        b.cfg.batch_size = 3;
        let mut out = StepOutput::empty();
        b.add_transactions((1..=10).map(tx).collect(), &mut out);
        // Legacy configuration: admission emits no note.
        assert_eq!(out.notes().count(), 0);
        let batch = b.take_batch();
        assert_eq!(batch.len(), 3);
        assert_eq!(b.mempool.len(), 7);
    }

    #[test]
    fn configured_mempool_reports_admission() {
        let mut b = base();
        b.cfg.mempool_capacity = 2;
        b.mempool = Mempool::new(MempoolConfig {
            capacity: 2,
            priority_fee_threshold: 0,
        });
        let mut out = StepOutput::empty();
        b.add_transactions(vec![tx(1), tx(1), tx(2), tx(3)], &mut out);
        let note = out.notes().next().expect("admission note");
        assert!(matches!(
            note,
            Note::MempoolAdmission {
                admitted: 2,
                duplicates: 1,
                rejected: 1,
                priority: 0,
            }
        ));
    }

    #[test]
    fn commit_of_known_chain_emits_actions() {
        let mut b = base();
        let g = b.store.genesis().clone();
        let block = Block::new_normal(
            g.id(),
            g.view(),
            View(1),
            g.height().next(),
            Batch::empty(),
            Justify::One(Qc::genesis(g.id())),
        );
        b.store_block(&block);
        let qc = Qc::new(
            block.vote_seed(Phase::Commit, View(1)),
            *Qc::genesis(g.id()).sig(),
        );
        let mut out = StepOutput::empty();
        b.try_commit(qc, ReplicaId(1), &mut out);
        assert_eq!(out.committed_blocks().count(), 1);
        assert!(b.store.is_committed(&block.id()));
    }

    #[test]
    fn commit_with_missing_block_fetches_then_retries() {
        let mut b = base();
        let g = b.store.genesis().clone();
        let b1 = Block::new_normal(
            g.id(),
            g.view(),
            View(1),
            g.height().next(),
            Batch::empty(),
            Justify::One(Qc::genesis(g.id())),
        );
        let b2 = Block::new_normal(
            b1.id(),
            b1.view(),
            View(1),
            b1.height().next(),
            Batch::empty(),
            Justify::One(Qc::genesis(g.id())),
        );
        // Replica has b2 but not b1.
        b.store_block(&b2);
        let qc = Qc::new(
            b2.vote_seed(Phase::Commit, View(1)),
            *Qc::genesis(g.id()).sig(),
        );
        let mut out = StepOutput::empty();
        b.try_commit(qc, ReplicaId(3), &mut out);
        assert_eq!(out.committed_blocks().count(), 0);
        let fetch = out.actions.iter().find_map(|a| match a {
            Action::Send { to, message } => match &message.body {
                MsgBody::FetchRequest { block } => Some((*to, *block)),
                _ => None,
            },
            _ => None,
        });
        assert_eq!(fetch, Some((ReplicaId(3), b1.id())));

        // The response completes the pending commit.
        let resp = Message::new(
            ReplicaId(3),
            View(1),
            MsgBody::FetchResponse {
                block: b1.clone(),
                virtual_parent: None,
            },
        );
        let mut out2 = StepOutput::empty();
        assert!(b.handle_fetch(&resp, &mut out2));
        assert_eq!(out2.committed_blocks().count(), 2);
    }

    #[test]
    fn fetch_request_served_from_store() {
        let mut b = base();
        let req = Message::new(
            ReplicaId(2),
            View(1),
            MsgBody::FetchRequest {
                block: BlockId::GENESIS,
            },
        );
        let mut out = StepOutput::empty();
        assert!(b.handle_fetch(&req, &mut out));
        assert!(matches!(
            &out.actions[0],
            Action::Send { to: ReplicaId(2), message } if matches!(message.body, MsgBody::FetchResponse { .. })
        ));
    }

    #[test]
    fn future_vc_join_rule_counts_distinct_senders() {
        let mut b = base();
        b.cview = View(1);
        let keys = std::sync::Arc::clone(&b.cfg.keys);
        let vc = move |from: u32, view: u64| {
            Message::new(
                ReplicaId(from),
                View(view),
                MsgBody::ViewChange(marlin_types::ViewChange {
                    last_voted: marlin_types::BlockMeta::genesis(),
                    high_qc: Justify::None,
                    parsig: keys.signer(from as usize).sign_partial(b"x"),
                    cert: None,
                }),
            )
        };
        b.buffer_future(vc(1, 2));
        assert!(b.future_view_change_senders(2).is_none());
        b.buffer_future(vc(1, 2)); // duplicate sender does not count twice
        assert!(b.future_view_change_senders(2).is_none());
        b.buffer_future(vc(2, 3));
        assert_eq!(b.future_view_change_senders(2), Some(View(2)));
    }
}
