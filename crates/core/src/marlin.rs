//! The Marlin protocol (Section V of the paper): two-phase normal case,
//! two- or three-phase linear view change — as a rule set over the
//! shared [`Replica`] skeleton.
//!
//! ## Normal case (Figure 6/7)
//!
//! * **Prepare** — the leader proposes a block extending the block of its
//!   `highQC` (Case N1) or re-broadcasts the block certified by a fresh
//!   `pre-prepareQC` after a view change (Case N2). Replicas validate
//!   against their `lockedQC` via the rank rules, vote, and — when the
//!   justify is a `prepareQC` — lock on it.
//! * **Commit** — the leader combines `n − f` prepare votes into a
//!   `prepareQC`, broadcasts it, collects commit votes into a
//!   `commitQC`, and disseminates it; replicas lock on the `prepareQC`
//!   and deliver on the `commitQC`.
//!
//! ## View change (Figure 9)
//!
//! Replicas that time out send `VIEW-CHANGE` messages carrying their
//! last voted block `lb`, their `highQC`, and a partial signature that
//! enables the **happy path**: if all `n − f` view-change messages agree
//! on `lb`, the leader combines the partials directly into a
//! `prepareQC` and skips straight to the prepare phase (two-phase view
//! change). Otherwise the leader runs the **pre-prepare** phase with the
//! leader cases V1/V2/V3 (virtual and shadow blocks) and replicas answer
//! under cases R1/R2/R3; the resulting `pre-prepareQC` unlocks any
//! locked replica with linear communication.
//!
//! ## Marlin-only rules
//!
//! Beyond the paper's cases, this rule set is the only one that hands
//! deep commit lag to the sync engine (and keeps durable snapshot
//! anchors, [`Marlin::with_snapshots`]) and proposes digests when
//! `Config::dissemination` is on; it shares soliciting `CATCH-UP` on
//! recovery with the chained rule sets only. None of that is
//! Marlin-specific in principle; DESIGN.md §18 records why each is
//! still a rule rather than the skeleton's. The view change below is
//! also chained Marlin's: [`crate::chained::ChainedMarlinRules`]
//! delegates to it.

use crate::events::{Action, Note, StepOutput, VcCase};
use crate::replica::{child_of, extends, Adopt, Core, DigestEvent, Next, Replica, Rules};
use marlin_storage::SnapshotStore;
use marlin_types::rank::{block_rank_gt, highest_block, qc_rank_cmp, qc_rank_ge};
use marlin_types::{
    BatchId, Block, BlockId, BlockKind, BlockMeta, Justify, Message, MsgBody, Phase, Proposal, Qc,
    ReplicaId, View, ViewChange, Vote,
};
use std::cmp::Ordering;
use std::collections::HashMap;

/// A replica running Marlin.
///
/// # Example
///
/// ```
/// use marlin_core::{marlin::Marlin, Config, Event, Protocol};
///
/// let cfg = Config::for_test(4, 1);
/// let mut replica = Marlin::new(cfg.with_id(0u32.into()));
/// let out = replica.step(Event::Start);
/// // Replica 1 leads view 1; replica 0 just arms its timer.
/// assert!(!out.actions.is_empty());
/// ```
pub type Marlin = Replica<MarlinRules>;

/// A digest proposal parked while its batch is fetched.
#[derive(Clone, Debug)]
struct PendingDigest {
    /// The proposing leader (and first fetch target).
    from: ReplicaId,
    /// The proposal's justify, replayed once the batch resolves.
    justify: Justify,
    /// The fetch was already fanned out to all replicas after the
    /// proposer answered `None` — don't broadcast again per response.
    fanned_out: bool,
}

/// Per-view state: the leader's view-change pre-prepare phase, and the
/// digest proposals a replica parked in the view.
#[derive(Clone, Debug, Default)]
pub struct MarlinRound {
    /// Blocks proposed in the pre-prepare phase (normal first).
    candidates: Vec<BlockId>,
    /// A `prepareQC` attached by a Case R2 voter, validating the
    /// virtual candidate's parent.
    virtual_vc: Option<Qc>,
    /// A pre-prepareQC for the virtual candidate formed before its
    /// validating `vc` arrived.
    stashed_virtual_qc: Option<Qc>,
    /// Set once the leader moved on to the prepare phase.
    advanced: bool,
    /// Digest proposals whose batch is still being fetched, replayed
    /// when the `PAYLOAD-RESPONSE` arrives. Bounded: one per digest,
    /// and — like the rest of the round — purged on leaving the view:
    /// those fetches will never be replayed, and their slots must not
    /// crowd out future ones.
    pending_digests: HashMap<BatchId, PendingDigest>,
}

/// Marlin's rule set.
#[derive(Clone, Debug)]
pub struct MarlinRules;

type MarlinCore = Core<MarlinRound>;

impl Marlin {
    /// Attaches durable snapshot-anchor storage: the replica records
    /// its periodic sync anchors there and, on construction, installs
    /// the persisted anchor if it is ahead of the journal-rebuilt tip
    /// (a cold or long-crashed replica rejoins from the anchor instead
    /// of replaying the whole chain). Chain with [`Replica::recover`]
    /// for crash recovery.
    #[must_use]
    pub fn with_snapshots(mut self, snapshots: SnapshotStore) -> Self {
        self.core.base.attach_snapshot_store(snapshots);
        self
    }
}

/// Block metadata reconstructed from a QC (rank_boost is only needed
/// on the left of `block_rank_gt`, so `false` is conservative here).
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

/// Whether `(pre, vc)` is a consistent pair: a pre-prepareQC over a
/// virtual block together with the `prepareQC` for its parent slot.
fn pair_ok(pre: &Qc, vc: &Qc) -> bool {
    pre.block_kind() == BlockKind::Virtual
        && vc.phase() == Phase::Prepare
        && vc.view() == pre.pview()
        && vc.height() == pre.height().prev()
}

/// Finds the `vc` accompanying a virtual `lb` in any view-change
/// message's `(qc, vc)` pair, for parent resolution.
fn find_virtual_vc(lb: &BlockMeta, msgs: &[(ReplicaId, ViewChange)]) -> Option<Qc> {
    msgs.iter().find_map(|(_, m)| match m.high_qc {
        Justify::Two(pre, vc) if pre.block() == lb.id => Some(vc),
        _ => None,
    })
}

impl MarlinRules {
    /// Leader: proposes the next quorum-acked digest (Case N1 with
    /// dissemination on). The full block is reconstructed and stored
    /// locally — only the broadcast shrinks to digest size. Returns
    /// `false` when no digest is ready.
    fn propose_ready_digest(core: &mut MarlinCore, qc: Qc, out: &mut StepOutput) -> bool {
        let view = core.base.cview;
        let Some(digest) = core.base.payloads.pop_ready() else {
            return false;
        };
        let batch = core.base.payloads.batch(&digest).cloned();
        let batch = batch.expect("ready digests are pinned in the payload store");
        let block = child_of(&qc, view, batch, Justify::One(qc));
        core.base.store_block(&block);
        core.in_flight = Some(block.id());
        out.actions.push(Action::Note(Note::Proposed {
            view,
            height: block.height(),
            phase: Phase::Prepare,
        }));
        out.actions.push(Action::Broadcast {
            message: Message::new(
                core.cfg().id,
                view,
                MsgBody::DigestProposal {
                    digest,
                    justify: Justify::One(qc),
                },
            ),
        });
        true
    }

    /// Replica: resolves a digest proposal into the full block (the
    /// batch was pushed ahead of the proposal) for the normal Case N1
    /// validation. A digest we cannot resolve is fetched from the
    /// proposer and the proposal replayed on response.
    fn resolve_digest(
        core: &mut MarlinCore,
        from: ReplicaId,
        view: View,
        digest: BatchId,
        justify: Justify,
        out: &mut StepOutput,
    ) -> Option<(ReplicaId, View, Proposal)> {
        if from != core.cfg().leader_of(view) {
            return None;
        }
        let Some(batch) = core.base.payloads.batch(&digest).cloned() else {
            let pending = &mut core.round_mut(view).ext.pending_digests;
            if pending.len() < 32 {
                let parked = PendingDigest {
                    from,
                    justify,
                    fanned_out: false,
                };
                pending.insert(digest, parked);
                core.base.request_payload(digest, from, out);
            }
            return None;
        };
        let Justify::One(qc) = justify else {
            return None;
        };
        let proposal = Proposal {
            phase: Phase::Prepare,
            blocks: vec![child_of(&qc, view, batch, justify)],
            justify,
            vc_proof: Vec::new(),
        };
        Some((from, view, proposal))
    }

    /// The leader's unhappy-path pre-prepare proposal (Cases V1/V2/V3).
    /// Returns the blocks to propose; empty if nothing valid was
    /// reported (the next timeout retries).
    fn pre_prepare_blocks(
        core: &mut MarlinCore,
        view: View,
        msgs: &[(ReplicaId, ViewChange)],
        out: &mut StepOutput,
    ) -> Vec<Block> {
        // Find the highest-ranked QC(s) across all justify fields
        // (verifying each — this is the leader's O(n) pairing /
        // O(n²) conventional-verification cost from Table I).
        let mut qcs: Vec<(Qc, Option<Qc>)> = Vec::new();
        for (_, m) in msgs {
            if !core.base.crypto.verify_justify(&m.high_qc) {
                continue;
            }
            match m.high_qc {
                Justify::One(qc) => {
                    // An unpaired pre-prepareQC over a *virtual* block
                    // is unusable: extending it needs the resolving
                    // `vc`, which honest replicas always report as a
                    // `Justify::Two` pair.
                    if qc.phase() != Phase::PrePrepare || qc.block_kind() != BlockKind::Virtual {
                        qcs.push((qc, None));
                    }
                }
                Justify::Two(pre, vc) => {
                    // Apply the pairing rule replicas enforce
                    // (`pair_ok`): a mismatched pair would yield a
                    // proposal every honest replica rejects.
                    if pair_ok(&pre, &vc) {
                        qcs.push((pre, Some(vc)));
                    }
                    qcs.push((vc, None));
                }
                Justify::None => {}
            }
        }
        let Some(top_rank) = qcs.iter().map(|(qc, _)| *qc).max_by(qc_rank_cmp) else {
            return Vec::new();
        };
        let top: Vec<(Qc, Option<Qc>)> = qcs
            .iter()
            .filter(|(qc, _)| qc_rank_cmp(qc, &top_rank) == Ordering::Equal)
            .cloned()
            .collect();
        let metas: Vec<BlockMeta> = msgs.iter().map(|(_, m)| m.last_voted).collect();
        let bv = *highest_block(metas.iter()).expect("quorum is nonempty");

        let batch = core.base.take_batch();
        let mut note = |case| {
            out.actions
                .push(Action::Note(Note::UnhappyPathVc { view, case }))
        };
        let (first, first_vc) = top[0];
        if first.phase() == Phase::Prepare {
            let qc = first;
            let b1 = child_of(&qc, view, batch.clone(), Justify::One(qc));
            if block_rank_gt(&bv, &meta_of_qc(&qc)) {
                // Case V1: normal + virtual shadow blocks.
                note(VcCase::V1);
                let b2 = Block::new_virtual(
                    qc.block_view(),
                    view,
                    qc.height().plus(2),
                    batch,
                    Justify::One(qc),
                );
                vec![b1, b2]
            } else {
                // Case V2 with a prepareQC: certain-safe snapshot.
                note(VcCase::V2);
                vec![b1]
            }
        } else if top.iter().all(|(qc, _)| qc.block() == first.block()) {
            // Case V2 with a single pre-prepareQC.
            note(VcCase::V2);
            // All top entries certify the same block; the resolving vc
            // may ride on any of them, not necessarily the first.
            let vc_any = first_vc.or_else(|| top.iter().find_map(|(_, vc)| *vc));
            let justify = match (first.block_kind(), vc_any) {
                (BlockKind::Virtual, Some(vc)) => Justify::Two(first, vc),
                _ => Justify::One(first),
            };
            vec![child_of(&first, view, batch, justify)]
        } else {
            // Case V3: two pre-prepareQCs of equal rank (normal+virtual).
            note(VcCase::V3);
            let mut blocks = Vec::new();
            let normal = top
                .iter()
                .find(|(qc, _)| qc.block_kind() == BlockKind::Normal);
            let virt = top
                .iter()
                .find(|(qc, _)| qc.block_kind() == BlockKind::Virtual);
            if let Some((qc1, _)) = normal {
                blocks.push(child_of(qc1, view, batch.clone(), Justify::One(*qc1)));
            }
            if let Some((qc2, Some(vc))) = virt {
                blocks.push(child_of(qc2, view, batch, Justify::Two(*qc2, *vc)));
            }
            blocks
        }
    }
}

impl Rules for MarlinRules {
    type Round = MarlinRound;

    const NAME: &'static str = "marlin";

    /// Cases N1/N2.
    fn vote_rule(core: &mut MarlinCore, view: View, block: &Block, p: &Proposal) -> Option<Adopt> {
        let qc = p.justify.qc().copied()?;
        if !core.base.crypto.verify_justify(&p.justify) {
            return None;
        }
        let lock = core.locked_qc.as_ref();
        match (&p.justify, qc.phase()) {
            // Case N1: justify is the prepareQC of the parent.
            (Justify::One(_), Phase::Prepare) => (extends(block, &qc)
                && (qc.is_genesis() || qc.view() == view)
                && qc_rank_ge(&qc, lock))
            .then_some(Adopt::Both),
            // Case N2: justify is a pre-prepareQC for this very block.
            (justify, Phase::PrePrepare) => {
                if block.id() != qc.block() || qc.view() != view || !qc_rank_ge(&qc, lock) {
                    return None;
                }
                match justify {
                    Justify::One(_) if qc.block_kind() == BlockKind::Normal => {}
                    Justify::Two(_, vc) if pair_ok(&qc, vc) => {
                        core.base
                            .store
                            .resolve_virtual_parent(block.id(), vc.block());
                    }
                    _ => return None,
                }
                Some(Adopt::High)
            }
            _ => None,
        }
    }

    /// Two phases: the `COMMIT` broadcast carries the `prepareQC`, and
    /// voting for it locks on it.
    fn broadcast_rule(broadcast: Phase, carried: Phase) -> Option<Adopt> {
        (broadcast == Phase::Commit && carried == Phase::Prepare).then_some(Adopt::Both)
    }

    /// Marlin's `highQC` is the justify of its latest vote (possibly a
    /// `(pre-prepareQC, vc)` pair), not a running maximum.
    fn adopt_high(core: &mut MarlinCore, justify: Justify) {
        core.high_qc = justify;
    }

    /// The leader's pre-prepare decision (happy path or Cases V1/V2/V3).
    fn on_new_view(
        core: &mut MarlinCore,
        view: View,
        msgs: Vec<(ReplicaId, ViewChange)>,
        out: &mut StepOutput,
    ) -> Next {
        // Happy path: unanimous last-voted block.
        let first_lb = msgs[0].1.last_voted;
        if msgs.iter().all(|(_, m)| m.last_voted.id == first_lb.id) {
            let seed = ViewChange::happy_seed(&first_lb, view);
            let valid: Vec<_> = msgs
                .iter()
                .filter(|(_, m)| core.base.crypto.verify_partial(&seed, &m.parsig))
                .map(|(_, m)| m.parsig)
                .collect();
            // If the unanimous lb is a virtual block, its parent must
            // stay resolvable: extending it is only safe when some
            // view-change message carried the resolving `vc`. With no
            // such vc in the snapshot the happy path would propose a
            // block whose virtual parent no replica can ever resolve —
            // fall through to the unhappy pre-prepare path instead.
            let resolving_vc = find_virtual_vc(&first_lb, &msgs);
            let resolvable = first_lb.kind != BlockKind::Virtual || resolving_vc.is_some();
            if valid.len() >= core.cfg().quorum() && resolvable {
                if let Some(qc) = core.base.crypto.combine(seed, &valid) {
                    out.actions.push(Action::Note(Note::HappyPathVc { view }));
                    if let (BlockKind::Virtual, Some(vc)) = (first_lb.kind, resolving_vc) {
                        core.base
                            .store
                            .resolve_virtual_parent(first_lb.id, vc.block());
                    }
                    core.high_qc = Justify::One(qc);
                    return Next::Propose;
                }
            }
        }

        let blocks = Self::pre_prepare_blocks(core, view, &msgs, out);
        if blocks.is_empty() {
            return Next::Idle;
        }
        for b in &blocks {
            core.base.store_block(b);
            if let Justify::Two(pre, vc) = b.justify() {
                // Make the virtual grandparent resolvable.
                core.base
                    .store
                    .resolve_virtual_parent(pre.block(), vc.block());
            }
        }
        core.round_mut(view).ext.candidates = blocks.iter().map(Block::id).collect();
        core.broadcast_proposal(
            Proposal {
                phase: Phase::PrePrepare,
                blocks,
                justify: Justify::None,
                vc_proof: Vec::new(),
            },
            out,
        );
        Next::Idle
    }

    /// Case N2: `highQC` is a fresh pre-prepareQC (alone or paired
    /// with its `vc`) — re-broadcast the block it certifies.
    fn reproposed_block(core: &MarlinCore) -> Option<BlockId> {
        match core.high_qc {
            Justify::One(qc) if qc.phase() == Phase::Prepare => None,
            Justify::One(pre) | Justify::Two(pre, _) => Some(pre.block()),
            Justify::None => None,
        }
    }

    /// Replica handling of a `PRE-PREPARE` proposal (Cases R1/R2/R3).
    fn on_pre_prepare(
        core: &mut MarlinCore,
        from: ReplicaId,
        view: View,
        p: Proposal,
        out: &mut StepOutput,
    ) {
        if from != core.cfg().leader_of(view) || p.blocks.is_empty() || p.blocks.len() > 2 {
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
            // The justify must have been formed before this view.
            if qc.view() >= view {
                continue;
            }
            if !core.base.crypto.verify_justify(&justify) {
                continue;
            }
            // Structural validity.
            let structural = match block.kind() {
                BlockKind::Normal => extends(block, &qc),
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
            // (qc, vc) pairs must be internally consistent.
            if let Justify::Two(pre, vc) = &justify {
                if !pair_ok(pre, vc) {
                    continue;
                }
                core.base
                    .store
                    .resolve_virtual_parent(pre.block(), vc.block());
            }

            // Voting cases.
            let lock = core.locked_qc.as_ref();
            let r1 = qc_rank_ge(&qc, lock);
            let r2 = !r1
                && block.kind() == BlockKind::Virtual
                && qc.phase() == Phase::Prepare
                && lock.is_some_and(|l| l.view() == qc.view() && l.height() == qc.height().next());
            let r3 = !r1
                && !r2
                && qc.phase() == Phase::PrePrepare
                && lock.is_some_and(|l| l.block() == qc.block());
            if !(r1 || r2 || r3) {
                continue;
            }
            // Case R2 attaches the lock so the leader can validate the
            // virtual block's parent.
            let attach = core.locked_qc.filter(|_| r2);
            let seed = block.vote_seed(Phase::PrePrepare, view);
            if !core.cast_pre_prepare_vote(from, seed, attach, out) {
                continue;
            }
            core.base.store_block(block);
            progressed = true;
        }
        if progressed {
            core.base.progress_timer(out);
        }
    }

    /// Leader handling of pre-prepare votes → forms the `pre-prepareQC`
    /// and advances to the prepare phase.
    fn on_pre_prepare_vote(core: &mut MarlinCore, v: Vote, out: &mut StepOutput) -> Next {
        let view = core.base.cview;
        if !core.cfg().is_leader(view) {
            return Next::Idle;
        }
        let Some(round) = core.rounds.get(&view).map(|r| &r.ext) else {
            return Next::Idle;
        };
        if round.advanced || !round.candidates.contains(&v.seed.block) {
            return Next::Idle;
        }
        // Record a validating prepareQC from a Case R2 voter. Only a
        // vc that resolves this round's *virtual candidate* counts: it
        // must certify the candidate's parent slot (the `pair_ok` rule
        // every replica later applies to `Justify::Two`). An unrelated
        // prepareQC — e.g. one attached by a Byzantine voter — must not
        // occupy the slot, and matching attachments keep being accepted
        // rather than latching whichever arrived first.
        if let Some(vc) = v.locked_qc {
            let virt = round
                .candidates
                .iter()
                .find_map(|id| core.base.store.get(id).filter(|b| b.is_virtual()))
                .map(|b| (b.pview(), b.height()));
            if let Some((pview, height)) = virt {
                let fits = vc.phase() == Phase::Prepare
                    && vc.view() == pview
                    && vc.height() == height.prev()
                    && core.base.crypto.verify_qc(&vc);
                if fits {
                    core.round_mut(view).ext.virtual_vc = Some(vc);
                }
            }
        }
        let formed = core.add_vote(&v, out);
        let round = &mut core.round_mut(view).ext;
        let high = match formed {
            Some(qc) if qc.block_kind() == BlockKind::Normal => Justify::One(qc),
            Some(qc) => match round.virtual_vc {
                Some(vc) => Justify::Two(qc, vc),
                None => {
                    // Wait for a vc or for the normal candidate's QC.
                    round.stashed_virtual_qc = Some(qc);
                    return Next::Idle;
                }
            },
            // A stashed virtual QC becomes usable once a vc arrives.
            None => match (round.stashed_virtual_qc, round.virtual_vc) {
                (Some(pre), Some(vc)) => Justify::Two(pre, vc),
                _ => return Next::Idle,
            },
        };
        round.advanced = true;
        if let Justify::Two(pre, vc) = high {
            core.base
                .store
                .resolve_virtual_parent(pre.block(), vc.block());
        }
        core.high_qc = high;
        Next::Propose
    }

    fn on_new_transactions(core: &mut MarlinCore, out: &mut StepOutput) {
        // Push freshly admitted payloads ahead of leadership:
        // dissemination overlaps with whatever is in flight.
        core.base.seal_payloads(out);
    }

    /// Case N1 with dissemination: propose a digest the availability
    /// quorum already holds, not the batch.
    fn propose_digest(core: &mut MarlinCore, qc: Qc, out: &mut StepOutput) -> bool {
        if !core.base.cfg.dissemination {
            return false;
        }
        core.base.seal_payloads(out);
        if Self::propose_ready_digest(core, qc, out) {
            return true;
        }
        if core.base.payloads.has_work() {
            // Sealed batches are still collecting acks; proposing their
            // transactions inline now would double-spend the batch. The
            // quorum ack re-triggers this proposal — and the heartbeat
            // keeps the payload tick (retransmit, expiry) running so
            // lost pushes cannot leave the leader silent until the view
            // times out.
            out.actions.push(Action::SetHeartbeat {
                delay_ns: core.base.cfg.base_timeout_ns / 4,
            });
            return true;
        }
        false
    }

    fn on_digest(
        core: &mut MarlinCore,
        event: DigestEvent,
        out: &mut StepOutput,
    ) -> Option<(ReplicaId, View, Proposal)> {
        // Parked proposals are always for the current view.
        let cview = core.base.cview;
        fn parked(core: &mut MarlinCore) -> Option<&mut HashMap<BatchId, PendingDigest>> {
            let round = core.rounds.get_mut(&core.base.cview)?;
            Some(&mut round.ext.pending_digests)
        }
        match event {
            DigestEvent::Proposed {
                from,
                view,
                digest,
                justify,
            } => Self::resolve_digest(core, from, view, digest, justify, out),
            DigestEvent::Fetched(digest) => {
                let p = parked(core)?.remove(&digest)?;
                Self::resolve_digest(core, p.from, cview, digest, p.justify, out)
            }
            DigestEvent::Unavailable(digest) => {
                // The fetch target no longer holds the batch (evicted,
                // or crashed and restarted). The proposer is not the
                // only replica that can serve it — every member of the
                // availability quorum stored the push — so fan the
                // fetch out to all replicas once instead of wedging
                // this digest (and, at 32 wedged entries, the whole
                // fallback path) until the view changes.
                let p = parked(core)?.get_mut(&digest)?;
                if !p.fanned_out {
                    p.fanned_out = true;
                    core.base.broadcast_payload_request(digest, out);
                }
                None
            }
        }
    }

    fn on_lagging_commit(core: &mut MarlinCore, qc: &Qc, out: &mut StepOutput) -> bool {
        core.base.maybe_start_sync(qc, out)
    }

    fn on_recovered(core: &mut MarlinCore, out: &mut StepOutput) -> Next {
        core.solicit_catch_up(out)
    }
}
