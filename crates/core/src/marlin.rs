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
//! The view change below is also chained Marlin's:
//! [`crate::chained::ChainedMarlinRules`] delegates to it.

use crate::events::{Action, Note, StepOutput, VcCase};
use crate::replica::{child_of, extends, Adopt, Core, Next, Replica, Rules};
use marlin_types::rank::{block_rank_gt, highest_block, qc_rank_cmp, qc_rank_ge};
use marlin_types::{
    Block, BlockId, BlockKind, BlockMeta, Justify, Phase, Proposal, Qc, ReplicaId, View,
    ViewChange, Vote,
};
use std::cmp::Ordering;

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

/// Per-view state: the leader's view-change pre-prepare phase.
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
}

/// Marlin's rule set.
#[derive(Clone, Debug)]
pub struct MarlinRules;

type MarlinCore = Core<MarlinRound>;

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
}
