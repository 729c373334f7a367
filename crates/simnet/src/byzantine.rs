//! Byzantine replica adapters: wrappers that corrupt a correct
//! protocol instance's *behaviour* while keeping its keys — the
//! strongest adversary the simulation's crypto model admits (it can
//! equivocate, lie about its state, and stay silent, but cannot forge
//! other replicas' signatures).

use marlin_core::{Action, Config, Event, Protocol, StepOutput};
use marlin_types::{
    Batch, Block, BlockId, BlockMeta, BlockStore, Justify, Message, MsgBody, Phase, Proposal, Qc,
    ReplicaId, Transaction, View,
};
use std::sync::{Arc, Mutex};

/// What a Byzantine replica does with its protocol-prescribed actions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Behavior {
    /// Executes the protocol faithfully (control case).
    Honest,
    /// Sends nothing at all (a crash that still reads its mail).
    Silent,
    /// In `VIEW-CHANGE` messages, reports the genesis state instead of
    /// its real `lb`/`highQC` — the Figure 2 "hide the QC" adversary.
    HideQc,
    /// As leader, equivocates: sends conflicting blocks of the same
    /// height to different halves of the cluster.
    Equivocate,
    /// Votes for every proposal twice and re-sends every message — a
    /// spam adversary that stresses deduplication.
    Duplicate,
    /// The full Figure 2b adversary: leads honestly until one of its
    /// `prepareQC`s certifies a block whose own justify comes from the
    /// same view (so the paper's Case R2 lock shape arises), sends that
    /// commit-phase proposal *only* to `victim`, then plays dead except
    /// for `VIEW-CHANGE` messages that report genesis state. The victim
    /// ends up the sole honest replica locked on the hidden `prepareQC`
    /// — the *unsafe view-change snapshot* that wedges the two-phase
    /// strawman and that Marlin's pre-prepare phase recovers from.
    UnsafeSnapshot {
        /// The one replica that still receives the hidden QC.
        victim: ReplicaId,
    },
    /// Plays the consensus protocol faithfully but serves *garbage* to
    /// block sync: every block in its `BlockRangeResponse`s and the
    /// anchor block in its `SnapshotResponse`s is replaced by a
    /// conflicting twin (right heights, wrong ids) — a sync peer that
    /// looks responsive and lies. The fetcher's certified-prefix walk
    /// must catch the substitution, demote this peer, and finish the
    /// sync from honest peers.
    CorruptSync,
}

/// A protocol wrapper executing one of the [`Behavior`]s.
///
/// # Example
///
/// ```
/// use marlin_core::{harness::build_protocol, Config, ProtocolKind};
/// use marlin_simnet::{Behavior, ByzantineReplica};
///
/// let cfg = Config::for_test(4, 1).with_id(3u32.into());
/// let honest = build_protocol(ProtocolKind::Marlin, cfg);
/// use marlin_core::Protocol;
/// let adversary = ByzantineReplica::new(honest, Behavior::HideQc);
/// assert_eq!(adversary.name(), "marlin");
/// ```
pub struct ByzantineReplica {
    inner: Box<dyn Protocol>,
    behavior: Arc<Mutex<Behavior>>,
    /// `UnsafeSnapshot` state: set once the hidden QC has been withheld.
    poisoned: bool,
}

impl ByzantineReplica {
    /// Wraps `inner` with the given behavior.
    pub fn new(inner: Box<dyn Protocol>, behavior: Behavior) -> Self {
        Self::with_shared(inner, Arc::new(Mutex::new(behavior)))
    }

    /// Wraps `inner` with a *shared* behavior handle, so a scenario
    /// driver can change the behavior over time from outside.
    pub fn with_shared(inner: Box<dyn Protocol>, behavior: Arc<Mutex<Behavior>>) -> Self {
        ByzantineReplica {
            inner,
            behavior,
            poisoned: false,
        }
    }

    /// The current behavior.
    pub fn behavior(&self) -> Behavior {
        *self.behavior.lock().expect("behavior lock")
    }

    /// Whether the `UnsafeSnapshot` adversary has withheld its QC yet.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    fn corrupt(&mut self, actions: Vec<Action>) -> Vec<Action> {
        match self.behavior() {
            Behavior::Honest => actions,
            Behavior::Silent => actions
                .into_iter()
                .filter(|a| !matches!(a, Action::Send { .. } | Action::Broadcast { .. }))
                .collect(),
            Behavior::HideQc => actions
                .into_iter()
                .map(|a| match a {
                    Action::Send { to, message } => Action::Send {
                        to,
                        message: hide_qc(message),
                    },
                    Action::Broadcast { message } => Action::Broadcast {
                        message: hide_qc(message),
                    },
                    other => other,
                })
                .collect(),
            Behavior::Equivocate => {
                let n = self.inner.config().n;
                let mut out = Vec::with_capacity(actions.len());
                for a in actions {
                    match a {
                        Action::Broadcast { message } => {
                            equivocate(self.inner.id(), n, message, &mut out)
                        }
                        other => out.push(other),
                    }
                }
                out
            }
            Behavior::Duplicate => {
                let mut out = Vec::with_capacity(actions.len() * 2);
                for a in actions {
                    if matches!(a, Action::Send { .. } | Action::Broadcast { .. }) {
                        out.push(a.clone());
                    }
                    out.push(a);
                }
                out
            }
            Behavior::CorruptSync => actions
                .into_iter()
                .map(|a| match a {
                    Action::Send { to, message } => Action::Send {
                        to,
                        message: corrupt_sync(message),
                    },
                    Action::Broadcast { message } => Action::Broadcast {
                        message: corrupt_sync(message),
                    },
                    other => other,
                })
                .collect(),
            Behavior::UnsafeSnapshot { victim } => {
                let mut out = Vec::with_capacity(actions.len());
                for a in actions {
                    if !self.poisoned {
                        if let Action::Broadcast { message } = &a {
                            if self.hidden_qc_moment(message) {
                                let Action::Broadcast { message } = a else {
                                    unreachable!("matched above")
                                };
                                self.poisoned = true;
                                out.push(Action::Send {
                                    to: victim,
                                    message,
                                });
                                continue;
                            }
                        }
                        out.push(a);
                        continue;
                    }
                    // Poisoned: dead to the world except for lying
                    // view changes that keep the snapshot unsafe.
                    match a {
                        Action::Send { to, message }
                            if matches!(message.body, MsgBody::ViewChange(_)) =>
                        {
                            out.push(Action::Send {
                                to,
                                message: hide_qc(message),
                            });
                        }
                        Action::Send { .. } | Action::Broadcast { .. } => {}
                        other => out.push(other),
                    }
                }
                out
            }
        }
    }

    /// Whether `message` is the proposal the [`Behavior::UnsafeSnapshot`]
    /// adversary hides: it carries a fresh `prepareQC` whose certified
    /// block is itself justified by a QC from the same view, so the
    /// victim's resulting lock has the exact Case R2 shape of the
    /// paper's Figure 2.
    ///
    /// For the basic protocols that moment is the commit-phase
    /// broadcast. Chained protocols never broadcast a commit phase —
    /// every round is a single prepare-phase proposal whose justify is
    /// the previous round's `prepareQC` — so there the trigger is the
    /// first prepare proposal deep enough in the pipeline that its
    /// justify locks the victim on an in-flight chain (the one-broadcast
    /// analogue of the same attack). The chained trigger is gated on the
    /// wrapped protocol's name so basic-Marlin campaign fingerprints are
    /// untouched (basic Marlin's prepare proposals also carry same-view
    /// justify chains, which would otherwise fire the moment early).
    fn hidden_qc_moment(&self, message: &Message) -> bool {
        let MsgBody::Proposal(p) = &message.body else {
            return false;
        };
        let chained = self.inner.name().starts_with("chained");
        let trigger_phase = if chained {
            Phase::Prepare
        } else {
            Phase::Commit
        };
        if p.phase != trigger_phase {
            return false;
        }
        let Some(qc) = p.justify.qc() else {
            return false;
        };
        self.inner
            .store()
            .get(&qc.block())
            .and_then(|b| b.justify().qc().copied())
            .is_some_and(|under| !under.is_genesis() && under.view() == qc.view())
    }
}

/// Substitutes conflicting twins into outgoing sync responses (see
/// [`Behavior::CorruptSync`]); everything else passes untouched.
fn corrupt_sync(mut message: Message) -> Message {
    match &mut message.body {
        MsgBody::BlockRangeResponse { blocks, .. } => {
            for b in blocks.iter_mut() {
                *b = twin_of(b);
            }
        }
        MsgBody::SnapshotResponse { snapshot } => {
            if let Some((block, _qc)) = snapshot.as_mut() {
                *block = twin_of(block);
            }
        }
        _ => {}
    }
    message
}

/// Replaces the state a `VIEW-CHANGE` reports with genesis state.
fn hide_qc(mut message: Message) -> Message {
    if let MsgBody::ViewChange(vc) = &mut message.body {
        vc.last_voted = BlockMeta::genesis();
        vc.high_qc = Justify::One(marlin_types::Qc::genesis(BlockId::GENESIS));
        // The parsig no longer matches the claimed lb; honest leaders
        // will simply fail to use it on the happy path.
    }
    message
}

/// Splits a proposal broadcast into two conflicting per-half proposals.
fn equivocate(id: ReplicaId, n: usize, message: Message, out: &mut Vec<Action>) {
    let MsgBody::Proposal(p) = &message.body else {
        out.push(Action::Broadcast { message });
        return;
    };
    if p.blocks.is_empty() {
        out.push(Action::Broadcast { message });
        return;
    }
    // Build conflicting twins of *every* block, keeping the proposal's
    // shape: a two-block pre-prepare (Cases V1/V3) stays two blocks, so
    // equivocation stresses the virtual-block path too.
    let twins: Vec<Block> = p.blocks.iter().map(twin_of).collect();
    let twin_msg = Message::new(
        message.from,
        message.view,
        MsgBody::Proposal(Proposal {
            phase: p.phase,
            blocks: twins,
            justify: p.justify,
            vc_proof: p.vc_proof.clone(),
        }),
    );
    for i in 0..n {
        let to = ReplicaId(i as u32);
        if to == id {
            continue;
        }
        let msg = if i % 2 == 0 {
            message.clone()
        } else {
            twin_msg.clone()
        };
        out.push(Action::Send { to, message: msg });
    }
    // The equivocator wants one twin certified: deliver the original to
    // itself (step() resolves self-sends) so its inner protocol votes
    // like any other recipient instead of starving its own quorum.
    out.push(Action::Send { to: id, message });
}

/// A conflicting twin of `block`: same slot in the tree (parent link,
/// height, views, justify), different payload — an extra forged no-op
/// transaction. Virtual blocks (no parent link) twin through the
/// virtual constructor so the twin keeps their kind.
fn twin_of(block: &Block) -> Block {
    let mut payload: Vec<_> = block
        .payload()
        .iter()
        .map(|tx| tx.to_transaction())
        .collect();
    payload.push(Transaction::no_op(u64::MAX, u32::MAX, 0));
    let batch = Batch::new(payload);
    match block.parent_id() {
        Some(parent) => Block::new_normal(
            parent,
            block.pview(),
            block.view(),
            block.height(),
            batch,
            *block.justify(),
        ),
        None => Block::new_virtual(
            block.pview(),
            block.view(),
            block.height(),
            batch,
            *block.justify(),
        ),
    }
}

impl Protocol for ByzantineReplica {
    fn config(&self) -> &Config {
        self.inner.config()
    }

    fn locked_qc(&self) -> Option<&Qc> {
        self.inner.locked_qc()
    }

    fn current_view(&self) -> View {
        self.inner.current_view()
    }

    fn store(&self) -> &BlockStore {
        self.inner.store()
    }

    fn mempool_len(&self) -> usize {
        self.inner.mempool_len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_event(&mut self, event: Event) -> StepOutput {
        let out = self.inner.on_event(event);
        StepOutput {
            actions: self.corrupt(out.actions),
            cpu_ns: out.cpu_ns,
            crypto_ns: out.crypto_ns,
            journal_ns: out.journal_ns,
        }
    }

    fn maintain_crypto(&mut self, max_verified: usize) -> marlin_core::CryptoCacheStats {
        self.inner.maintain_crypto(max_verified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_core::harness::build_protocol;
    use marlin_core::ProtocolKind;

    fn adversary(behavior: Behavior) -> ByzantineReplica {
        let cfg = Config::for_test(4, 1).with_id(ReplicaId(1));
        ByzantineReplica::new(build_protocol(ProtocolKind::Marlin, cfg), behavior)
    }

    #[test]
    fn silent_strips_all_traffic() {
        let mut a = adversary(Behavior::Silent);
        let out = a.on_event(Event::Start);
        assert!(out
            .actions
            .iter()
            .all(|x| !matches!(x, Action::Send { .. } | Action::Broadcast { .. })));
    }

    #[test]
    fn honest_passes_through() {
        let mut honest = adversary(Behavior::Honest);
        let mut plain = build_protocol(
            ProtocolKind::Marlin,
            Config::for_test(4, 1).with_id(ReplicaId(1)),
        );
        let a = honest.on_event(Event::Start);
        let b = plain.on_event(Event::Start);
        assert_eq!(a.actions.len(), b.actions.len());
    }

    #[test]
    fn duplicate_doubles_sends() {
        let mut dup = adversary(Behavior::Duplicate);
        let mut plain = build_protocol(
            ProtocolKind::Marlin,
            Config::for_test(4, 1).with_id(ReplicaId(1)),
        );
        let a = dup.on_event(Event::Start);
        let b = plain.on_event(Event::Start);
        let count = |acts: &[Action]| {
            acts.iter()
                .filter(|x| matches!(x, Action::Send { .. } | Action::Broadcast { .. }))
                .count()
        };
        assert_eq!(count(&a.actions), 2 * count(&b.actions));
    }

    #[test]
    fn equivocation_splits_broadcasts() {
        // The view-1 leader equivocates its first proposal.
        let mut eq = adversary(Behavior::Equivocate);
        let out = eq.on_event(Event::Start);
        let sends: Vec<&Action> = out
            .actions
            .iter()
            .filter(|a| matches!(a, Action::Send { to, .. } if *to != ReplicaId(1)))
            .collect();
        // The broadcast became 3 per-destination sends (plus a
        // self-delivery of the original, resolved by step()).
        assert_eq!(sends.len(), 3);
        // Two distinct block ids among them.
        let mut ids = std::collections::HashSet::new();
        for a in sends {
            if let Action::Send { message, .. } = a {
                if let MsgBody::Proposal(p) = &message.body {
                    ids.insert(p.blocks[0].id());
                }
            }
        }
        assert_eq!(ids.len(), 2, "expected two conflicting blocks");
    }

    /// Builds a two-block pre-prepare (a Case V1/V3 shape: normal +
    /// virtual) wrapped in a proposal broadcast from replica 1.
    fn two_block_proposal() -> Message {
        use marlin_types::Height;
        let normal = Block::new_normal(
            BlockId::GENESIS,
            View(0),
            View(3),
            Height(1),
            Batch::empty(),
            Justify::None,
        );
        let virt = Block::new_virtual(View(0), View(3), Height(2), Batch::empty(), Justify::None);
        Message::new(
            ReplicaId(1),
            View(3),
            MsgBody::Proposal(Proposal {
                phase: Phase::PrePrepare,
                blocks: vec![normal, virt],
                justify: Justify::None,
                vc_proof: Vec::new(),
            }),
        )
    }

    /// Regression: equivocation must twin *every* block of a two-block
    /// pre-prepare and keep the proposal's shape. The old code twinned
    /// only the first block and dropped the second, so equivocation
    /// never stressed the virtual-block (Case V1/V3) path — and bailed
    /// out entirely when the first block was virtual.
    #[test]
    fn equivocation_twins_every_block_and_keeps_shape() {
        let message = two_block_proposal();
        let (orig_normal, orig_virt) = match &message.body {
            MsgBody::Proposal(p) => (p.blocks[0].clone(), p.blocks[1].clone()),
            _ => unreachable!(),
        };
        let mut out = Vec::new();
        equivocate(ReplicaId(1), 4, message, &mut out);

        // Per-destination sends, not a fallback broadcast.
        assert!(out.iter().all(|a| !matches!(a, Action::Broadcast { .. })));
        let twinned: Vec<&Proposal> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, message } if *to != ReplicaId(1) => match &message.body {
                    MsgBody::Proposal(p) if p.blocks[0].id() != orig_normal.id() => Some(p),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert!(!twinned.is_empty(), "nobody received the twin proposal");
        for p in twinned {
            assert_eq!(p.blocks.len(), 2, "two-block shape not preserved");
            assert_ne!(p.blocks[0].id(), orig_normal.id());
            assert_ne!(p.blocks[1].id(), orig_virt.id());
            // Same slots, same kinds — conflicting twins, not new blocks.
            assert_eq!(p.blocks[0].height(), orig_normal.height());
            assert_eq!(p.blocks[0].parent_id(), orig_normal.parent_id());
            assert!(p.blocks[1].is_virtual(), "virtual twin lost its kind");
            assert_eq!(p.blocks[1].height(), orig_virt.height());
        }
    }

    /// Regression: the equivocator must deliver the original proposal
    /// to itself. Without the self-send its inner protocol never sees
    /// (or votes for) its own proposal — the leader starves its own
    /// quorum and every view it leads stalls to the timeout, so the
    /// equivocation under test never actually runs.
    #[test]
    fn equivocator_delivers_original_to_itself() {
        let message = two_block_proposal();
        let original_id = match &message.body {
            MsgBody::Proposal(p) => p.blocks[0].id(),
            _ => unreachable!(),
        };
        let mut out = Vec::new();
        equivocate(ReplicaId(1), 4, message, &mut out);
        let self_send = out.iter().find_map(|a| match a {
            Action::Send { to, message } if *to == ReplicaId(1) => Some(message),
            _ => None,
        });
        let msg = self_send.expect("equivocator must self-deliver its proposal");
        match &msg.body {
            MsgBody::Proposal(p) => assert_eq!(
                p.blocks[0].id(),
                original_id,
                "the self-delivered copy must be the original, not the twin"
            ),
            other => panic!("self-send is not a proposal: {other:?}"),
        }
    }

    #[test]
    fn hide_qc_rewrites_view_changes() {
        let mut a = adversary(Behavior::HideQc);
        a.on_event(Event::Start);
        // Force a timeout so a VIEW-CHANGE is produced.
        let out = a.on_event(Event::Timeout { view: View(1) });
        let vc = out.actions.iter().find_map(|x| match x {
            Action::Send { message, .. } => match &message.body {
                MsgBody::ViewChange(vc) => Some(vc.clone()),
                _ => None,
            },
            _ => None,
        });
        let vc = vc.expect("a VIEW-CHANGE is sent on timeout");
        assert_eq!(vc.last_voted.id, BlockId::GENESIS);
        assert!(vc.high_qc.qc().expect("one qc").is_genesis());
    }
}
