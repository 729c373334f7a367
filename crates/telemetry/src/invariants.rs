//! The safety oracle: one judge of a run, whichever driver made it.
//!
//! [`Invariants`] is a [`TelemetrySink`] over the honest replicas. It
//! reads commits, the step charge that opens every step, and the notes
//! a replica emits about its safety state ([`Note::EnteredView`],
//! [`Note::Voted`], [`Note::Locked`], [`Note::Recovered`], the anchor
//! of [`Note::SyncSnapshotInstalled`]), and flags two commits of
//! different blocks at one height, a replica committing a height at or
//! below its last one within an incarnation, a lock that contradicts a
//! commit it does not predate (stale locks are legal; a *fresh*
//! conflicting lock means a quorum certified a fork), two votes for
//! different blocks in one slot, and — after [`Invariants::mark_quiet`]
//! — a chain that stops growing.
//!
//! Timing (DESIGN.md §8): a step's commits, the view bound that dates
//! them and the lock check are evaluated when the step closes — at the
//! next `Charged` record, or at any query. A replica not heard from is
//! in view 1 (a stream may open mid-run; the simulator's shows
//! start-up), and genesis is seeded when the first step closes. The
//! oracle keeps no clock.

use crate::event::{Lock, Note, Telemetry, TelemetrySink};
use marlin_types::{BlockId, Height, Phase, ReplicaId, View};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A detected invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two honest replicas committed different blocks at the same chain
    /// position — a direct agreement (safety) failure.
    ConflictingCommit {
        /// Chain position (0 = genesis).
        position: usize,
        /// The replica that diverged.
        replica: ReplicaId,
        /// What it committed there.
        committed: BlockId,
        /// What the canonical chain holds there.
        canonical: BlockId,
    },
    /// Two different blocks were committed at the same block height —
    /// the height-indexed view of the same safety failure.
    ConflictingHeight {
        /// The contested height.
        height: Height,
        /// The replica that committed the second block.
        replica: ReplicaId,
        /// The block it committed.
        committed: BlockId,
        /// The block first committed at this height.
        canonical: BlockId,
    },
    /// An honest replica holds a lock, formed *after* a block was
    /// committed at the lock's height, on a different block: a quorum
    /// certified a fork of the committed chain.
    LockConflict {
        /// The replica holding the contradicting lock.
        replica: ReplicaId,
        /// The lock's view.
        lock_view: View,
        /// The lock's height.
        height: Height,
        /// The locked block.
        locked: BlockId,
        /// The committed block at that height.
        committed: BlockId,
    },
    /// The committed chain stopped growing after the fault schedule
    /// went quiet: the cluster is wedged.
    LivenessStall {
        /// Committed chain length when the schedule went quiet.
        committed_at_quiet: usize,
        /// Committed chain length at the end of the run.
        committed_at_end: usize,
    },
    /// An honest replica voted for two blocks in one `(view, phase,
    /// height)` slot — an amnesiac restart re-voting a slot.
    DoubleVote {
        /// The replica that voted twice.
        replica: ReplicaId,
        /// The vote's view.
        view: View,
        /// The vote's phase.
        phase: Phase,
        /// The vote's height.
        height: Height,
        /// The block voted first.
        first: BlockId,
        /// The conflicting block voted later.
        second: BlockId,
    },
    /// Within one incarnation an honest replica committed a height at or
    /// below one it had already committed.
    CommitOutOfOrder {
        /// The replica.
        replica: ReplicaId,
        /// The height it committed.
        height: Height,
        /// Its previous commit's height.
        after: Height,
    },
}

impl Violation {
    /// Whether this is a safety violation (liveness stalls are not).
    pub fn is_safety(&self) -> bool {
        !matches!(self, Violation::LivenessStall { .. })
    }
}

/// One replica's view (0 until heard from; the bound reads that as 1),
/// lock, and last commit height in this incarnation.
#[derive(Clone, Copy, Default)]
struct Seen {
    view: View,
    lock: Option<Lock>,
    tip: Option<Height>,
}

/// The safety oracle (see the module docs).
#[derive(Default)]
pub struct Invariants {
    /// Replicas whose state is adversary-controlled, ignored.
    byzantine: Vec<ReplicaId>,
    /// The canonical committed chain: the union of all honest chains
    /// (they must agree position by position).
    canonical: Vec<BlockId>,
    /// First committed block per height, plus the highest honest view
    /// when that commit was evaluated (locks at or below that view are
    /// stale, not conflicting).
    by_height: BTreeMap<Height, (BlockId, View)>,
    /// Per replica, by index; byzantine ones stay at the default.
    seen: Vec<Seen>,
    /// Commits (and installed anchors) of the open step, in order.
    pending: Vec<(ReplicaId, Height, BlockId)>,
    /// Canonical length at the quiet point.
    len_at_quiet: Option<usize>,
    /// First block voted per `(replica, view, phase, height)` slot.
    votes: HashMap<VoteSlot, BlockId>,
    /// Vote slots already reported (once each, not per retransmission).
    flagged_votes: HashSet<VoteSlot>,
    violations: Vec<Violation>,
}

type VoteSlot = (ReplicaId, View, Phase, Height);

impl Invariants {
    /// An oracle that ignores the `byzantine` replicas (their state is
    /// adversary-controlled).
    pub fn new(byzantine: &[ReplicaId]) -> Self {
        Invariants {
            byzantine: byzantine.to_vec(),
            ..Invariants::default()
        }
    }

    fn seen(&mut self, replica: ReplicaId) -> &mut Seen {
        if self.seen.len() <= replica.index() {
            self.seen.resize(replica.index() + 1, Seen::default());
        }
        &mut self.seen[replica.index()]
    }

    fn commit(&mut self, replica: ReplicaId, height: Height, block: BlockId) {
        let after = self.seen(replica).tip.replace(height);
        if let Some(after) = after.filter(|a| height <= *a) {
            let v = Violation::CommitOutOfOrder {
                replica,
                height,
                after,
            };
            self.violations.push(v);
        }
        self.pending.push((replica, height, block));
    }

    fn vote(&mut self, slot: VoteSlot, block: BlockId) {
        let first = *self.votes.entry(slot).or_insert(block);
        if first != block && self.flagged_votes.insert(slot) {
            let (replica, view, phase, height) = slot;
            self.violations.push(Violation::DoubleVote {
                replica,
                view,
                phase,
                height,
                first,
                second: block,
            });
        }
    }

    /// Closes the open step: its commits against the canonical chain
    /// and the per-height record, then every replica's lock.
    fn close(&mut self) {
        let bound = self.seen.iter().map(|s| s.view).fold(View(1), View::max);
        if self.canonical.is_empty() {
            self.canonical.push(BlockId::GENESIS);
            self.by_height.insert(Height(0), (BlockId::GENESIS, bound));
        }
        for (replica, height, committed) in std::mem::take(&mut self.pending) {
            let position = height.0 as usize;
            match self.canonical.get(position) {
                Some(&canonical) if canonical != committed => {
                    self.violations.push(Violation::ConflictingCommit {
                        position,
                        replica,
                        committed,
                        canonical,
                    });
                }
                // A position beyond every chain seen so far (an anchor
                // ahead of all honest tips) is left to the height check.
                None if position == self.canonical.len() => self.canonical.push(committed),
                _ => {}
            }
            let (canonical, _) = *self.by_height.entry(height).or_insert((committed, bound));
            if canonical != committed {
                self.violations.push(Violation::ConflictingHeight {
                    height,
                    replica,
                    committed,
                    canonical,
                });
            }
        }
        for (i, seen) in self.seen.iter().enumerate() {
            let Some(lock) = seen.lock else { continue };
            let Some(&(committed, bound)) = self.by_height.get(&lock.height) else {
                continue;
            };
            let v = Violation::LockConflict {
                replica: ReplicaId(i as u32),
                lock_view: lock.view,
                height: lock.height,
                locked: lock.block,
                committed,
            };
            if committed != lock.block && lock.view > bound && !self.violations.contains(&v) {
                self.violations.push(v);
            }
        }
    }

    /// All violations recorded so far.
    pub fn violations(&mut self) -> Vec<Violation> {
        self.close();
        self.violations.clone()
    }

    /// Length of the canonical committed chain (including genesis).
    pub fn committed_len(&mut self) -> usize {
        self.close();
        self.canonical.len()
    }

    /// Marks the quiet point: the fault schedule is over, so the
    /// committed chain must grow from here until [`Self::finish`]. The
    /// first mark counts.
    pub fn mark_quiet(&mut self) {
        self.close();
        self.len_at_quiet = self.len_at_quiet.or(Some(self.canonical.len()));
    }

    /// Closes the run: records a [`Violation::LivenessStall`] if the
    /// canonical chain did not grow after the quiet point (or, without
    /// one, at all), then returns all violations. Call once.
    pub fn finish(&mut self) -> Vec<Violation> {
        self.close();
        let at_end = self.canonical.len();
        let at_quiet = self.len_at_quiet.unwrap_or(at_end);
        if at_end <= at_quiet {
            self.violations.push(Violation::LivenessStall {
                committed_at_quiet: at_quiet,
                committed_at_end: at_end,
            });
        }
        self.violations.clone()
    }

    /// A deterministic fingerprint of everything the oracle saw:
    /// identical runs produce identical fingerprints (FNV-1a over the
    /// canonical chain, per-height commits, and violations).
    pub fn fingerprint(&mut self) -> u64 {
        self.close();
        let chain = self.canonical.iter().map(|id| format!("{id:?}"));
        let heights = self
            .by_height
            .iter()
            .map(|(h, (id, v))| format!("{}:{id:?}:{}", h.0, v.0));
        let violations = self.violations.iter().map(|v| format!("{v:?}"));
        (chain.chain(heights).chain(violations))
            .flat_map(String::into_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}

impl TelemetrySink for Invariants {
    fn record(&mut self, _at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        // Every step's first record: the previous step is over.
        if let Telemetry::Charged { .. } = event {
            self.close();
            return;
        }
        if self.byzantine.contains(&replica) {
            return;
        }
        match event {
            Telemetry::Committed(blocks) => {
                for b in blocks {
                    self.commit(replica, b.height(), b.id());
                }
            }
            Telemetry::Note(note) => match *note {
                Note::EnteredView { view, .. } => self.seen(replica).view = view,
                Note::Voted {
                    view,
                    phase,
                    height,
                    block,
                } => self.vote((replica, view, phase, height), block),
                Note::Locked { lock } => self.seen(replica).lock = Some(lock),
                Note::Recovered { view, lock } => {
                    let tip = None;
                    *self.seen(replica) = Seen { view, lock, tip };
                }
                Note::SyncSnapshotInstalled { height, block, .. } => {
                    self.commit(replica, height, block);
                }
                _ => {}
            },
            _ => {}
        }
    }
}
