//! The safety oracle on hand-built observation streams, with no replica
//! anywhere: each stream is what a driver would record, step by step.

use bytes::Bytes;
use marlin_telemetry::{Invariants, Lock, Note, Telemetry, TelemetrySink, Violation};
use marlin_types::{
    Batch, Block, BlockId, Height, Justify, Phase, Qc, ReplicaId, Transaction, View,
};

/// A block at `height`; `tag` tells blocks of one height apart.
fn block(height: u64, tag: u64) -> Block {
    let tx = Transaction::new(tag, 0, Bytes::new(), 0);
    let genesis = Justify::One(Qc::genesis(BlockId::GENESIS));
    Block::new_normal(
        BlockId::GENESIS,
        View(0),
        View(1),
        Height(height),
        Batch::new(vec![tx]),
        genesis,
    )
}

/// One step of `replica`, handed over whole: the charge that opens it,
/// then `events`.
fn step(oracle: &mut Invariants, replica: u32, events: &[Telemetry<'_>]) {
    let charge = Telemetry::Charged {
        crypto_ns: 0,
        journal_ns: 0,
        consensus_ns: 0,
    };
    let step: Vec<_> = std::iter::once(charge)
        .chain(events.iter().copied())
        .collect();
    oracle.record_step(0, ReplicaId(replica), &step);
}

fn commit(oracle: &mut Invariants, replica: u32, blocks: &[Block]) {
    step(oracle, replica, &[Telemetry::Committed(blocks)]);
}

fn note(oracle: &mut Invariants, replica: u32, note: Note) {
    step(oracle, replica, &[Telemetry::Note(&note)]);
}

fn lock(view: u64, b: &Block) -> Lock {
    Lock {
        view: View(view),
        height: b.height(),
        block: b.id(),
    }
}

fn recovered(view: u64, lock: Option<Lock>) -> Note {
    let view = View(view);
    Note::Recovered { view, lock }
}

#[test]
fn two_blocks_at_one_height_conflict_by_position_and_by_height() {
    let (a, b) = (block(1, 0), block(1, 1));
    let mut oracle = Invariants::new(&[]);
    commit(&mut oracle, 0, std::slice::from_ref(&a));
    commit(&mut oracle, 1, std::slice::from_ref(&b));
    let (replica, committed, canonical) = (ReplicaId(1), b.id(), a.id());
    assert_eq!(
        oracle.violations(),
        [
            Violation::ConflictingCommit {
                position: 1,
                replica,
                committed,
                canonical,
            },
            Violation::ConflictingHeight {
                height: Height(1),
                replica,
                committed,
                canonical,
            },
        ]
    );
    assert_eq!(oracle.committed_len(), 2);
}

#[test]
fn a_fresh_conflicting_lock_is_flagged_once_and_a_stale_one_never() {
    let (a, b) = (block(1, 0), block(1, 1));
    let mut oracle = Invariants::new(&[]);
    commit(&mut oracle, 0, std::slice::from_ref(&a));
    // Formed in view 1, when the commit was made: stale, legal.
    note(&mut oracle, 2, Note::Locked { lock: lock(1, &b) });
    assert_eq!(oracle.violations(), []);
    // Formed in view 2, after it: a quorum certified a fork.
    note(&mut oracle, 1, Note::Locked { lock: lock(2, &b) });
    note(
        &mut oracle,
        1,
        Note::EnteredView {
            view: View(3),
            leader: false,
        },
    );
    assert_eq!(
        oracle.violations(),
        [Violation::LockConflict {
            replica: ReplicaId(1),
            lock_view: View(2),
            height: Height(1),
            locked: b.id(),
            committed: a.id(),
        }]
    );
}

#[test]
fn two_votes_in_one_slot_are_one_double_vote() {
    let (a, b) = (block(1, 0), block(1, 1));
    let mut oracle = Invariants::new(&[]);
    let voted = |b: &Block| Note::Voted {
        view: View(1),
        phase: Phase::Prepare,
        height: Height(1),
        block: b.id(),
    };
    for b in [&a, &a, &b, &b, &a] {
        note(&mut oracle, 2, voted(b));
    }
    assert_eq!(
        oracle.violations(),
        [Violation::DoubleVote {
            replica: ReplicaId(2),
            view: View(1),
            phase: Phase::Prepare,
            height: Height(1),
            first: a.id(),
            second: b.id(),
        }]
    );
}

#[test]
fn a_chain_that_stops_at_the_quiet_point_stalls() {
    let mut oracle = Invariants::new(&[]);
    commit(&mut oracle, 0, &[block(1, 0)]);
    oracle.mark_quiet();
    assert_eq!(
        oracle.finish(),
        [Violation::LivenessStall {
            committed_at_quiet: 2,
            committed_at_end: 2,
        }]
    );
    let mut growing = Invariants::new(&[]);
    growing.mark_quiet();
    commit(&mut growing, 0, &[block(1, 0)]);
    assert_eq!(growing.finish(), []);
}

#[test]
fn commit_heights_only_rise_within_an_incarnation() {
    let (a, a2) = (block(2, 0), block(1, 0));
    let mut oracle = Invariants::new(&[]);
    commit(&mut oracle, 0, &[block(1, 0), a.clone()]);
    commit(&mut oracle, 0, std::slice::from_ref(&a));
    assert_eq!(
        oracle.violations(),
        [Violation::CommitOutOfOrder {
            replica: ReplicaId(0),
            height: Height(2),
            after: Height(2),
        }]
    );
    // A new incarnation starts over (here, from genesis).
    note(&mut oracle, 0, recovered(1, None));
    commit(&mut oracle, 0, std::slice::from_ref(&a2));
    assert_eq!(oracle.violations().len(), 1);
}

#[test]
fn a_recovery_without_a_lock_drops_the_pre_crash_lock() {
    let (a, b) = (block(1, 0), block(1, 1));
    let run = |recover: bool| {
        let mut oracle = Invariants::new(&[]);
        note(&mut oracle, 1, Note::Locked { lock: lock(3, &b) });
        if recover {
            note(&mut oracle, 1, recovered(1, None));
        }
        commit(&mut oracle, 0, std::slice::from_ref(&a));
        oracle.violations().len()
    };
    assert_eq!((run(false), run(true)), (1, 0));
}

#[test]
fn an_installed_anchor_is_checked_like_a_commit() {
    let (a, b) = (block(1, 0), block(1, 1));
    let mut oracle = Invariants::new(&[]);
    commit(&mut oracle, 0, std::slice::from_ref(&a));
    let installed = Note::SyncSnapshotInstalled {
        height: Height(1),
        block: b.id(),
        bytes: 0,
    };
    note(&mut oracle, 2, installed);
    let (replica, committed, canonical) = (ReplicaId(2), b.id(), a.id());
    assert_eq!(
        oracle.violations(),
        [
            Violation::ConflictingCommit {
                position: 1,
                replica,
                committed,
                canonical,
            },
            Violation::ConflictingHeight {
                height: Height(1),
                replica,
                committed,
                canonical,
            },
        ]
    );
    // An anchor ahead of every chain is left to the height check.
    let (ahead, other) = (block(3, 0), block(3, 1));
    let installed = Note::SyncSnapshotInstalled {
        height: Height(3),
        block: ahead.id(),
        bytes: 0,
    };
    note(&mut oracle, 3, installed);
    commit(&mut oracle, 0, &[block(2, 0), other.clone()]);
    assert_eq!(
        oracle.violations()[2..],
        [Violation::ConflictingHeight {
            height: Height(3),
            replica: ReplicaId(0),
            committed: other.id(),
            canonical: ahead.id(),
        }]
    );
}

#[test]
fn a_re_commit_after_recovery_that_contradicts_a_pre_crash_commit_is_flagged() {
    let (a, b) = (block(1, 0), block(1, 1));
    let mut oracle = Invariants::new(&[]);
    commit(&mut oracle, 1, std::slice::from_ref(&a));
    note(&mut oracle, 1, recovered(1, None));
    commit(&mut oracle, 1, std::slice::from_ref(&b));
    let violations = oracle.violations();
    assert!(matches!(
        violations[..],
        [
            Violation::ConflictingCommit { .. },
            Violation::ConflictingHeight { .. }
        ]
    ));
}

#[test]
fn a_view_entered_later_in_the_step_dates_its_commit() {
    let (a, b) = (block(1, 0), block(1, 1));
    let entered = Note::EnteredView {
        view: View(5),
        leader: false,
    };
    let run = |same_step: bool| {
        let mut oracle = Invariants::new(&[]);
        let blocks = std::slice::from_ref(&a);
        if same_step {
            step(
                &mut oracle,
                0,
                &[Telemetry::Committed(blocks), Telemetry::Note(&entered)],
            );
        } else {
            commit(&mut oracle, 0, blocks);
            note(&mut oracle, 0, entered.clone());
        }
        // A view-5 lock is stale only if the commit is dated view 5.
        note(&mut oracle, 1, Note::Locked { lock: lock(5, &b) });
        oracle.violations().len()
    };
    assert_eq!((run(true), run(false)), (0, 1));
}

#[test]
fn byzantine_replicas_are_not_judged() {
    let (a, b) = (block(1, 0), block(1, 1));
    let mut oracle = Invariants::new(&[ReplicaId(3)]);
    commit(&mut oracle, 0, std::slice::from_ref(&a));
    commit(&mut oracle, 3, std::slice::from_ref(&b));
    note(&mut oracle, 3, Note::Locked { lock: lock(9, &b) });
    assert_eq!(oracle.violations(), []);
}
