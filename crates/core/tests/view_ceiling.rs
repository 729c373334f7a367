//! A replica never enters, so never journals, a view above
//! [`View::MAX`], the ceiling the journal's replay refuses to read past.
//!
//! Two VIEW-CHANGEs at the ceiling whose shares members 0 and 3 signed
//! move a journaled replica there through the f+1 view join. Its
//! timeouts there must then enter nothing more. A replica that went on
//! to `View::MAX + 1` would journal it, the next compaction would fold
//! it into the generation's only record, and replay would refuse that
//! record and restart the replica from genesis, with its `lb` and lock
//! forgotten.

mod support;

use marlin_core::journal::SNAPSHOT_EVERY;
use marlin_core::{build_replica, Config, Event, Protocol, ProtocolKind, SafetyJournal};
use marlin_storage::SharedDisk;
use marlin_types::{BlockMeta, Height, Justify, Message, MsgBody, ReplicaId, View, ViewChange};
use support::{assert_safe, instant_with, max_view, submit, KINDS};

const VICTIM: ReplicaId = ReplicaId(2);

fn journaled(kind: ProtocolKind, disk: &SharedDisk, recovered: bool) -> Box<dyn Protocol> {
    let cfg = Config::for_test(4, 1).with_id(VICTIM);
    let journal = SafetyJournal::open(disk.clone()).expect("open journal");
    build_replica(kind, cfg, Some(journal), recovered, None)
}

#[test]
fn an_attested_move_to_the_ceiling_keeps_the_journal_replayable() {
    for kind in KINDS {
        attested_move_to_the_ceiling(kind);
    }
}

fn attested_move_to_the_ceiling(kind: ProtocolKind) {
    let cfg = Config::for_test(4, 1);
    let disk = SharedDisk::new();
    let replicas = (0..4)
        .map(ReplicaId)
        .map(|id| match id {
            VICTIM => journaled(kind, &disk, false),
            _ => build_replica(kind, cfg.with_id(id), None, false, None),
        })
        .collect();
    let (mut sim, _, inv) = instant_with(replicas, &[]);
    for _ in 0..4 {
        let leader = ReplicaId::leader_of(max_view(&sim), 4);
        submit(&mut sim, leader, 3, 16);
    }

    // Restart the victim from its journal, to read what it holds.
    sim.crash(VICTIM);
    let before = *SafetyJournal::open(disk.clone()).unwrap().state();
    assert!(before.locked_qc.is_some(), "{kind:?}: no lock to lose");
    assert!(before.last_voted.height > Height(0), "{kind:?}: no vote");
    sim.restart(VICTIM, journaled(kind, &disk, true));

    let attested = |from: ReplicaId| {
        let seed = ViewChange::happy_seed(&BlockMeta::genesis(), View::MAX).signing_bytes();
        let parsig = cfg.keys.signer(from.index()).sign_partial(&seed);
        let body = MsgBody::ViewChange(ViewChange {
            last_voted: BlockMeta::genesis(),
            high_qc: Justify::None,
            parsig,
            cert: None,
        });
        Event::Message(Message::new(from, View::MAX, body))
    };
    sim.inject(VICTIM, attested(ReplicaId(0)));
    sim.inject(VICTIM, attested(ReplicaId(3)));
    assert_eq!(sim.replica(VICTIM).current_view(), View::MAX, "{kind:?}");
    // Enough timeouts to compact twice, had each journaled a view.
    for _ in 0..2 * SNAPSHOT_EVERY {
        let view = sim.replica(VICTIM).current_view();
        sim.inject(VICTIM, Event::Timeout { view });
    }
    assert_eq!(sim.replica(VICTIM).current_view(), View::MAX, "{kind:?}");

    // Crash, compact what replays, and replay the compacted generation.
    sim.crash(VICTIM);
    let mut journal = SafetyJournal::open(disk.clone()).unwrap();
    assert_eq!(journal.state().view, View::MAX, "{kind:?}");
    assert!(journal.gc_below(Height(u64::MAX)).unwrap(), "{kind:?}");
    let after = *SafetyJournal::open(disk.clone()).unwrap().state();
    assert_eq!(after.view, View::MAX, "{kind:?}");
    assert_eq!(after.last_voted, before.last_voted, "{kind:?}");
    assert_eq!(after.locked_qc, before.locked_qc, "{kind:?}");
    assert_safe(&inv);
}
