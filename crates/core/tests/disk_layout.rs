//! On-disk layout pins: every safety-journal record kind and one
//! snapshot anchor, as golden bytes. A replica restarts from whatever
//! an earlier build wrote, so each layout is pinned both ways: the
//! bytes the journal (or the sync engine) writes, and the state it
//! recovers from exactly those bytes.

use bytes::Bytes;
use marlin_core::{
    build_replica, Action, Config, Event, JournalRecord, ProtocolKind, SafetyJournal,
    SafetySnapshot,
};
use marlin_crypto::{sha256, QcFormat};
use marlin_storage::{Disk, SharedDisk, SnapshotStore, Wal};
use marlin_types::{
    Batch, Block, BlockId, BlockKind, BlockMeta, Decide, Height, Justify, Message, MsgBody, Phase,
    Qc, QcSeed, ReplicaId, Transaction, View,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.split_whitespace().collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// The cluster configuration every replica here runs (n = 4, the
/// test key store), with block sync on.
fn config() -> Config {
    let mut cfg = Config::for_test(4, 1);
    cfg.sync_snapshot_interval = 8;
    cfg
}

/// A quorum certificate signed by replicas 0..3 of [`config`]'s keys.
fn signed_qc(seed: QcSeed) -> Qc {
    let keys = config().keys;
    let partials: Vec<_> = (0..3)
        .map(|i| keys.signer(i).sign_partial(&seed.signing_bytes()))
        .collect();
    Qc::combine(seed, &partials, &keys, QcFormat::Threshold).expect("quorum combines")
}

fn seed(phase: Phase, view: u64, height: u64, kind: BlockKind) -> QcSeed {
    QcSeed {
        phase,
        view: View(view),
        block: BlockId::from_digest(sha256(&[view as u8, height as u8])),
        height: Height(height),
        block_view: View(view),
        pview: View(view - 1),
        block_kind: kind,
    }
}

fn last_voted() -> BlockMeta {
    BlockMeta {
        id: BlockId::from_digest(sha256(b"last voted")),
        view: View(7),
        height: Height(5),
        pview: View(6),
        kind: BlockKind::Normal,
        rank_boost: true,
    }
}

fn lock() -> Qc {
    signed_qc(seed(Phase::Prepare, 6, 4, BlockKind::Normal))
}

fn high_qc() -> Justify {
    Justify::Two(
        signed_qc(seed(Phase::PrePrepare, 7, 6, BlockKind::Virtual)),
        lock(),
    )
}

/// Tag 0, then the view (`u64` LE).
const ENTERED_VIEW: &str = "
    000900000000000000
";

/// Tag 1, then [`last_voted`]'s `BlockMeta` wire form: id, view,
/// height, pview, kind, rank boost.
const LAST_VOTED: &str = "
    01f9e278f7419e4fb315e57ededaa28b659624f465c8067b5ebe89727dc5ac09
    340700000000000000050000000000000006000000000000000001
";

/// Tag 2, then [`lock`]'s `Qc` wire form: the seed, then the combined
/// signature (format, signer bitmap, aggregate, padding).
const LOCK: &str = "
    020106000000000000005ea6d85d0fbe5fe428c0ac095c6c1b2bc3e58a8c4f6f
    58c445e5b1b5e9332d3504000000000000000600000000000000050000000000
    0000000107000000000000000000000000000000f7b60767b2a98937c166822b
    acdae655523ff65b9702f522279ddc0f18a561a1000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    000000
";

/// Tag 3, then [`high_qc`]'s `Justify` wire form: tag 2 and two QCs.
const HIGH_QC: &str = "
    03020007000000000000000b2971bb3cda0c3dbef0deb1544bc95683ad281a8f
    f9448b75e75867fed1004c060000000000000007000000000000000600000000
    0000000101070000000000000000000000000000000285817820a214d4ddc86a
    50082b92dcb355d5e4c70ee9372a64d7b1c013f9bc0000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    000000000106000000000000005ea6d85d0fbe5fe428c0ac095c6c1b2bc3e58a
    8c4f6f58c445e5b1b5e9332d3504000000000000000600000000000000050000
    0000000000000107000000000000000000000000000000f7b60767b2a98937c1
    66822bacdae655523ff65b9702f522279ddc0f18a561a1000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    000000000000
";

/// Tag 4: view, `BlockMeta`, lock tag 0, an empty `Justify`.
const SNAPSHOT_UNLOCKED: &str = "
    040900000000000000f9e278f7419e4fb315e57ededaa28b659624f465c8067b
    5ebe89727dc5ac09340700000000000000050000000000000006000000000000
    0000010000
";

/// Tag 4: view, `BlockMeta`, lock tag 1 and the lock, the `Justify`.
const SNAPSHOT_LOCKED: &str = "
    040900000000000000f9e278f7419e4fb315e57ededaa28b659624f465c8067b
    5ebe89727dc5ac09340700000000000000050000000000000006000000000000
    000001010106000000000000005ea6d85d0fbe5fe428c0ac095c6c1b2bc3e58a
    8c4f6f58c445e5b1b5e9332d3504000000000000000600000000000000050000
    0000000000000107000000000000000000000000000000f7b60767b2a98937c1
    66822bacdae655523ff65b9702f522279ddc0f18a561a1000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    000000000000020007000000000000000b2971bb3cda0c3dbef0deb1544bc956
    83ad281a8ff9448b75e75867fed1004c06000000000000000700000000000000
    06000000000000000101070000000000000000000000000000000285817820a2
    14d4ddc86a50082b92dcb355d5e4c70ee9372a64d7b1c013f9bc000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000106000000000000005ea6d85d0fbe5fe428c0ac095c6c
    1b2bc3e58a8c4f6f58c445e5b1b5e9332d350400000000000000060000000000
    00000500000000000000000107000000000000000000000000000000f7b60767
    b2a98937c166822bacdae655523ff65b9702f522279ddc0f18a561a100000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000
";

/// The newest record of journal generation `gen`.
fn last_record(disk: &SharedDisk, gen: u64) -> Vec<u8> {
    let records = Wal::replay_named(disk, &format!("safety-journal.{gen}")).expect("replays");
    records.last().cloned().expect("a record")
}

/// What the journal writes: each record kind in turn, the two
/// snapshots by compacting below the voted block's height.
#[test]
fn journal_writes_the_pinned_records() {
    let disk = SharedDisk::new();
    let mut journal = SafetyJournal::open(disk.clone()).expect("opens");
    journal.log_view(View(9)).expect("appends");
    assert_eq!(hex(&last_record(&disk, 0)), hex(&unhex(ENTERED_VIEW)));
    journal.log_last_voted(&last_voted()).expect("appends");
    assert_eq!(hex(&last_record(&disk, 0)), hex(&unhex(LAST_VOTED)));
    assert!(journal.gc_below(Height(6)).expect("compacts"));
    assert_eq!(hex(&last_record(&disk, 1)), hex(&unhex(SNAPSHOT_UNLOCKED)));
    journal.log_lock(&lock()).expect("appends");
    assert_eq!(hex(&last_record(&disk, 1)), hex(&unhex(LOCK)));
    journal.log_high_qc(&high_qc()).expect("appends");
    assert_eq!(hex(&last_record(&disk, 1)), hex(&unhex(HIGH_QC)));
    assert!(journal.gc_below(Height(6)).expect("compacts"));
    assert_eq!(hex(&last_record(&disk, 2)), hex(&unhex(SNAPSHOT_LOCKED)));
}

/// What a journal holding one pinned record replays to.
#[test]
fn journal_replays_the_pinned_records() {
    let unlocked = SafetySnapshot {
        view: View(9),
        last_voted: last_voted(),
        locked_qc: None,
        high_qc: Justify::None,
    };
    let locked = SafetySnapshot {
        locked_qc: Some(lock()),
        high_qc: high_qc(),
        ..unlocked
    };
    let cases = [
        (ENTERED_VIEW, JournalRecord::EnteredView(View(9))),
        (LAST_VOTED, JournalRecord::LastVoted(last_voted())),
        (LOCK, JournalRecord::Lock(lock())),
        (HIGH_QC, JournalRecord::HighQc(high_qc())),
        (SNAPSHOT_UNLOCKED, JournalRecord::Snapshot(unlocked)),
        (SNAPSHOT_LOCKED, JournalRecord::Snapshot(locked)),
    ];
    for (golden, record) in cases {
        let mut disk = SharedDisk::new();
        Wal::append_named(&mut disk, "safety-journal.0", &unhex(golden)).expect("appends");
        disk.sync().expect("syncs");
        let journal = SafetyJournal::open(disk).expect("opens");
        let mut expected = SafetySnapshot::genesis();
        expected.apply(&record);
        assert_eq!(*journal.state(), expected, "{record:?}");
    }
}

/// The anchor: a committed block holding two transactions, and the
/// commit QC that certifies exactly that block.
fn anchor() -> (Block, Qc) {
    let txs = vec![
        Transaction::new(11, 2, Bytes::from_static(b"set a"), 1_000),
        Transaction::new(12, 3, Bytes::from_static(b"del"), 2_000),
    ];
    let block = Block::new_normal(
        BlockId::from_digest(sha256(b"parent")),
        View(99),
        View(100),
        Height(100),
        Batch::new(txs),
        Justify::One(signed_qc(seed(Phase::Prepare, 99, 99, BlockKind::Normal))),
    );
    let qc = signed_qc(block.vote_seed(Phase::Commit, View(100)));
    (block, qc)
}

/// The [`anchor`] as the snapshot store holds it: the block's wire form
/// (payload included), then the QC's.
const ANCHOR: &str = "
    01e47125968b3b71049fbc4802d1e40a71ea1359decfabacf70b34588037d4ff
    0c63000000000000006400000000000000640000000000000001016300000000
    000000355b1bbfc96725cdce8f4a2708fda310a80e6d13315aec4e5eed2a75fe
    8032ce6300000000000000630000000000000062000000000000000001070000
    000000000000000000000000006728982b1ffd8c6fc28c24a69a8b7b10d232c9
    bfe4bee0b08554b42e9aeeedca00000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000002000000
    0b000000000000000200000005000000e80300000000000073657420610c0000
    00000000000300000003000000d00700000000000064656c0364000000000000
    00fe7ba0a2be57f2dea6dc8904d38ef983f1df5934b8923b6ea18ed92f4f6307
    ce64000000000000006400000000000000630000000000000000010700000000
    00000000000000000000003e773ce6542fa24555c44f80ae7b7fff8f66d30b06
    65f5ca6a2d59a56d71bf20000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000
";

fn replica(disk: &SharedDisk) -> Box<dyn marlin_core::Protocol> {
    let store = SnapshotStore::open(disk.clone()).expect("snapshot store opens");
    build_replica(ProtocolKind::Marlin, config(), None, false, Some(store))
}

fn message(from: u32, body: MsgBody) -> Event {
    Event::Message(Message::new(ReplicaId(from), View(100), body))
}

/// What the sync engine writes: a replica 100 blocks behind a commit
/// certificate asks for a snapshot, verifies the one it is served and
/// saves it.
#[test]
fn sync_saves_the_pinned_anchor() {
    let (block, qc) = anchor();
    let disk = SharedDisk::new();
    let mut r = replica(&disk);
    let out = r.step(message(1, MsgBody::Decide(Decide { commit_qc: qc })));
    assert!(out.actions.iter().any(|a| matches!(
        a,
        Action::Broadcast { message } if message.body == MsgBody::SnapshotRequest
    )));
    r.step(message(
        1,
        MsgBody::SnapshotResponse {
            snapshot: Some((block, qc)),
        },
    ));
    let saved = Wal::replay_named(&disk, "state-snapshot.1").expect("replays");
    assert_eq!(saved.len(), 1);
    assert_eq!(hex(&saved[0]), hex(&unhex(ANCHOR)));
}

/// What a replica restarting on a disk holding the pinned anchor
/// installs, and serves to a peer that asks for it.
#[test]
fn restart_installs_the_pinned_anchor() {
    let disk = SharedDisk::new();
    SnapshotStore::open(disk.clone())
        .expect("opens")
        .save(&unhex(ANCHOR))
        .expect("saves");
    let mut r = replica(&disk);
    assert_eq!(r.store().committed_offset(), 100);
    let out = r.step(message(2, MsgBody::SnapshotRequest));
    let served = out.actions.iter().find_map(|a| match a {
        Action::Send { to, message } if *to == ReplicaId(2) => match &message.body {
            MsgBody::SnapshotResponse { snapshot } => snapshot.clone(),
            _ => None,
        },
        _ => None,
    });
    let (block, qc) = served.expect("the anchor is served");
    let (expected_block, expected_qc) = anchor();
    assert_eq!(block.id(), expected_block.id());
    assert_eq!(block, expected_block);
    assert_eq!(qc, expected_qc);
}
