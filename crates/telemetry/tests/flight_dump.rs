//! The flight dump format: typed entries in the safety journal's CRC
//! frames, read back whole or up to the first damaged frame.

use marlin_telemetry::{
    merge_dumps, parse_dump, Entry, FlightRecorder, Note, Record, Ring, TelemetrySink,
    FLIGHT_CAPACITY, FLIGHT_MAGIC,
};
use marlin_types::{Height, ReplicaId, View};
use std::sync::Arc;

fn entry(at_ns: u64, replica: u32, record: Record) -> Entry {
    Entry {
        at_ns,
        replica: ReplicaId(replica),
        record,
    }
}

fn fatal(text: &str) -> Record {
    Record::Fatal(text.into())
}

/// A dump of the three record kinds, one of them a note with a `usize`
/// field, pinned byte for byte: the magic, then per entry
/// `len | crc | at_ns | replica | record tag | body`, little-endian.
const GOLDEN_HEX: &str = concat!(
    "4d4152464c54320a",
    "1e000000141875ae",
    "e803000000000000020000000007",
    "07000000000000002c01000000000000",
    "17000000c477097d",
    "d0070000000000000200000001",
    "060000006469616c2031",
    "1d0000001409628e",
    "b80b0000000000000200000002",
    "0c0000006e6f64652073746f70706564",
);

fn golden_entries() -> Vec<Entry> {
    let committed = Note::Committed {
        height: Height(7),
        txs: 300,
    };
    vec![
        entry(1_000, 2, Record::Note(committed)),
        entry(2_000, 2, Record::Transport("dial 1".into())),
        entry(3_000, 2, fatal("node stopped")),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex"))
        .collect()
}

fn ring_of(entries: &[Entry]) -> Ring {
    let mut ring = Ring::unbounded();
    entries.iter().cloned().for_each(|e| ring.push(e));
    ring
}

#[test]
fn a_three_entry_dump_is_pinned_both_ways() {
    assert_eq!(hex(&ring_of(&golden_entries()).encode_dump()), GOLDEN_HEX);
    assert_eq!(parse_dump(&unhex(GOLDEN_HEX)), Ok(golden_entries()));
}

#[test]
fn a_bounded_ring_keeps_only_the_newest_entries() {
    let mut ring = Ring::new(3);
    for i in 0..5u64 {
        ring.note(i, ReplicaId(0), &Note::HappyPathVc { view: View(i) });
    }
    let views: Vec<u64> = ring
        .notes()
        .map(|(_, _, note)| match note {
            Note::HappyPathVc { view } => view.0,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(views, vec![2, 3, 4]);
}

#[test]
fn a_recorder_stamps_its_clock_and_replica_and_round_trips() {
    let mut rec = FlightRecorder::new("node-1", ReplicaId(1), Arc::new(|| 42));
    rec.note(
        10,
        ReplicaId(1),
        &Note::EnteredView {
            view: View(3),
            leader: false,
        },
    );
    rec.record_now(Record::Transport("accepted peer 2".into()));
    rec.record_now(fatal("stopped"));
    let parsed = parse_dump(&rec.encode_dump()).expect("parseable dump");
    assert_eq!(parsed, rec.snapshot());
    assert_eq!(parsed[0].at_ns, 10);
    assert_eq!(parsed[2], entry(42, 1, fatal("stopped")));
}

#[test]
fn a_recorders_ring_keeps_its_newest_entries() {
    let mut rec = FlightRecorder::new("n", ReplicaId(0), Arc::new(|| 0));
    for i in 0..FLIGHT_CAPACITY as u64 + 10 {
        rec.note(i, ReplicaId(0), &Note::CatchUpRequested { view: View(i) });
    }
    let snap = rec.snapshot();
    assert_eq!(snap.len(), FLIGHT_CAPACITY);
    assert_eq!(snap[0].at_ns, 10);
}

#[test]
fn parse_tolerates_a_torn_tail_but_rejects_garbage() {
    let ring = ring_of(&golden_entries());
    let mut dump = ring.encode_dump();
    dump.truncate(dump.len() - 5); // tear inside the last frame
    assert_eq!(parse_dump(&dump).expect("intact prefix").len(), 2);

    // A corrupt CRC ends the parse at the bad frame.
    let mut corrupt = ring.encode_dump();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    assert_eq!(parse_dump(&corrupt).expect("prefix").len(), 2);

    assert!(parse_dump(b"not a dump").is_err());
    assert!(parse_dump(&[]).is_err());
    // A dump of the untyped format is refused, not misparsed.
    assert!(parse_dump(b"MARFLT1\n\x0d\x00\x00\x00").is_err());
    // Magic alone is an empty (but valid) dump.
    assert_eq!(parse_dump(FLIGHT_MAGIC), Ok(vec![]));
}

#[test]
fn a_frame_that_passes_its_crc_but_does_not_decode_ends_the_parse() {
    let mut dump = ring_of(&golden_entries()[..1]).encode_dump();
    // A fatal entry whose text claims 4 GiB: refused by the decoder's
    // bounds before anything is sized by the claim.
    let mut payload = unhex("b80b000000000000020000000002");
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    marlin_storage::frame_record(&mut dump, &payload);
    // The intact entry after it is not read: the parse stops at the
    // first bad frame.
    let mut later = ring_of(&golden_entries()[2..]).encode_dump();
    dump.append(&mut later.split_off(FLIGHT_MAGIC.len()));
    assert_eq!(parse_dump(&dump), Ok(golden_entries()[..1].to_vec()));

    // An undefined record tag in the first frame: nothing is intact.
    let mut bad_tag = FLIGHT_MAGIC.to_vec();
    marlin_storage::frame_record(&mut bad_tag, &unhex("00000000000000000000000007"));
    assert!(parse_dump(&bad_tag).is_err());
}

#[test]
fn merge_orders_across_nodes_by_timestamp() {
    let a = vec![
        entry(10, 0, Record::Transport("a10".into())),
        entry(30, 0, fatal("a30")),
    ];
    let b = vec![entry(20, 1, Record::Transport("b20".into()))];
    let stamps: Vec<u64> = merge_dumps(vec![a, b]).iter().map(|e| e.at_ns).collect();
    assert_eq!(stamps, vec![10, 20, 30]);
}

#[test]
fn dump_to_dir_writes_a_parseable_file() {
    let dir = std::env::temp_dir().join(format!("marlin-flight-test-{}", std::process::id()));
    let rec = FlightRecorder::new("node-2", ReplicaId(2), Arc::new(|| 7));
    rec.record_now(Record::Transport("dialed peer 0".into()));
    let path = rec.dump_to_dir(&dir).expect("dump written");
    assert!(path.ends_with("node-2.flight"));
    let bytes = std::fs::read(&path).expect("read dump back");
    assert_eq!(parse_dump(&bytes), Ok(rec.snapshot()));
    let _ = std::fs::remove_dir_all(&dir);
}
