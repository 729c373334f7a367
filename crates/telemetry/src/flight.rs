//! The typed recorder: a ring of stamped observations, the per-node
//! flight recorder over it, and its dumps.
//!
//! A [`Ring`] holds [`Entry`]s, oldest first: every consensus [`Note`]
//! it is fed as a [`TelemetrySink`], plus the [`Record::Transport`] and
//! [`Record::Fatal`] entries the runtime records directly. The
//! simulator keeps an unbounded ring (`SimNet::notes` reads it); each
//! runtime replica keeps one of [`FLIGHT_CAPACITY`] entries in its
//! [`FlightRecorder`], cheap enough to leave on, and dumps it:
//!
//! * on **panic** (a process-wide hook installed by
//!   [`install_panic_dump`] dumps every registered recorder),
//! * on **invariant violation** and **node stop** (the runtime calls
//!   [`FlightRecorder::dump_to_dir`] explicitly), and
//! * **on demand** over HTTP (`/debug/flight` serves
//!   [`FlightRecorder::encode_dump`] bytes).
//!
//! # Dump format
//!
//! A dump is the 8-byte magic [`FLIGHT_MAGIC`] followed by one frame
//! per entry, oldest first, in the safety journal's record framing
//! ([`marlin_storage::frame_record`]: `len: u32 LE | crc: u32 LE |
//! payload`). The payload is the entry's [`Codec`] encoding: `at_ns`,
//! `replica`, then a [`Record`] tag (0 note, 1 transport, 2 fatal) and
//! its body. [`parse_dump`] reads the entries back and stops at the
//! first torn, corrupt or undecodable frame, returning everything
//! intact before it: dumps are written while the process is dying.

use crate::event::{Lock, Note, SharedSink, Telemetry, TelemetrySink, VcCase};
use bytes::Bytes;
use marlin_storage::{frame_record, split_records};
use marlin_types::codec::{self, Codec, Decoder, Wire};
use marlin_types::ReplicaId;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// First bytes of every flight-recorder dump.
pub const FLIGHT_MAGIC: &[u8; 8] = b"MARFLT2\n";

/// Entries a runtime replica's flight ring retains.
pub const FLIGHT_CAPACITY: usize = 512;

/// What one ring entry records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A consensus trace note.
    Note(Note),
    /// A transport connection event (dial, accept, disconnect, close).
    Transport(String),
    /// The terminal entry of a dump: panic, invariant violation, or
    /// node stop.
    Fatal(String),
}

/// One stamped entry of a [`Ring`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Timestamp on the driver's clock (nanoseconds).
    pub at_ns: u64,
    /// The replica that recorded the entry.
    pub replica: ReplicaId,
    /// What it records.
    pub record: Record,
}

/// Entries in arrival order; a bounded ring drops its oldest to make
/// room. As a sink it keeps each [`Telemetry::Note`].
#[derive(Clone, Debug)]
pub struct Ring {
    entries: VecDeque<Entry>,
    capacity: usize,
}

impl Ring {
    /// A ring retaining the last `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Ring {
            entries: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// A ring that keeps everything (the simulator, tests).
    pub fn unbounded() -> Self {
        Ring {
            entries: VecDeque::new(),
            capacity: usize::MAX,
        }
    }

    /// Appends `entry`, dropping the oldest when the ring is full.
    pub fn push(&mut self, entry: Entry) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// The entries, oldest first.
    pub fn entries(&self) -> &VecDeque<Entry> {
        &self.entries
    }

    /// The note entries as `(at_ns, replica, note)`, oldest first.
    pub fn notes(&self) -> impl Iterator<Item = (u64, ReplicaId, &Note)> {
        self.entries.iter().filter_map(|e| match &e.record {
            Record::Note(note) => Some((e.at_ns, e.replica, note)),
            _ => None,
        })
    }

    /// The entries as a dump (see the module docs for the format).
    pub fn encode_dump(&self) -> Vec<u8> {
        let mut out = FLIGHT_MAGIC.to_vec();
        for entry in &self.entries {
            frame_record(&mut out, &codec::encode(entry));
        }
        out
    }
}

impl TelemetrySink for Ring {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        if let Telemetry::Note(note) = event {
            let record = Record::Note(note.clone());
            self.push(Entry {
                at_ns,
                replica,
                record,
            });
        }
    }
}

/// One replica's flight ring, with the label its dump file is named
/// after and the clock that stamps what it records itself.
///
/// Clones share the ring: the runtime feeds one clone as a telemetry
/// sink, hands one to the transport and the scrape endpoint, and keeps
/// one for dumping.
#[derive(Clone)]
pub struct FlightRecorder {
    label: Arc<str>,
    replica: ReplicaId,
    clock: Arc<dyn Fn() -> u64 + Send + Sync>,
    ring: SharedSink<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("label", &self.label)
            .field("replica", &self.replica)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// `replica`'s recorder, named `label` (the dump file stem), over a
    /// ring of [`FLIGHT_CAPACITY`] entries. `clock` stamps the entries
    /// [`FlightRecorder::record_now`] adds, so it must be the run's
    /// shared clock for merged timelines to stay on one axis.
    pub fn new(
        label: impl Into<String>,
        replica: ReplicaId,
        clock: Arc<dyn Fn() -> u64 + Send + Sync>,
    ) -> Self {
        FlightRecorder {
            label: label.into().into(),
            replica,
            clock,
            ring: SharedSink::new(Ring::new(FLIGHT_CAPACITY)),
        }
    }

    /// The recorder's label (dump file stem).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records `record` as this recorder's replica, stamped now.
    pub fn record_now(&self, record: Record) {
        let entry = Entry {
            at_ns: (self.clock)(),
            replica: self.replica,
            record,
        };
        self.ring.with(|ring| ring.push(entry));
    }

    /// The current ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<Entry> {
        self.ring
            .with(|ring| ring.entries().iter().cloned().collect())
    }

    /// The current ring as a dump.
    pub fn encode_dump(&self) -> Vec<u8> {
        self.ring.with(|ring| ring.encode_dump())
    }

    /// Writes the current ring to `<dir>/<label>.flight`, creating
    /// `dir` if needed, and returns the file path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn dump_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.flight", self.label));
        std::fs::write(&path, self.encode_dump())?;
        Ok(path)
    }
}

impl TelemetrySink for FlightRecorder {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        self.ring.record(at_ns, replica, event);
    }

    fn record_step(&mut self, at_ns: u64, replica: ReplicaId, events: &[Telemetry<'_>]) {
        self.ring.record_step(at_ns, replica, events);
    }
}

/// Parses a dump back into its entries.
///
/// Tolerates a torn tail: the first frame that is short, fails its CRC
/// or does not decode ends the parse, and everything intact before it
/// is returned, because dumps are written by dying processes.
///
/// # Errors
///
/// Returns `Err` when the magic header is missing (not a dump of this
/// format) or the first frame is already unreadable.
pub fn parse_dump(bytes: &[u8]) -> Result<Vec<Entry>, String> {
    let Some(body) = bytes.strip_prefix(&FLIGHT_MAGIC[..]) else {
        return Err("missing flight-dump magic header".into());
    };
    let entries: Vec<Entry> = split_records(body)
        .0
        .into_iter()
        .map_while(|payload| codec::decode(&Bytes::copy_from_slice(payload)).ok())
        .collect();
    if entries.is_empty() && !body.is_empty() {
        return Err("no intact flight frames".into());
    }
    Ok(entries)
}

/// Merges per-node dumps into one timeline ordered by timestamp
/// (stable: ties keep input order, so one node's causality survives).
pub fn merge_dumps(dumps: Vec<Vec<Entry>>) -> Vec<Entry> {
    let mut all: Vec<Entry> = dumps.into_iter().flatten().collect();
    all.sort_by_key(|e| e.at_ns);
    all
}

// Each recorded type's dump layout. The tags are the file format: add
// new ones, never renumber (old dumps would read as something else).
marlin_types::codec!(struct Entry { at_ns, replica, record });
marlin_types::codec!(enum Record { 0 => Note(note), 1 => Transport(text: Text), 2 => Fatal(text: Text) });
marlin_types::codec!(enum VcCase { 0 => V1, 1 => V2, 2 => V3 });
marlin_types::codec!(enum Note {
    0 => EnteredView { view, leader },
    1 => ViewChangeStarted { from_view },
    2 => HappyPathVc { view },
    3 => UnhappyPathVc { view, case },
    4 => Proposed { view, height, phase },
    5 => FirstVote { view, height, phase },
    6 => QcFormed { phase, view, height },
    7 => Committed { height, txs: Usize },
    8 => CommitConflict { block },
    9 => VoteWithheld { phase },
    10 => JournalWrite { appends, bytes, cost_ns },
    11 => CatchUpRequested { view },
    12 => CatchUpServed { view, newer },
    13 => CatchUpCompleted { view },
    14 => SyncStarted { from, target },
    // 15 was SyncSnapshotInstalled before it carried its anchor block.
    16 => SyncRangeFetched { from, count: Usize },
    17 => SyncPeerDemoted { peer },
    18 => SyncCompleted { height },
    19 => SyncAbandoned { from },
    20 => MempoolAdmission { admitted: Usize, duplicates: Usize, rejected: Usize, priority: Usize },
    21 => PayloadPushed { batch, txs: Usize, bytes: Usize },
    22 => PayloadQuorum { batch },
    23 => PayloadFetched { batch },
    24 => PayloadExpired { batch, txs: Usize },
    25 => Voted { view, phase, height, block },
    26 => Locked { lock },
    27 => Recovered { view, lock },
    28 => SyncSnapshotInstalled { height, block, bytes: Usize },
});
marlin_types::codec!(struct Lock { view, height, block });

/// A `usize` field, written as a `u64`; one the reading platform cannot
/// hold is refused rather than truncated.
struct Usize;

impl Usize {
    fn put<W: Wire>(n: &usize, w: &mut W) {
        (*n as u64).put(w);
    }
    fn get(d: &mut Decoder<'_>) -> codec::Result<usize> {
        let n = u64::get(d)?;
        usize::try_from(n).map_err(|_| codec::DecodeError::FieldTooLarge {
            what: "usize",
            len: usize::MAX,
            max: usize::MAX,
        })
    }
}

/// A text field: a `u32` byte length, then the UTF-8 bytes (read back
/// lossily). The length is checked against the rest of the input
/// before it sizes anything, since a dump comes from outside.
struct Text;

impl Text {
    fn put<W: Wire>(text: &str, w: &mut W) {
        (text.len() as u32).put(w);
        w.put_slice(text.as_bytes());
    }
    fn get(d: &mut Decoder<'_>) -> codec::Result<String> {
        let len = u32::get(d)? as usize;
        Ok(String::from_utf8_lossy(d.take(len)?).into_owned())
    }
}

// --------------------------------------------------- panic-hook dump --

struct PanicDump {
    dir: PathBuf,
    recorders: Vec<FlightRecorder>,
}

fn panic_registry() -> &'static Mutex<Option<PanicDump>> {
    static REGISTRY: OnceLock<Mutex<Option<PanicDump>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

/// Arms the process-wide panic dump: any panic after this call records
/// a [`Record::Fatal`] with the panic message, stamped with the
/// recorder's own replica, into every recorder registered via
/// [`register_panic_dump`] and dumps each to `dir`. Installing again
/// just moves the target directory and clears the registered set; the
/// hook itself is installed once and chains to the previous hook (so
/// panic messages still print).
pub fn install_panic_dump(dir: impl Into<PathBuf>) {
    *panic_registry().lock().expect("panic registry lock") = Some(PanicDump {
        dir: dir.into(),
        recorders: Vec::new(),
    });
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Ok(guard) = panic_registry().lock() {
                if let Some(dump) = guard.as_ref() {
                    for rec in &dump.recorders {
                        rec.record_now(Record::Fatal(info.to_string()));
                        let _ = rec.dump_to_dir(&dump.dir);
                    }
                }
            }
            previous(info);
        }));
    });
}

/// Registers `recorder` for the panic dump armed by
/// [`install_panic_dump`] (no-op when none is armed).
pub fn register_panic_dump(recorder: &FlightRecorder) {
    if let Some(dump) = panic_registry()
        .lock()
        .expect("panic registry lock")
        .as_mut()
    {
        dump.recorders.push(recorder.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::one_of_each_variant;

    /// Every `Note` variant (and every `VcCase`) survives a dump. The
    /// sample list is built by an exhaustive match, so a new variant
    /// without a sample fails to compile, as one without a tag does.
    #[test]
    fn every_note_variant_round_trips_through_a_dump() {
        let mut notes = one_of_each_variant();
        notes.extend([VcCase::V2, VcCase::V3].map(|case| Note::UnhappyPathVc {
            view: marlin_types::View(9),
            case,
        }));
        let mut ring = Ring::unbounded();
        for (i, note) in notes.iter().enumerate() {
            ring.note(i as u64 * 1_000, ReplicaId(i as u32 % 4), note);
        }
        let parsed = parse_dump(&ring.encode_dump()).expect("dump parses");
        assert_eq!(parsed.len(), notes.len());
        assert!(parsed.iter().eq(ring.entries()));
    }
}
