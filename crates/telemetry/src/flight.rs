//! Per-node flight recorder: the last N seconds of a replica's life,
//! dumped when something dies.
//!
//! A [`FlightRecorder`] is a fixed-capacity ring buffer of
//! wall-clock-stamped [`FlightEvent`]s (consensus notes, view changes,
//! channel stalls, transport connects/disconnects, journal syncs).
//! Recording is a mutex-guarded ring push — cheap enough to leave on in
//! production — and the ring is dumped to a CRC-framed binary file:
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
//! per event, oldest first: `len: u32 LE | crc: u32 LE | payload`,
//! where `crc` is CRC-32 (IEEE) of the payload and the payload is
//! `at_ns: u64 LE | replica: u32 LE | kind: u8 | detail: UTF-8 bytes`.
//! [`parse_dump`] stops at the first torn or corrupt frame and returns
//! everything intact before it — the same crash discipline as the
//! safety journal, because dumps are written while the process is
//! dying.

use crate::event::{Note, Telemetry, TelemetrySink};
use marlin_types::ReplicaId;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// First bytes of every flight-recorder dump.
pub const FLIGHT_MAGIC: &[u8; 8] = b"MARFLT1\n";

/// Default ring capacity (events retained per node).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

/// What category of event a flight-recorder entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightKind {
    /// A consensus trace note (proposal, QC, commit, sync progress...).
    Note,
    /// A view entry or view-change start.
    ViewChange,
    /// A bounded channel blocked a sender (backpressure stall).
    Stall,
    /// A transport connection event (dial, accept, disconnect, close).
    Transport,
    /// A write-ahead journal append/sync batch.
    Journal,
    /// The terminal event of a dump: panic, invariant violation, or
    /// node stop.
    Fatal,
}

impl FlightKind {
    /// Stable lower-case label for display.
    pub fn label(&self) -> &'static str {
        match self {
            FlightKind::Note => "note",
            FlightKind::ViewChange => "view",
            FlightKind::Stall => "stall",
            FlightKind::Transport => "transport",
            FlightKind::Journal => "journal",
            FlightKind::Fatal => "FATAL",
        }
    }

    fn tag(self) -> u8 {
        match self {
            FlightKind::Note => 0,
            FlightKind::ViewChange => 1,
            FlightKind::Stall => 2,
            FlightKind::Transport => 3,
            FlightKind::Journal => 4,
            FlightKind::Fatal => 5,
        }
    }

    fn from_tag(tag: u8) -> Option<FlightKind> {
        Some(match tag {
            0 => FlightKind::Note,
            1 => FlightKind::ViewChange,
            2 => FlightKind::Stall,
            3 => FlightKind::Transport,
            4 => FlightKind::Journal,
            5 => FlightKind::Fatal,
            _ => return None,
        })
    }
}

/// One wall-clock-stamped entry in a flight ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Timestamp on the run's shared clock (nanoseconds).
    pub at_ns: u64,
    /// The replica that recorded the event.
    pub replica: u32,
    /// Event category.
    pub kind: FlightKind,
    /// Human-readable detail.
    pub detail: String,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<FlightEvent>,
    capacity: usize,
    /// Events evicted from the ring since start (honesty marker in
    /// dumps: a merged timeline knows how much history it is missing).
    evicted: u64,
}

/// A shared, fixed-capacity ring of flight events (see module docs).
///
/// Clones share the ring; the runtime hands one clone to the telemetry
/// sink, one to each instrumented channel, one to the transport, and
/// keeps one for dumping.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<Ring>>,
    label: Arc<str>,
    clock: Arc<dyn Fn() -> u64 + Send + Sync>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("label", &self.label)
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder named `label` (used for dump file names) retaining
    /// the last `capacity` events. Events recorded through
    /// [`FlightRecorder::record_now`] (e.g. from the panic hook) are
    /// stamped by `clock`, which must be the run's shared clock so
    /// merged timelines stay on one axis.
    pub fn new(
        label: impl Into<String>,
        capacity: usize,
        clock: Arc<dyn Fn() -> u64 + Send + Sync>,
    ) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
                evicted: 0,
            })),
            label: label.into().into(),
            clock,
        }
    }

    /// The recorder's label (dump file stem).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records one event with an explicit timestamp.
    pub fn record(
        &self,
        at_ns: u64,
        replica: ReplicaId,
        kind: FlightKind,
        detail: impl Into<String>,
    ) {
        let mut ring = self.inner.lock().expect("flight ring lock");
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.evicted += 1;
        }
        ring.events.push_back(FlightEvent {
            at_ns,
            replica: replica.0,
            kind,
            detail: detail.into(),
        });
    }

    /// Records one event stamped with the recorder's clock.
    pub fn record_now(&self, replica: ReplicaId, kind: FlightKind, detail: impl Into<String>) {
        self.record((self.clock)(), replica, kind, detail);
    }

    /// The current ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let ring = self.inner.lock().expect("flight ring lock");
        ring.events.iter().cloned().collect()
    }

    /// Events evicted from the ring so far (history the ring no longer
    /// holds).
    pub fn evicted(&self) -> u64 {
        self.inner.lock().expect("flight ring lock").evicted
    }

    /// Encodes the current ring as a dump (see the module docs for the
    /// format).
    pub fn encode_dump(&self) -> Vec<u8> {
        encode_dump(&self.snapshot())
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

/// Mirrors consensus notes into a flight ring; compose it into a tuple
/// with whatever other sink the runtime uses so the last N notes are
/// always available for autopsy.
#[derive(Clone, Debug)]
pub struct FlightSink(FlightRecorder);

impl FlightSink {
    /// A sink recording into `recorder`.
    pub fn new(recorder: FlightRecorder) -> Self {
        FlightSink(recorder)
    }
}

impl TelemetrySink for FlightSink {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        let Telemetry::Note(note) = event else {
            return;
        };
        let kind = match note {
            Note::EnteredView { .. }
            | Note::ViewChangeStarted { .. }
            | Note::HappyPathVc { .. }
            | Note::UnhappyPathVc { .. } => FlightKind::ViewChange,
            Note::JournalWrite { .. } => FlightKind::Journal,
            _ => FlightKind::Note,
        };
        self.0.record(at_ns, replica, kind, format!("{note:?}"));
    }
}

/// Encodes `events` as a dump byte stream.
pub fn encode_dump(events: &[FlightEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + events.len() * 48);
    out.extend_from_slice(FLIGHT_MAGIC);
    for e in events {
        let mut payload = Vec::with_capacity(13 + e.detail.len());
        payload.extend_from_slice(&e.at_ns.to_le_bytes());
        payload.extend_from_slice(&e.replica.to_le_bytes());
        payload.push(e.kind.tag());
        payload.extend_from_slice(e.detail.as_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Parses a dump back into events.
///
/// Tolerates a torn tail — a frame with a short or CRC-mismatched body
/// ends the parse and everything intact before it is returned — because
/// dumps are written by dying processes.
///
/// # Errors
///
/// Returns `Err` when the magic header is missing or the first frame is
/// already unreadable (the file is not a flight dump at all).
pub fn parse_dump(bytes: &[u8]) -> Result<Vec<FlightEvent>, String> {
    let Some(body) = bytes.strip_prefix(&FLIGHT_MAGIC[..]) else {
        return Err("missing flight-dump magic header".into());
    };
    let mut events = Vec::new();
    let mut rest = body;
    while rest.len() >= 8 {
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if rest.len() < 8 + len || len < 13 {
            break; // torn tail
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            break; // corrupt frame: stop conservatively
        }
        let at_ns = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let replica = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
        let Some(kind) = FlightKind::from_tag(payload[12]) else {
            break;
        };
        let detail = String::from_utf8_lossy(&payload[13..]).into_owned();
        events.push(FlightEvent {
            at_ns,
            replica,
            kind,
            detail,
        });
        rest = &rest[8 + len..];
    }
    if events.is_empty() && !body.is_empty() {
        return Err("no intact flight frames".into());
    }
    Ok(events)
}

/// Merges per-node dumps into one timeline ordered by timestamp
/// (stable: ties keep input order, so one node's causality survives).
pub fn merge_dumps(dumps: Vec<Vec<FlightEvent>>) -> Vec<FlightEvent> {
    let mut all: Vec<FlightEvent> = dumps.into_iter().flatten().collect();
    all.sort_by_key(|e| e.at_ns);
    all
}

/// CRC-32 (IEEE 802.3, reflected) — self-contained, no tables.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
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

/// Arms the process-wide panic dump: any panic after this call stamps a
/// `Fatal` event with the panic message into every recorder registered
/// via [`register_panic_dump`] and dumps each to `dir`. Installing
/// again just moves the target directory and clears the registered
/// set; the hook itself is installed once and chains to the previous
/// hook (so panic messages still print).
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
                    let msg = info.to_string();
                    for rec in &dump.recorders {
                        rec.record_now(ReplicaId(u32::MAX), FlightKind::Fatal, &msg);
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

    fn recorder(capacity: usize) -> FlightRecorder {
        FlightRecorder::new("test-node", capacity, Arc::new(|| 42))
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let rec = recorder(3);
        for i in 0..5u64 {
            rec.record(i, ReplicaId(0), FlightKind::Note, format!("e{i}"));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].detail, "e2");
        assert_eq!(snap[2].detail, "e4");
        assert_eq!(rec.evicted(), 2);
    }

    #[test]
    fn dump_round_trips() {
        let rec = recorder(16);
        rec.record(10, ReplicaId(1), FlightKind::ViewChange, "entered view 3");
        rec.record(20, ReplicaId(1), FlightKind::Stall, "consensus 1.2ms");
        rec.record_now(ReplicaId(1), FlightKind::Fatal, "stopped");
        let parsed = parse_dump(&rec.encode_dump()).expect("parseable dump");
        assert_eq!(parsed, rec.snapshot());
        assert_eq!(parsed[2].at_ns, 42); // record_now used the clock
        assert_eq!(parsed[2].kind, FlightKind::Fatal);
    }

    #[test]
    fn parse_tolerates_a_torn_tail_but_rejects_garbage() {
        let rec = recorder(8);
        rec.record(1, ReplicaId(0), FlightKind::Note, "alpha");
        rec.record(2, ReplicaId(0), FlightKind::Note, "beta");
        let mut dump = rec.encode_dump();
        let torn_at = dump.len() - 5;
        dump.truncate(torn_at); // tear inside the last frame
        let parsed = parse_dump(&dump).expect("intact prefix survives");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].detail, "alpha");

        // A corrupt CRC ends the parse at the bad frame.
        let mut corrupt = rec.encode_dump();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert_eq!(parse_dump(&corrupt).expect("prefix").len(), 1);

        assert!(parse_dump(b"not a dump").is_err());
        assert!(parse_dump(&[]).is_err());
        // Magic alone is an empty (but valid) dump.
        assert_eq!(parse_dump(FLIGHT_MAGIC).expect("empty dump"), vec![]);
    }

    #[test]
    fn merge_orders_across_nodes_by_timestamp() {
        let a = vec![
            FlightEvent {
                at_ns: 10,
                replica: 0,
                kind: FlightKind::Note,
                detail: "a10".into(),
            },
            FlightEvent {
                at_ns: 30,
                replica: 0,
                kind: FlightKind::Fatal,
                detail: "a30".into(),
            },
        ];
        let b = vec![FlightEvent {
            at_ns: 20,
            replica: 1,
            kind: FlightKind::Note,
            detail: "b20".into(),
        }];
        let merged = merge_dumps(vec![a, b]);
        let details: Vec<&str> = merged.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["a10", "b20", "a30"]);
    }

    #[test]
    fn dump_to_dir_writes_a_parseable_file() {
        let dir = std::env::temp_dir().join(format!("marlin-flight-test-{}", std::process::id()));
        let rec = recorder(4);
        rec.record(7, ReplicaId(2), FlightKind::Journal, "sync 3 appends");
        let path = rec.dump_to_dir(&dir).expect("dump written");
        let bytes = std::fs::read(&path).expect("read dump back");
        assert_eq!(parse_dump(&bytes).expect("parseable"), rec.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
