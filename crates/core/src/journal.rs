//! The durable consensus-safety journal.
//!
//! Marlin's safety argument assumes a replica never forgets its lock,
//! its last-voted block, or its current view (PAPER.md §V). A replica
//! that restarts with amnesia silently becomes a Byzantine-equivalent
//! fault: it can re-vote in a view it already voted in and help certify
//! a fork. The [`SafetyJournal`] closes that hole with a **write-ahead
//! voting discipline**: every safety-critical transition — view entry,
//! last-voted block, lock update, `highQC` advance — is appended to a
//! CRC-framed log on a [`Disk`] and synced *before* the corresponding
//! vote message is emitted. If the append fails (torn write at crash
//! time), the replica abstains from that vote; abstention is always
//! safe.
//!
//! # Record format
//!
//! Records ride on the [`Wal`] framing (`len: u32 LE | crc: u32 LE |
//! payload`) in a journal-owned log file, so a torn tail — a crash
//! mid-append — loses only the record being written, never acknowledged
//! state. Each payload is a 1-byte tag followed by the field's wire
//! encoding (shared with the network codec):
//!
//! | tag | record | payload |
//! |-----|--------|---------|
//! | 0 | `EnteredView` | view `u64 LE` |
//! | 1 | `LastVoted` | [`BlockMeta`] wire form |
//! | 2 | `Lock` | [`Qc`] wire form |
//! | 3 | `HighQc` | [`Justify`] wire form |
//! | 4 | `Snapshot` | view + meta + optional lock + justify |
//!
//! # Monotone replay
//!
//! Replay folds records into a [`SafetySnapshot`] **monotonically**:
//! the view only advances, the last-voted block only climbs the block
//! rank order, and the lock only rises in QC rank. Duplicate or stale
//! records (e.g. re-appended after an imperfect compaction) are
//! therefore harmless, and replay can never yield a lock of higher rank
//! than was ever durably recorded.
//!
//! # Snapshot compaction
//!
//! Every [`SNAPSHOT_EVERY`] appends the journal folds its state into a
//! single `Snapshot` record written to a *new generation* of the log
//! file; the old generation is removed only after the new one is
//! synced, so a crash at any point of compaction leaves at least one
//! intact generation. Recovery picks the newest generation with intact
//! records and deletes empty or fully-torn stragglers.

use bytes::{BufMut, BytesMut};
use marlin_storage::{Disk, IoCostModel, SharedDisk, Wal};
use marlin_types::codec::{
    get_block_meta, get_justify, get_qc, put_block_meta, put_justify, put_qc,
};
use marlin_types::rank::{block_rank_gt, qc_rank_cmp};
use marlin_types::{BlockMeta, Height, Justify, Qc, View};
use std::cmp::Ordering;
use std::io;

/// Base name of the journal's log file; generations append `.<n>`.
pub const JOURNAL_FILE: &str = "safety-journal";

/// Appends between snapshot compactions.
pub const SNAPSHOT_EVERY: usize = 64;

/// One durable safety record.
#[allow(clippy::large_enum_variant)] // records are transient encode/decode carriers
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// The replica entered `view` (it must never re-enter or vote in an
    /// earlier view after a restart).
    EnteredView(View),
    /// The replica is about to vote for this block.
    LastVoted(BlockMeta),
    /// The replica's lock rose to this `prepareQC`.
    Lock(Qc),
    /// The replica's `highQC` advanced.
    HighQc(Justify),
    /// A compaction snapshot: the folded state of every prior record.
    Snapshot(SafetySnapshot),
}

/// The monotone fold of a journal: everything a restarting replica must
/// remember to stay safe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SafetySnapshot {
    /// Highest view durably entered.
    pub view: View,
    /// Highest-ranked block durably voted for.
    pub last_voted: BlockMeta,
    /// Highest-ranked durable lock.
    pub locked_qc: Option<Qc>,
    /// Highest-ranked durable `highQC`.
    pub high_qc: Justify,
}

impl SafetySnapshot {
    /// The pre-genesis snapshot: nothing voted, nothing locked.
    pub fn genesis() -> Self {
        SafetySnapshot {
            view: View::GENESIS,
            last_voted: BlockMeta::genesis(),
            locked_qc: None,
            high_qc: Justify::None,
        }
    }

    /// Folds one record in, monotonically (see the module docs).
    pub fn apply(&mut self, rec: &JournalRecord) {
        match rec {
            JournalRecord::EnteredView(v) => self.view = self.view.max(*v),
            JournalRecord::LastVoted(meta) => {
                if block_rank_gt(meta, &self.last_voted) {
                    self.last_voted = *meta;
                }
            }
            JournalRecord::Lock(qc) => self.raise_lock(qc),
            JournalRecord::HighQc(justify) => self.raise_high_qc(justify),
            JournalRecord::Snapshot(snap) => {
                self.view = self.view.max(snap.view);
                if block_rank_gt(&snap.last_voted, &self.last_voted) {
                    self.last_voted = snap.last_voted;
                }
                if let Some(qc) = &snap.locked_qc {
                    self.raise_lock(qc);
                }
                self.raise_high_qc(&snap.high_qc);
            }
        }
    }

    fn raise_lock(&mut self, qc: &Qc) {
        let rises = match &self.locked_qc {
            None => true,
            Some(cur) => qc_rank_cmp(qc, cur) == Ordering::Greater,
        };
        if rises {
            self.locked_qc = Some(*qc);
        }
    }

    fn raise_high_qc(&mut self, justify: &Justify) {
        let rises = match (justify.qc(), self.high_qc.qc()) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(new), Some(cur)) => match qc_rank_cmp(new, cur) {
                Ordering::Greater => true,
                // Equal rank: prefer the richer shape (a `Two` carries
                // the resolving vc a `One` lacks).
                Ordering::Equal => matches!(justify, Justify::Two(_, _)),
                Ordering::Less => false,
            },
        };
        if rises {
            self.high_qc = *justify;
        }
    }
}

fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut buf = BytesMut::new();
    match rec {
        JournalRecord::EnteredView(v) => {
            buf.put_u8(0);
            buf.put_u64_le(v.0);
        }
        JournalRecord::LastVoted(meta) => {
            buf.put_u8(1);
            put_block_meta(&mut buf, meta);
        }
        JournalRecord::Lock(qc) => {
            buf.put_u8(2);
            put_qc(&mut buf, qc);
        }
        JournalRecord::HighQc(justify) => {
            buf.put_u8(3);
            put_justify(&mut buf, justify);
        }
        JournalRecord::Snapshot(snap) => {
            buf.put_u8(4);
            buf.put_u64_le(snap.view.0);
            put_block_meta(&mut buf, &snap.last_voted);
            match &snap.locked_qc {
                None => buf.put_u8(0),
                Some(qc) => {
                    buf.put_u8(1);
                    put_qc(&mut buf, qc);
                }
            }
            put_justify(&mut buf, &snap.high_qc);
        }
    }
    buf.to_vec()
}

fn decode_record(payload: &[u8]) -> Option<JournalRecord> {
    let (&tag, mut rest) = payload.split_first()?;
    let buf = &mut rest;
    let rec = match tag {
        0 => {
            if buf.len() < 8 {
                return None;
            }
            let v = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
            *buf = &buf[8..];
            JournalRecord::EnteredView(View(v))
        }
        1 => JournalRecord::LastVoted(get_block_meta(buf).ok()?),
        2 => JournalRecord::Lock(get_qc(buf).ok()?),
        3 => JournalRecord::HighQc(get_justify(buf).ok()?),
        4 => {
            if buf.len() < 8 {
                return None;
            }
            let v = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
            *buf = &buf[8..];
            let last_voted = get_block_meta(buf).ok()?;
            let locked_qc = match buf.split_first()? {
                (0, rest) => {
                    *buf = rest;
                    None
                }
                (1, rest) => {
                    *buf = rest;
                    Some(get_qc(buf).ok()?)
                }
                _ => return None,
            };
            let high_qc = get_justify(buf).ok()?;
            JournalRecord::Snapshot(SafetySnapshot {
                view: View(v),
                last_voted,
                locked_qc,
                high_qc,
            })
        }
        _ => return None,
    };
    if buf.is_empty() {
        Some(rec)
    } else {
        None
    }
}

/// Accumulated write-ahead IO since the last [`SafetyJournal::take_io`]
/// call: what the journal cost, for telemetry.
///
/// The modeled `cost_ns` is **reported, not charged**: folding it into
/// a step's `cpu_ns` would perturb the deterministic schedules that the
/// fault-injection campaign pins by fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalIo {
    /// Append operations (including compaction snapshots) that reached
    /// the disk.
    pub appends: u64,
    /// Bytes written, including the WAL's 8-byte length/CRC framing.
    pub bytes: u64,
    /// Modeled append + sync latency under [`IoCostModel::ssd`].
    pub cost_ns: u64,
}

impl JournalIo {
    fn charge(&mut self, payload_len: usize, cost: &IoCostModel) {
        self.appends += 1;
        self.bytes += payload_len as u64 + 8;
        self.cost_ns += cost.wal_append(payload_len) + cost.sync_ns;
    }
}

/// The write-ahead safety journal (see the module docs).
#[derive(Clone, Debug)]
pub struct SafetyJournal {
    disk: SharedDisk,
    /// Current log-file generation (compaction bumps it).
    gen: u64,
    /// Records appended to the current generation.
    records_in_gen: usize,
    /// The monotone fold of everything durably acknowledged.
    state: SafetySnapshot,
    /// The last append tore; the log tail is unreadable past it, so the
    /// next append must compact to a fresh generation first.
    torn: bool,
    /// Lowest block height referenced by a non-snapshot record in the
    /// current generation (None: only view entries / snapshots, which
    /// carry no prunable history). Drives [`SafetyJournal::gc_below`].
    gen_low_height: Option<u64>,
    /// IO cost model used for the telemetry accounting in `io`.
    cost: IoCostModel,
    /// IO accumulated since the last [`SafetyJournal::take_io`].
    io: JournalIo,
}

impl SafetyJournal {
    /// Opens (or creates) the journal on `disk`, replaying the newest
    /// intact log generation into the recovered [`SafetySnapshot`] and
    /// removing empty or fully-torn straggler generations.
    ///
    /// # Errors
    ///
    /// Propagates disk errors.
    pub fn open(disk: SharedDisk) -> io::Result<Self> {
        let mut disk = disk;
        let mut gens: Vec<u64> = disk
            .list()?
            .iter()
            .filter_map(|name| {
                name.strip_prefix(JOURNAL_FILE)
                    .and_then(|rest| rest.strip_prefix('.'))
                    .and_then(|g| g.parse().ok())
            })
            .collect();
        gens.sort_unstable();

        let mut state = SafetySnapshot::genesis();
        let mut gen_low_height = None;
        let mut chosen: Option<(u64, usize, bool)> = None;
        for &g in gens.iter().rev() {
            let (records, tail_clean) = Wal::replay_named_checked(&disk, &gen_file(g))?;
            if records.is_empty() {
                continue;
            }
            let mut applied = 0usize;
            let mut low = None;
            for payload in &records {
                match decode_record(payload) {
                    Some(rec) => {
                        state.apply(&rec);
                        low = min_opt(low, record_low_height(&rec));
                        applied += 1;
                    }
                    // An intact-CRC record that fails to decode means a
                    // format change or corruption; stop conservatively
                    // (everything before it is already folded in).
                    None => break,
                }
            }
            if applied > 0 {
                gen_low_height = low;
                chosen = Some((g, applied, tail_clean && applied == records.len()));
                break;
            }
        }
        let (gen, records_in_gen, tail_clean) = match chosen {
            Some(c) => c,
            None => {
                let g = gens.last().copied().unwrap_or(0);
                // A straggler file with zero intact records still holds
                // bytes that would shadow anything appended after them.
                (g, 0, !disk.exists(&gen_file(g)))
            }
        };
        // Garbage-collect every other generation (older history is
        // subsumed; newer ones held no intact records).
        for &g in &gens {
            if g != gen {
                disk.remove(&gen_file(g))?;
            }
        }
        Ok(SafetyJournal {
            disk,
            gen,
            records_in_gen,
            state,
            // A torn or undecodable tail survived the crash: appending
            // after it would be invisible to the next replay, so the
            // first append must compact to a fresh generation.
            torn: !tail_clean,
            gen_low_height,
            cost: IoCostModel::ssd(),
            io: JournalIo::default(),
        })
    }

    /// Drops journal history wholly below the pruned prefix: when the
    /// current log generation still references a block below `horizon`
    /// (the sync snapshot horizon that block storage was pruned to),
    /// the journal folds its state into a fresh generation and removes
    /// the old one — so an idle generation cannot pin sub-horizon
    /// history on disk indefinitely. Returns whether a compaction ran.
    ///
    /// # Errors
    ///
    /// Propagates disk errors; on error the journal is still intact
    /// (the same crash discipline as [`SNAPSHOT_EVERY`] compaction).
    pub fn gc_below(&mut self, horizon: Height) -> io::Result<bool> {
        // A lone post-compaction snapshot contributes no low height, so
        // GC naturally quiesces until new prunable records land.
        match self.gen_low_height {
            Some(low) if low < horizon.0 => {
                self.compact()?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Takes (and resets) the IO accumulated since the last call, for
    /// telemetry reporting.
    pub fn take_io(&mut self) -> JournalIo {
        std::mem::take(&mut self.io)
    }

    /// The monotone fold of everything durably acknowledged so far.
    pub fn state(&self) -> &SafetySnapshot {
        &self.state
    }

    /// Durably records a view entry.
    ///
    /// # Errors
    ///
    /// Propagates disk errors; on error nothing was acknowledged.
    pub fn log_view(&mut self, view: View) -> io::Result<()> {
        self.append(JournalRecord::EnteredView(view))
    }

    /// Durably records the block the replica is about to vote for.
    /// **Must succeed before the vote is sent** (write-ahead voting).
    ///
    /// # Errors
    ///
    /// Propagates disk errors; on error the caller must abstain.
    pub fn log_last_voted(&mut self, meta: &BlockMeta) -> io::Result<()> {
        self.append(JournalRecord::LastVoted(*meta))
    }

    /// Durably records a lock update.
    ///
    /// # Errors
    ///
    /// Propagates disk errors; on error nothing was acknowledged.
    pub fn log_lock(&mut self, qc: &Qc) -> io::Result<()> {
        self.append(JournalRecord::Lock(*qc))
    }

    /// Durably records a `highQC` advance.
    ///
    /// # Errors
    ///
    /// Propagates disk errors; on error nothing was acknowledged.
    pub fn log_high_qc(&mut self, justify: &Justify) -> io::Result<()> {
        self.append(JournalRecord::HighQc(*justify))
    }

    fn append(&mut self, rec: JournalRecord) -> io::Result<()> {
        // Records that would not move the monotone fold are already
        // durable (e.g. a commit-phase re-vote for an already-journaled
        // block, or a lock raise to a QC the journal has): skip the
        // disk round-trip.
        let mut next = self.state;
        next.apply(&rec);
        if next == self.state {
            return Ok(());
        }
        if self.torn {
            // The current generation has an unreadable tail; anything
            // appended after it would be lost to replay. Fold the known
            // state into a fresh generation first.
            self.compact()?;
        }
        let payload = encode_record(&rec);
        let file = gen_file(self.gen);
        match Wal::append_named(&mut self.disk, &file, &payload) {
            Ok(()) => {
                self.disk.sync()?;
                self.io.charge(payload.len(), &self.cost);
                self.state.apply(&rec);
                self.gen_low_height = min_opt(self.gen_low_height, record_low_height(&rec));
                self.records_in_gen += 1;
                if self.records_in_gen >= SNAPSHOT_EVERY {
                    self.compact()?;
                }
                Ok(())
            }
            Err(e) => {
                // Best-effort sync so the torn tail is what a real disk
                // would leave behind; replay discards it by CRC.
                let _ = self.disk.sync();
                self.torn = true;
                Err(e)
            }
        }
    }

    /// Folds the journal into one `Snapshot` record on a fresh log
    /// generation, then removes the old generation. Crash-safe: the old
    /// generation is removed only after the new one is synced.
    fn compact(&mut self) -> io::Result<()> {
        let next = self.gen + 1;
        let target = gen_file(next);
        // A previous compaction attempt may have torn, leaving a
        // fragment at the head of the target file. Appending after it
        // would hide the snapshot from replay (the CRC scan stops at
        // the first bad frame), so truncate the target first.
        self.disk.remove(&target)?;
        let snap = encode_record(&JournalRecord::Snapshot(self.state));
        Wal::append_named(&mut self.disk, &target, &snap)?;
        self.disk.sync()?;
        self.io.charge(snap.len(), &self.cost);
        let old = gen_file(self.gen);
        self.gen = next;
        self.records_in_gen = 1;
        self.torn = false;
        // The fresh generation holds only the snapshot (current state):
        // no prunable history until new records land.
        self.gen_low_height = None;
        self.disk.remove(&old)?;
        Ok(())
    }
}

/// The lowest block height a record pins on disk, if any. View entries
/// carry no height; a `Snapshot` is the folded current state, which is
/// never *history* (it is exactly what survives a GC compaction).
fn record_low_height(rec: &JournalRecord) -> Option<u64> {
    match rec {
        JournalRecord::LastVoted(meta) => Some(meta.height.0),
        JournalRecord::Lock(qc) => Some(qc.height().0),
        JournalRecord::HighQc(justify) => justify.qc().map(|qc| qc.height().0),
        JournalRecord::EnteredView(_) | JournalRecord::Snapshot(_) => None,
    }
}

fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

fn gen_file(gen: u64) -> String {
    format!("{JOURNAL_FILE}.{gen}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_types::{BlockId, BlockKind, Phase, QcSeed};

    fn meta(view: u64, height: u64, rank_boost: bool) -> BlockMeta {
        BlockMeta {
            id: BlockId::from_digest(marlin_crypto::sha256(&[view as u8, height as u8, 7])),
            view: View(view),
            height: Height(height),
            pview: View(view.saturating_sub(1)),
            kind: BlockKind::Normal,
            rank_boost,
        }
    }

    fn qc(phase: Phase, view: u64, height: u64) -> Qc {
        let seed = QcSeed {
            phase,
            view: View(view),
            block: BlockId::from_digest(marlin_crypto::sha256(&[view as u8, height as u8])),
            height: Height(height),
            block_view: View(view),
            pview: View(view.saturating_sub(1)),
            block_kind: BlockKind::Normal,
        };
        Qc::new(seed, *Qc::genesis(BlockId::GENESIS).sig())
    }

    #[test]
    fn records_round_trip() {
        let recs = [
            JournalRecord::EnteredView(View(9)),
            JournalRecord::LastVoted(meta(3, 4, true)),
            JournalRecord::Lock(qc(Phase::Prepare, 3, 4)),
            JournalRecord::HighQc(Justify::None),
            JournalRecord::HighQc(Justify::One(qc(Phase::Prepare, 2, 2))),
            JournalRecord::HighQc(Justify::Two(
                qc(Phase::PrePrepare, 4, 5),
                qc(Phase::Prepare, 3, 4),
            )),
            JournalRecord::Snapshot(SafetySnapshot {
                view: View(5),
                last_voted: meta(5, 6, false),
                locked_qc: Some(qc(Phase::Prepare, 4, 5)),
                high_qc: Justify::One(qc(Phase::Prepare, 4, 5)),
            }),
            JournalRecord::Snapshot(SafetySnapshot::genesis()),
        ];
        for rec in recs {
            let enc = encode_record(&rec);
            assert_eq!(decode_record(&enc), Some(rec.clone()), "{rec:?}");
        }
        assert_eq!(decode_record(&[]), None);
        assert_eq!(decode_record(&[99]), None);
    }

    #[test]
    fn take_io_reports_appends_and_drains() {
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk).unwrap();
        assert_eq!(j.take_io(), JournalIo::default());

        j.log_view(View(1)).unwrap();
        j.log_last_voted(&meta(1, 1, false)).unwrap();
        let io = j.take_io();
        assert_eq!(io.appends, 2);
        // Each append is charged its payload plus 8 bytes WAL framing.
        assert!(io.bytes > 16);
        assert!(io.cost_ns > 0);

        // Drained: a second take reports nothing.
        assert_eq!(j.take_io(), JournalIo::default());

        // A no-op fold (stale view) skips the disk and is not charged.
        j.log_view(View(1)).unwrap();
        assert_eq!(j.take_io(), JournalIo::default());
    }

    #[test]
    fn open_append_reopen_recovers_state() {
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk.clone()).unwrap();
        assert_eq!(*j.state(), SafetySnapshot::genesis());
        j.log_view(View(1)).unwrap();
        j.log_last_voted(&meta(1, 1, false)).unwrap();
        j.log_lock(&qc(Phase::Prepare, 1, 1)).unwrap();
        j.log_high_qc(&Justify::One(qc(Phase::Prepare, 1, 1)))
            .unwrap();
        let expected = *j.state();
        // Power loss: unsynced data is lost, but every append synced.
        disk.crash();
        let j2 = SafetyJournal::open(disk).unwrap();
        assert_eq!(*j2.state(), expected);
        assert_eq!(j2.state().view, View(1));
        assert_eq!(j2.state().last_voted.height, Height(1));
    }

    #[test]
    fn replay_is_monotone_under_stale_records() {
        let mut s = SafetySnapshot::genesis();
        s.apply(&JournalRecord::EnteredView(View(5)));
        s.apply(&JournalRecord::EnteredView(View(3))); // stale
        assert_eq!(s.view, View(5));
        s.apply(&JournalRecord::Lock(qc(Phase::Prepare, 4, 4)));
        s.apply(&JournalRecord::Lock(qc(Phase::Prepare, 2, 9))); // lower rank
        assert_eq!(s.locked_qc.unwrap().view(), View(4));
        s.apply(&JournalRecord::LastVoted(meta(4, 4, true)));
        s.apply(&JournalRecord::LastVoted(meta(3, 9, true))); // lower rank
        assert_eq!(s.last_voted.view, View(4));
    }

    #[test]
    fn torn_append_is_discarded_and_reported() {
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk.clone()).unwrap();
        j.log_last_voted(&meta(1, 1, false)).unwrap();
        disk.tear_next_write_after(5); // tears inside the 8-byte header
        assert!(j.log_last_voted(&meta(2, 2, false)).is_err());
        // The crashed-and-reopened journal sees only the intact record.
        disk.crash();
        let j2 = SafetyJournal::open(disk).unwrap();
        assert_eq!(j2.state().last_voted.view, View(1));
    }

    #[test]
    fn append_after_torn_tail_compacts_and_survives() {
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk.clone()).unwrap();
        j.log_last_voted(&meta(1, 1, false)).unwrap();
        disk.tear_next_write_after(3);
        assert!(j.log_view(View(2)).is_err());
        // The journal heals by compacting to a new generation; later
        // appends are durable again.
        j.log_view(View(3)).unwrap();
        j.log_last_voted(&meta(3, 2, false)).unwrap();
        disk.crash();
        let j2 = SafetyJournal::open(disk).unwrap();
        assert_eq!(j2.state().view, View(3));
        assert_eq!(j2.state().last_voted.view, View(3));
    }

    #[test]
    fn snapshot_compaction_bounds_log_and_preserves_state() {
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk.clone()).unwrap();
        for i in 1..=(3 * SNAPSHOT_EVERY as u64) {
            j.log_view(View(i)).unwrap();
        }
        let expected = *j.state();
        // At most one generation file exists, holding well under
        // SNAPSHOT_EVERY + 1 records' worth of bytes.
        let files = disk.list().unwrap();
        let journal_files: Vec<_> = files
            .iter()
            .filter(|f| f.starts_with(JOURNAL_FILE))
            .collect();
        assert_eq!(journal_files.len(), 1, "{journal_files:?}");
        disk.crash();
        let j2 = SafetyJournal::open(disk).unwrap();
        assert_eq!(j2.state(), &expected);
        assert_eq!(j2.state().view.0, 3 * SNAPSHOT_EVERY as u64);
    }

    #[test]
    fn torn_newest_generation_falls_back_to_old_one() {
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk.clone()).unwrap();
        for i in 1..SNAPSHOT_EVERY as u64 {
            j.log_view(View(i)).unwrap();
        }
        // Simulate a crash mid-compaction: a newer generation exists on
        // disk but holds only a torn fragment of its snapshot record.
        let mut d = disk.clone();
        d.append(&gen_file(1), &[9, 9, 9]).unwrap();
        d.sync().unwrap();
        disk.crash();
        let j2 = SafetyJournal::open(disk.clone()).unwrap();
        // Recovery fell back to the intact old generation and removed
        // the straggler.
        assert_eq!(j2.state().view.0, SNAPSHOT_EVERY as u64 - 1);
        assert!(!disk.exists(&gen_file(1)));
    }

    #[test]
    fn appends_after_reopening_onto_a_torn_tail_survive() {
        // Found by the journal property test: a torn append leaves
        // durable garbage at the log tail; if a reopen then keeps
        // appending to the same generation, replay stops at the garbage
        // and everything after it — acknowledged records included — is
        // silently lost. Reopen must treat the surviving tail as torn.
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk.clone()).unwrap();
        j.log_lock(&qc(Phase::Prepare, 1, 1)).unwrap();
        disk.tear_next_write_after(12); // durable 12-byte fragment
        assert!(j.log_view(View(2)).is_err());
        disk.crash();
        let mut j2 = SafetyJournal::open(disk.clone()).unwrap();
        assert_eq!(j2.state().locked_qc.unwrap().view(), View(1));
        // These appends must not hide behind the surviving fragment.
        j2.log_lock(&qc(Phase::Prepare, 3, 3)).unwrap();
        j2.log_view(View(4)).unwrap();
        disk.crash();
        let j3 = SafetyJournal::open(disk).unwrap();
        assert_eq!(j3.state().locked_qc.unwrap().view(), View(3));
        assert_eq!(j3.state().view, View(4));
    }

    #[test]
    fn retried_compaction_truncates_the_torn_target() {
        // Also property-test fallout: if the snapshot write of a
        // compaction tears, the retry must truncate the partial target
        // file rather than append the snapshot after the fragment.
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk.clone()).unwrap();
        j.log_lock(&qc(Phase::Prepare, 2, 2)).unwrap();
        // First tear marks the tail torn; the next append compacts, and
        // the second tear hits that compaction's snapshot write.
        disk.tear_next_write_after(3);
        assert!(j.log_view(View(3)).is_err());
        disk.tear_next_write_after(3);
        assert!(j.log_view(View(4)).is_err());
        // The retried compaction must start the new generation clean.
        j.log_view(View(5)).unwrap();
        disk.crash();
        let j2 = SafetyJournal::open(disk).unwrap();
        assert_eq!(j2.state().locked_qc.unwrap().view(), View(2));
        assert_eq!(j2.state().view, View(5));
    }

    #[test]
    fn gc_below_drops_stale_history_and_preserves_state() {
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk.clone()).unwrap();
        j.log_view(View(1)).unwrap();
        j.log_last_voted(&meta(1, 1, false)).unwrap();
        j.log_lock(&qc(Phase::Prepare, 1, 1)).unwrap();
        // Horizon at the generation's lowest height: nothing is wholly
        // below it yet.
        assert!(!j.gc_below(Height(1)).unwrap());
        // Horizon above it: history folds into a fresh generation.
        let before = *j.state();
        assert!(j.gc_below(Height(10)).unwrap());
        assert_eq!(*j.state(), before);
        // Quiesces until new prunable records land.
        assert!(!j.gc_below(Height(10)).unwrap());
        j.log_last_voted(&meta(2, 12, false)).unwrap();
        assert!(!j.gc_below(Height(10)).unwrap()); // 12 >= horizon
        assert!(j.gc_below(Height(20)).unwrap());
        disk.crash();
        let j2 = SafetyJournal::open(disk).unwrap();
        assert_eq!(j2.state().last_voted.height, Height(12));
        assert_eq!(j2.state().view, before.view);
        assert_eq!(j2.state().locked_qc, before.locked_qc);
    }

    #[test]
    fn gc_low_height_is_recovered_across_reopen() {
        let disk = SharedDisk::new();
        let mut j = SafetyJournal::open(disk.clone()).unwrap();
        j.log_last_voted(&meta(1, 5, false)).unwrap();
        disk.crash();
        let mut j2 = SafetyJournal::open(disk.clone()).unwrap();
        // The reopened generation still pins height 5; a horizon above
        // it collects, one at or below it does not.
        assert!(!j2.gc_below(Height(5)).unwrap());
        assert!(j2.gc_below(Height(9)).unwrap());
        assert!(!j2.gc_below(Height(9)).unwrap());
        // Only one (fresh) generation remains on disk.
        let journal_files: Vec<String> = disk
            .list()
            .unwrap()
            .into_iter()
            .filter(|f| f.starts_with(JOURNAL_FILE))
            .collect();
        assert_eq!(journal_files.len(), 1, "{journal_files:?}");
    }
}
