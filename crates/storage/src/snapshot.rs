//! Generational, torn-write-tolerant application-state snapshots.
//!
//! A [`SnapshotStore`] persists an opaque snapshot payload (the caller
//! decides what a "snapshot" is — consensus keeps a self-certifying
//! block/QC anchor there) with the same crash discipline as the safety
//! journal:
//!
//! * each save writes a **fresh generation** file
//!   (`state-snapshot.<n>`) under the [`Wal`] framing (`len: u32 LE |
//!   crc: u32 LE | payload`), so a torn write corrupts only the
//!   generation being written, never an acknowledged one;
//! * the **previous generation is retained** until the next save, so
//!   recovery after a torn newest generation falls back to the last
//!   intact snapshot instead of losing snapshot state entirely;
//! * [`SnapshotStore::open`] picks the newest generation with an intact
//!   CRC-framed record and garbage-collects every other straggler,
//!   which keeps on-disk snapshot state bounded to at most two
//!   generations regardless of run length.

use crate::disk::{Disk, SharedDisk};
use crate::wal::Wal;
use std::io;

/// Base name of the snapshot files; generations append `.<n>`.
pub const SNAPSHOT_FILE: &str = "state-snapshot";

fn gen_file(gen: u64) -> String {
    format!("{SNAPSHOT_FILE}.{gen}")
}

/// Durable generational snapshot storage (see the module docs).
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    disk: SharedDisk,
    /// Newest generation holding an intact snapshot (the next save
    /// writes `gen + 1`).
    gen: u64,
    /// The newest intact snapshot payload, if any.
    latest: Option<Vec<u8>>,
}

impl SnapshotStore {
    /// Opens (or creates) the snapshot store on `disk`, recovering the
    /// newest generation with an intact record. Torn or undecodable
    /// newer generations are skipped — recovery falls back to the
    /// previous intact one — and every non-chosen generation file is
    /// removed.
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
                name.strip_prefix(SNAPSHOT_FILE)
                    .and_then(|rest| rest.strip_prefix('.'))
                    .and_then(|g| g.parse().ok())
            })
            .collect();
        gens.sort_unstable();

        let mut chosen: Option<(u64, Vec<u8>)> = None;
        for &g in gens.iter().rev() {
            let (records, _tail_clean) = Wal::replay_named_checked(&disk, &gen_file(g))?;
            // A save writes exactly one record per generation; if a
            // hostile or torn file somehow holds several intact frames,
            // the last one is the newest acknowledged payload.
            if let Some(payload) = records.into_iter().last() {
                chosen = Some((g, payload));
                break;
            }
        }
        let gen = chosen
            .as_ref()
            .map(|(g, _)| *g)
            .or_else(|| gens.last().copied())
            .unwrap_or(0);
        for &g in &gens {
            if Some(g) != chosen.as_ref().map(|(c, _)| *c) {
                disk.remove(&gen_file(g))?;
            }
        }
        Ok(SnapshotStore {
            disk,
            gen,
            latest: chosen.map(|(_, payload)| payload),
        })
    }

    /// The newest intact snapshot payload, if any was ever saved.
    pub fn latest(&self) -> Option<&[u8]> {
        self.latest.as_deref()
    }

    /// Durably saves `payload` as a new snapshot generation, then
    /// retires everything older than the *previous* generation (the
    /// previous one is kept as the torn-write fallback). Returns the
    /// framed bytes written.
    ///
    /// # Errors
    ///
    /// Propagates disk errors; on error the previously acknowledged
    /// snapshot is still intact and recoverable.
    pub fn save(&mut self, payload: &[u8]) -> io::Result<usize> {
        let next = self.gen + 1;
        let target = gen_file(next);
        // A torn earlier attempt may have left a fragment; appending
        // after it would hide the new record from replay.
        self.disk.remove(&target)?;
        Wal::append_named(&mut self.disk, &target, payload)?;
        self.disk.sync()?;
        // The new generation is durable: drop everything older than the
        // one it replaces.
        let retired = gen_file(self.gen.saturating_sub(1));
        if self.gen > 0 {
            self.disk.remove(&retired)?;
        }
        self.gen = next;
        self.latest = Some(payload.to_vec());
        Ok(payload.len() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_empty_has_no_snapshot() {
        let store = SnapshotStore::open(SharedDisk::new()).unwrap();
        assert_eq!(store.latest(), None);
    }

    #[test]
    fn save_and_recover_after_crash() {
        let disk = SharedDisk::new();
        let mut store = SnapshotStore::open(disk.clone()).unwrap();
        store.save(b"alpha").unwrap();
        store.save(b"beta").unwrap();
        assert_eq!(store.latest(), Some(&b"beta"[..]));
        disk.crash();
        let reopened = SnapshotStore::open(disk).unwrap();
        assert_eq!(reopened.latest(), Some(&b"beta"[..]));
    }

    #[test]
    fn torn_save_falls_back_to_previous_generation() {
        let disk = SharedDisk::new();
        let mut store = SnapshotStore::open(disk.clone()).unwrap();
        store.save(b"alpha").unwrap();
        disk.tear_next_write_after(5); // tears inside the 8-byte header
        assert!(store.save(b"beta").is_err());
        disk.crash();
        let reopened = SnapshotStore::open(disk.clone()).unwrap();
        assert_eq!(reopened.latest(), Some(&b"alpha"[..]));
        // The straggler torn generation was garbage-collected.
        let snap_files: Vec<String> = disk
            .list()
            .unwrap()
            .into_iter()
            .filter(|f| f.starts_with(SNAPSHOT_FILE))
            .collect();
        assert_eq!(snap_files.len(), 1, "{snap_files:?}");
    }

    #[test]
    fn disk_footprint_stays_bounded() {
        let disk = SharedDisk::new();
        let mut store = SnapshotStore::open(disk.clone()).unwrap();
        for i in 0..100u32 {
            store.save(&i.to_le_bytes()).unwrap();
        }
        let snap_files: Vec<String> = disk
            .list()
            .unwrap()
            .into_iter()
            .filter(|f| f.starts_with(SNAPSHOT_FILE))
            .collect();
        // Current + previous-generation fallback, never more.
        assert!(snap_files.len() <= 2, "{snap_files:?}");
    }

    #[test]
    fn save_after_torn_attempt_truncates_the_fragment() {
        let disk = SharedDisk::new();
        let mut store = SnapshotStore::open(disk.clone()).unwrap();
        store.save(b"alpha").unwrap();
        disk.tear_next_write_after(3);
        assert!(store.save(b"beta").is_err());
        // The retried save must not append behind the torn fragment.
        store.save(b"gamma").unwrap();
        disk.crash();
        let reopened = SnapshotStore::open(disk).unwrap();
        assert_eq!(reopened.latest(), Some(&b"gamma"[..]));
    }
}
