//! The write-ahead log.

use crate::crc::crc32;
use crate::disk::Disk;
use std::io;

/// An append-only record log with per-record CRCs.
///
/// Record format: `len: u32 | crc: u32 | payload`. Replay stops at the
/// first truncated or corrupt record, so a torn tail (crash mid-append)
/// loses only unacknowledged records.
#[derive(Debug)]
pub struct Wal;

impl Wal {
    /// Appends one record to the log under `name` — a caller-chosen
    /// file, so several logs (e.g. a consensus safety journal and a
    /// snapshot generation) can share one disk.
    ///
    /// # Errors
    ///
    /// Propagates disk errors; on error the tail may be torn (recovery
    /// will discard it).
    pub fn append_named<D: Disk + ?Sized>(
        disk: &mut D,
        name: &str,
        payload: &[u8],
    ) -> io::Result<()> {
        let mut rec = Vec::with_capacity(8 + payload.len());
        frame_record(&mut rec, payload);
        disk.append(name, &rec)
    }

    /// Replays all intact records of the log under `name`, oldest
    /// first. A missing log yields an empty list; a corrupt/torn tail
    /// is silently discarded.
    ///
    /// # Errors
    ///
    /// Propagates disk read errors other than "not found".
    pub fn replay_named<D: Disk + ?Sized>(disk: &D, name: &str) -> io::Result<Vec<Vec<u8>>> {
        Ok(Self::replay_named_checked(disk, name)?.0)
    }

    /// Replays the log under `name`, additionally reporting whether the
    /// scan consumed the whole file. `false` means a torn or corrupt
    /// tail remains on disk *after* the intact prefix — anything
    /// appended to the raw file after that point would be invisible to
    /// replay, so callers that keep appending must first truncate or
    /// switch files.
    ///
    /// # Errors
    ///
    /// Propagates disk read errors other than "not found".
    pub fn replay_named_checked<D: Disk + ?Sized>(
        disk: &D,
        name: &str,
    ) -> io::Result<(Vec<Vec<u8>>, bool)> {
        let data = match disk.read_file(name) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), true)),
            Err(e) => return Err(e),
        };
        let (records, intact) = split_records(&data);
        let records = records.into_iter().map(<[u8]>::to_vec).collect();
        Ok((records, intact == data.len()))
    }
}

/// Appends one record to `out` in the log's framing:
/// `len: u32 LE | crc: u32 LE | payload`, where `crc` is the CRC-32 of
/// the payload. Pure, so a non-disk byte stream (a flight dump) can
/// share the framing.
pub fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Splits `data` written by [`frame_record`] into its record payloads,
/// oldest first, stopping at the first torn or corrupt frame. Also
/// returns the length of the intact prefix: `data.len()` when every
/// byte belonged to an intact record.
pub fn split_records(data: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= data.len() {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let start = pos + 8;
        let end = match start.checked_add(len) {
            Some(e) if e <= data.len() => e,
            _ => break, // torn tail
        };
        let payload = &data[start..end];
        if crc32(payload) != crc {
            break; // corrupt tail
        }
        records.push(payload);
        pos = end;
    }
    (records, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    const LOG: &str = "wal";

    #[test]
    fn append_replay_round_trip() {
        let mut d = MemDisk::new();
        Wal::append_named(&mut d, LOG, b"one").unwrap();
        Wal::append_named(&mut d, LOG, b"two").unwrap();
        Wal::append_named(&mut d, LOG, b"").unwrap();
        assert_eq!(
            Wal::replay_named(&d, LOG).unwrap(),
            vec![b"one".to_vec(), b"two".to_vec(), vec![]]
        );
    }

    #[test]
    fn replay_of_missing_log_is_empty() {
        assert!(Wal::replay_named(&MemDisk::new(), LOG).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_discarded() {
        let mut d = MemDisk::new();
        Wal::append_named(&mut d, LOG, b"intact").unwrap();
        d.tear_next_write_after(5); // header is 8 bytes: record torn
        let _ = Wal::append_named(&mut d, LOG, b"lost");
        assert_eq!(
            Wal::replay_named(&d, LOG).unwrap(),
            vec![b"intact".to_vec()]
        );
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let mut d = MemDisk::new();
        Wal::append_named(&mut d, LOG, b"first").unwrap();
        Wal::append_named(&mut d, LOG, b"second").unwrap();
        // Flip a payload byte of the second record.
        let mut raw = d.read_file(LOG).unwrap();
        let idx = raw.len() - 1;
        raw[idx] ^= 0xFF;
        d.remove(LOG).unwrap();
        d.append(LOG, &raw).unwrap();
        assert_eq!(Wal::replay_named(&d, LOG).unwrap(), vec![b"first".to_vec()]);
    }

    #[test]
    fn named_logs_are_independent() {
        let mut d = MemDisk::new();
        Wal::append_named(&mut d, LOG, b"kv").unwrap();
        Wal::append_named(&mut d, "safety", b"lock").unwrap();
        Wal::append_named(&mut d, "safety", b"vote").unwrap();
        assert_eq!(Wal::replay_named(&d, LOG).unwrap(), vec![b"kv".to_vec()]);
        assert_eq!(
            Wal::replay_named(&d, "safety").unwrap(),
            vec![b"lock".to_vec(), b"vote".to_vec()]
        );
    }
}
