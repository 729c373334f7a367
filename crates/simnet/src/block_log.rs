//! The durable block log, as the write-cost schedule it exists for.
//!
//! The paper's testbed "writes data into the database rather than into
//! memory" and "run[s] checkpointing in the backend", every 5000 blocks
//! (Section VI) — its own explanation for absolute numbers below earlier
//! HotStuff evaluations. The simulation never reads a block back, so it
//! stores no bytes: all it needs from a LevelDB-style engine is the
//! simulated time each committed block's write costs, a pure function
//! of byte counts. A block is one record keyed `block/{height:020}`;
//! heights are unique per replica and never overwritten or deleted, so
//! nothing is shadowed or tombstoned and a segment's encoded size is
//! the sum of its entries'. Per committed block:
//!
//! * its record is appended to the **WAL** and joins the **memtable**;
//! * a memtable holding [`MEMTABLE_FLUSH_BYTES`] is **flushed**:
//!   written out as one sorted segment and synced;
//! * more than [`MAX_SEGMENTS`] segments are **compacted**: rewritten
//!   as one segment and synced;
//! * every [`CHECKPOINT_INTERVAL`] blocks a **checkpoint** flushes what
//!   the memtable holds and compacts down to one segment.

use marlin_storage::IoCostModel;
use marlin_types::{Block, Message, MsgBody, ReplicaId};

/// The paper's checkpoint (garbage-collection) interval: "we run
/// checkpointing in the backend", every 5000 blocks (Section VI).
const CHECKPOINT_INTERVAL: u64 = 5_000;
/// Memtable size that triggers a flush (LevelDB's default 4 MiB
/// `write_buffer_size` — "writes data into the database").
const MEMTABLE_FLUSH_BYTES: usize = 4 << 20;
/// Segments allowed to accumulate before all are compacted into one.
const MAX_SEGMENTS: usize = 8;
/// Bytes of a block-log key, `block/{height:020}`.
const KEY_LEN: usize = 26;
/// The database sits on an NVMe-class device.
const COST: IoCostModel = IoCostModel::ssd();

/// One replica's block log: the simulated nanoseconds its committed
/// blocks cost to persist.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockLogCost {
    /// Bytes the memtable holds (entries plus bookkeeping).
    mem: usize,
    /// Encoded size of the memtable's entries in a segment file.
    enc: usize,
    /// Encoded entry bytes of each on-disk segment.
    segments: Vec<usize>,
    blocks_since_checkpoint: u64,
}

impl BlockLogCost {
    /// Nanoseconds to persist the blocks of one `Action::Commit`, each
    /// stored as the codec's encoding of a `FetchResponse` carrying it.
    pub(crate) fn commit(&mut self, blocks: &[Block]) -> u64 {
        self.append(blocks.iter().map(stored_len))
    }

    /// One delivery of records with the given value lengths; the
    /// checkpoint counter is consulted once the whole delivery is
    /// written.
    fn append(&mut self, value_lens: impl Iterator<Item = usize>) -> u64 {
        let mut ns = 0;
        for value_len in value_lens {
            ns += self.put(value_len);
            self.blocks_since_checkpoint += 1;
        }
        if self.blocks_since_checkpoint >= CHECKPOINT_INTERVAL {
            self.blocks_since_checkpoint = 0;
            ns += self.flush() + self.compact();
        }
        ns
    }

    fn put(&mut self, value_len: usize) -> u64 {
        let kv = KEY_LEN + value_len;
        // WAL record: `tag: u8 | klen: u32 | key | value`.
        let ns = COST.wal_append(5 + kv);
        // Memtable footprint: 16 bytes of bookkeeping per entry.
        self.mem += kv + 16;
        // Segment entry: `klen: u32 | key | tomb: u8 | vlen: u32 | value`.
        self.enc += 9 + kv;
        if self.mem >= MEMTABLE_FLUSH_BYTES {
            ns + self.flush()
        } else {
            ns
        }
    }

    /// Memtable → one new segment; free when the memtable is empty.
    fn flush(&mut self) -> u64 {
        if self.enc == 0 {
            return 0;
        }
        let ns = Self::write_segment(self.enc);
        self.segments.push(self.enc);
        (self.mem, self.enc) = (0, 0);
        if self.segments.len() > MAX_SEGMENTS {
            ns + self.compact()
        } else {
            ns
        }
    }

    /// All segments → one; free with fewer than two.
    fn compact(&mut self) -> u64 {
        if self.segments.len() <= 1 {
            return 0;
        }
        let merged = self.segments.iter().sum();
        self.segments = vec![merged];
        Self::write_segment(merged)
    }

    /// A synced segment file: `count: u32 | entries | crc: u32`.
    fn write_segment(entry_bytes: usize) -> u64 {
        COST.segment_write(8 + entry_bytes) + COST.sync_ns
    }
}

/// Bytes `block` occupies in the log: the wire length of the
/// `FetchResponse` that would serve it (sender and view are fixed-width
/// header fields, so any value gives the same length).
fn stored_len(block: &Block) -> usize {
    let body = MsgBody::FetchResponse {
        block: block.clone(),
        virtual_parent: None,
    };
    Message::new(ReplicaId(0), block.view(), body).wire_len(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_types::{codec, View};
    use std::iter::{once, repeat_n};

    // `IoCostModel::ssd()` spelled out, so the expectations below are
    // the formula and not the implementation's own constants: a WAL
    // record costs 2 µs + 1 ns/B, a segment 1 ns/B, a sync 10 µs.
    const MIB: usize = 1 << 20;

    fn wal(v: usize) -> u64 {
        2_000 + (5 + 26 + v) as u64
    }

    /// Writing a segment holding `entry_bytes` of entries.
    fn segment(entry_bytes: usize) -> u64 {
        (8 + entry_bytes) as u64 + 10_000
    }

    #[test]
    fn a_put_below_the_threshold_is_one_wal_append() {
        let mut log = BlockLogCost::default();
        assert_eq!(log.put(1_000), wal(1_000));
        assert_eq!((log.mem, log.enc), (26 + 1_000 + 16, 9 + 26 + 1_000));
        assert!(log.segments.is_empty());
    }

    #[test]
    fn the_put_that_crosses_four_mib_flushes_the_memtable() {
        // 4 × (26 + 1 MiB + 16) first reaches 4 MiB on the fourth put.
        let mut log = BlockLogCost::default();
        for _ in 0..3 {
            assert_eq!(log.put(MIB), wal(MIB));
        }
        let enc = 4 * (9 + 26 + MIB);
        assert_eq!(log.put(MIB), wal(MIB) + segment(enc));
        assert_eq!((log.mem, log.enc), (0, 0));
        assert_eq!(log.segments, [enc]);
    }

    #[test]
    fn an_oversized_block_flushes_at_once_and_the_ninth_flush_compacts() {
        let mut log = BlockLogCost::default();
        let v = 4 * MIB; // alone fills the memtable: every put flushes
        let enc = 9 + 26 + v;
        for _ in 0..8 {
            assert_eq!(log.put(v), wal(v) + segment(enc));
        }
        assert_eq!(log.segments, [enc; 8]);
        assert_eq!(log.put(v), wal(v) + segment(enc) + segment(9 * enc));
        assert_eq!(log.segments, [9 * enc]);
    }

    #[test]
    fn block_5000_checkpoints() {
        let mut log = BlockLogCost::default();
        let enc = 9 + 26 + 100;
        // 4999 small blocks stay in the memtable (≈ 0.7 MiB). Block
        // 5000 flushes that tail; one segment needs no compaction.
        assert_eq!(log.append(repeat_n(100, 4_999)), 4_999 * wal(100));
        assert_eq!(log.append(once(100)), wal(100) + segment(5_000 * enc));
        assert_eq!(log.segments, [5_000 * enc]);
        // Block 10000: flush, then compact the two segments.
        assert_eq!(log.append(repeat_n(100, 4_999)), 4_999 * wal(100));
        assert_eq!(
            log.append(once(100)),
            wal(100) + segment(5_000 * enc) + segment(10_000 * enc)
        );
        assert_eq!(log.segments, [10_000 * enc]);
    }

    #[test]
    fn a_checkpoint_with_nothing_to_do_is_free() {
        // Block 5000 itself fills the memtable, so its put flushes and
        // the checkpoint finds nothing buffered and a single segment.
        let mut log = BlockLogCost::default();
        log.append(repeat_n(0, 4_999));
        let enc = 4_999 * (9 + 26) + (9 + 26 + 4 * MIB);
        assert_eq!(log.append(once(4 * MIB)), wal(4 * MIB) + segment(enc));
        assert_eq!(log.segments, [enc]);
        assert_eq!(log.blocks_since_checkpoint, 0);
    }

    #[test]
    fn the_checkpoint_counter_is_read_once_per_delivery() {
        // A four-block delivery that crosses block 5000 checkpoints
        // after its last block, and the count restarts from zero.
        let mut log = BlockLogCost::default();
        log.append(repeat_n(0, 4_998));
        let enc = 9 + 26;
        assert_eq!(
            log.append(repeat_n(0, 4)),
            4 * wal(0) + segment(5_002 * enc)
        );
        assert_eq!(log.append(repeat_n(0, 4_999)), 4_999 * wal(0));
        assert_eq!(log.segments, [5_002 * enc]);
        log.append(once(0));
        assert_eq!(log.segments, [10_002 * enc]);
    }

    #[test]
    fn a_block_is_stored_as_its_encoded_fetch_response() {
        let block = Block::genesis();
        let body = MsgBody::FetchResponse {
            block: block.clone(),
            virtual_parent: None,
        };
        let stored = codec::encode_message(&Message::new(ReplicaId(3), View(9), body), false);
        assert_eq!(BlockLogCost::default().commit(&[block]), wal(stored.len()));
    }
}
