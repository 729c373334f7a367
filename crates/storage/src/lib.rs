//! Durable-storage primitives: what stands behind the safety journal,
//! the state snapshots and the threaded runtime's files, plus the I/O
//! price list the simulator charges from.
//!
//! * a [`Disk`] is a flat namespace of named append-only files with a
//!   `sync` durability point: [`MemDisk`] adds *fault injection* (an
//!   append torn at a byte boundary, a crash that cuts every file back
//!   to its length at the last sync; a sync records lengths, not bytes)
//!   so crash recovery can be property-tested, [`SharedDisk`] is the
//!   clonable handle a replica and its crash schedule both hold,
//!   [`FileDisk`] is the real filesystem;
//! * a [`Wal`] is an append-only record log with per-record CRCs whose
//!   replay discards a torn or corrupt tail — the framing under
//!   `marlin-core`'s write-before-vote safety journal and under the
//!   generational, torn-write-tolerant [`SnapshotStore`]; its framing
//!   is two pure functions, [`frame_record`] and [`split_records`], so
//!   `marlin-telemetry`'s flight dumps reuse it;
//! * an [`IoCostModel`] prices appends, segment writes and syncs in
//!   simulated nanoseconds.
//!
//! The paper's testbed "writes data into the database rather than into
//! memory and we run checkpointing in the backend" (Section VI). No
//! LevelDB stand-in lives here: nothing ever reads a committed block
//! back, so `marlin-simnet` models that database as the *write-cost
//! schedule* of one (WAL append per block, memtable flush, compaction,
//! checkpoint every 5000 blocks) priced by [`IoCostModel`], and stores
//! no bytes.
//!
//! # Example
//!
//! ```
//! use marlin_storage::{Disk, MemDisk, Wal};
//!
//! let mut disk = MemDisk::new();
//! Wal::append_named(&mut disk, "journal", b"voted view 7").unwrap();
//! disk.sync().unwrap();
//! Wal::append_named(&mut disk, "journal", b"never synced").unwrap();
//! let disk = disk.crash(); // power loss: back to the last sync
//! assert_eq!(Wal::replay_named(&disk, "journal").unwrap(), vec![b"voted view 7".to_vec()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod crc;
mod disk;
mod snapshot;
mod wal;

pub use cost::IoCostModel;
pub use crc::crc32;
pub use disk::{Disk, FileDisk, MemDisk, SharedDisk};
pub use snapshot::{SnapshotStore, SNAPSHOT_FILE};
pub use wal::{frame_record, split_records, Wal};
