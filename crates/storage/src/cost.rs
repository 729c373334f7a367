//! I/O cost model for the discrete-event simulation.

/// Simulated nanosecond costs for storage operations, approximating a
/// datacenter SSD with an OS page cache in front of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoCostModel {
    /// Per-byte cost of appending to the WAL.
    pub wal_write_ns_per_byte: u64,
    /// Fixed cost of a WAL record (syscall + latch).
    pub wal_write_base_ns: u64,
    /// Per-byte cost of writing a segment during flush/compaction.
    pub segment_write_ns_per_byte: u64,
    /// Fixed cost of a durability sync.
    pub sync_ns: u64,
}

impl IoCostModel {
    /// An NVMe-class device: ~2 GB/s sequential writes, ~10 µs sync.
    pub const fn ssd() -> Self {
        IoCostModel {
            wal_write_ns_per_byte: 1,
            wal_write_base_ns: 2_000,
            segment_write_ns_per_byte: 1,
            sync_ns: 10_000,
        }
    }

    /// Cost of a WAL append of `len` payload bytes.
    pub fn wal_append(&self, len: usize) -> u64 {
        self.wal_write_base_ns + self.wal_write_ns_per_byte * len as u64
    }

    /// Cost of writing `len` segment bytes.
    pub fn segment_write(&self, len: usize) -> u64 {
        self.segment_write_ns_per_byte * len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_scales_with_size() {
        let m = IoCostModel::ssd();
        assert!(m.wal_append(1000) > m.wal_append(10));
        assert_eq!(m.segment_write(4096), 4096);
        assert_eq!(m.wal_append(0), m.wal_write_base_ns);
    }
}
