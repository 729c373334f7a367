//! Journal observability: a stopwatch around the voter's own disk calls.
//!
//! The consensus state machines call `SafetyJournal` synchronously and
//! rely on write-before-vote: a vote is only emitted after its journal
//! record is appended *and* synced. The thread stepping the replica calls
//! the disk itself, inside `Protocol::step`: program order on that thread
//! is the write-before-vote barrier, and a thread here would be a relay
//! the voter blocks on (DESIGN.md §13.1).
//!
//! This module is the measurement: `MeteredDisk` feeds the `journal`
//! [`LaneMeter`] behind the lane's exported series, `/health`'s journal
//! lag and the step-time attribution.

use crate::channel::LaneMeter;
use marlin_storage::{Disk, SharedDisk};
use std::io;
use std::time::Instant;

/// A [`Disk`] that times every call to `inner` into `meter`: one
/// enqueue when the call starts, one dequeue and one stall sample (the
/// call's duration) when it returns. On this lane every operation
/// blocks the voter by design (write-before-vote), so the stall metrics
/// *are* the durability-barrier cost, not an anomaly counter. Results
/// and errors pass through unchanged.
pub(crate) struct MeteredDisk<D> {
    pub(crate) inner: D,
    pub(crate) meter: LaneMeter,
}

fn timed<R>(meter: &LaneMeter, call: impl FnOnce() -> R) -> R {
    meter.note_enqueue();
    let started = Instant::now();
    let result = call();
    meter.note_stall(started.elapsed().as_nanos() as u64);
    meter.note_dequeue();
    result
}

impl<D: Disk> Disk for MeteredDisk<D> {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        timed(&self.meter, || self.inner.append(name, data))
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        timed(&self.meter, || self.inner.read_file(name))
    }

    fn exists(&self, name: &str) -> bool {
        timed(&self.meter, || self.inner.exists(name))
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        timed(&self.meter, || self.inner.remove(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        timed(&self.meter, || self.inner.list())
    }

    fn sync(&mut self) -> io::Result<()> {
        timed(&self.meter, || self.inner.sync())
    }
}

/// The two signatures `perf/src/layers.rs` (frozen outside `benchmark`
/// PRs) names, kept so it compiles. There is no thread: `spawn` is
/// [`SharedDisk::from_disk`], so `runtime.journal_writer.ack_us` reads
/// what a journal record costs the voter. ROADMAP.md item 5 tracks the
/// removal, for the next `benchmark` PR.
pub struct JournalWriter;

impl JournalWriter {
    /// `inner` behind a [`SharedDisk`]; `_label` is ignored.
    pub fn spawn(inner: Box<dyn Disk + Send>, _label: &str) -> (SharedDisk, JournalWriter) {
        (SharedDisk::from_disk(inner), JournalWriter)
    }

    /// Nothing to wait for.
    pub fn join(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_telemetry::Registry;

    /// Results and errors pass through unchanged — a torn write is still
    /// `Err` — and every call, failed or not, reading or writing, is one
    /// enqueue, one dequeue and one stall sample, with no depth left
    /// standing between calls. Wrapped the way `spawn_node` wraps it, a
    /// tear armed on the wrapper's handle is lost and one armed on the
    /// unwrapped handle reaches the call made through the wrapper.
    #[test]
    fn metered_disk_forwards_every_call_and_times_each_once() {
        let reg = Registry::new();
        let meter = LaneMeter::new(&reg, "journal");
        let slot = SharedDisk::new();
        let mut disk = SharedDisk::from_disk(Box::new(MeteredDisk {
            inner: slot.clone(),
            meter: meter.clone(),
        }));
        disk.tear_next_write_after(0);
        slot.tear_next_write_after(2);
        let count = |name: &str| reg.counter_with(name, &[("lane", "journal")]).get();
        let stall_ns = reg.histogram_with("runtime_channel_stall_ns", &[("lane", "journal")]);
        let check = |calls: u64| {
            assert_eq!(meter.depth(), 0, "no call in progress");
            assert_eq!(count("runtime_channel_enqueued_total"), calls);
            assert_eq!(count("runtime_channel_dequeued_total"), calls);
            assert_eq!(count("runtime_channel_stalls_total"), calls);
            assert_eq!(stall_ns.snapshot().count(), calls);
        };
        check(0);
        let torn = disk.append("wal", b"rec1").expect_err("torn write is Err");
        assert_eq!(torn.kind(), io::ErrorKind::Interrupted);
        check(1);
        disk.append("wal", b"c2").unwrap();
        disk.sync().unwrap();
        check(3);
        assert_eq!(disk.read_file("wal").unwrap(), b"rec2");
        assert!(disk.read_file("nope").is_err());
        assert!(disk.exists("wal") && !disk.exists("nope"));
        check(7);
        disk.append("meta", b"m").unwrap();
        disk.remove("wal").unwrap();
        assert_eq!(disk.list().unwrap(), vec!["meta".to_string()]);
        check(10);
    }
}
