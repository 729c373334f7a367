//! The persistence thread: a dedicated journal writer per replica.
//!
//! The consensus state machines call `SafetyJournal` synchronously and
//! rely on write-before-vote: a vote is only emitted after its journal
//! record is appended *and* synced. To keep that ordering while moving
//! file IO off no one's critical path but the voter's own, the runtime
//! gives each replica a writer thread owning the real disk, and hands
//! the journal a [`marlin_storage::SharedDisk`] wrapping a
//! [`ProxyDisk`]: every operation is shipped to the writer over a
//! channel and the caller blocks on the `io::Result` ack. The blocking
//! ack *is* the durability barrier — vote emission cannot outrun the
//! write — while other replica threads (ingress, timers) keep
//! running.

use crate::channel::LaneMeter;
use marlin_storage::{Disk, SharedDisk};
use std::io;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

enum DiskOp {
    WriteFile { name: String, data: Vec<u8> },
    Append { name: String, data: Vec<u8> },
    ReadFile { name: String },
    Exists { name: String },
    Remove { name: String },
    List,
    Sync,
}

enum DiskReply {
    Unit(io::Result<()>),
    Bytes(io::Result<Vec<u8>>),
    Bool(bool),
    Names(io::Result<Vec<String>>),
}

type Request = (DiskOp, SyncSender<DiskReply>);

/// Forwards every [`Disk`] operation to the writer thread and blocks on
/// its acknowledgment.
struct ProxyDisk {
    tx: Sender<Request>,
    /// The consensus → journal lane meter. Depth is the journal lag
    /// (ops shipped but not yet applied); the "stall" histogram here is
    /// the full ack round trip — on this lane every send blocks by
    /// design (write-before-vote), so the stall metrics *are* the
    /// durability-barrier cost, not an anomaly counter.
    meter: LaneMeter,
}

impl ProxyDisk {
    fn call(&self, op: DiskOp) -> DiskReply {
        let (reply_tx, reply_rx) = sync_channel(1);
        if self.tx.send((op, reply_tx)).is_err() {
            return DiskReply::Unit(Err(writer_gone()));
        }
        self.meter.note_enqueue();
        let blocked_at = Instant::now();
        let reply = reply_rx
            .recv()
            .unwrap_or(DiskReply::Unit(Err(writer_gone())));
        self.meter
            .note_stall(blocked_at.elapsed().as_nanos() as u64);
        reply
    }
}

fn writer_gone() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "journal writer thread gone")
}

fn unit(reply: DiskReply) -> io::Result<()> {
    match reply {
        DiskReply::Unit(r) => r,
        _ => Err(writer_gone()),
    }
}

impl Disk for ProxyDisk {
    fn write_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        unit(self.call(DiskOp::WriteFile {
            name: name.to_string(),
            data: data.to_vec(),
        }))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        unit(self.call(DiskOp::Append {
            name: name.to_string(),
            data: data.to_vec(),
        }))
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        match self.call(DiskOp::ReadFile {
            name: name.to_string(),
        }) {
            DiskReply::Bytes(r) => r,
            _ => Err(writer_gone()),
        }
    }

    fn exists(&self, name: &str) -> bool {
        matches!(
            self.call(DiskOp::Exists {
                name: name.to_string(),
            }),
            DiskReply::Bool(true)
        )
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        unit(self.call(DiskOp::Remove {
            name: name.to_string(),
        }))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        match self.call(DiskOp::List) {
            DiskReply::Names(r) => r,
            _ => Err(writer_gone()),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        unit(self.call(DiskOp::Sync))
    }
}

/// Handle to a running journal-writer thread.
///
/// The thread exits when every clone of the proxy disk is dropped;
/// [`JournalWriter::join`] reaps it. Dropping the handle without
/// joining leaves the thread to drain and exit on its own — safe, just
/// unobserved.
pub struct JournalWriter {
    handle: Option<JoinHandle<()>>,
}

impl JournalWriter {
    /// Spawns a writer thread owning `inner` and returns the shared
    /// proxy disk to build a `SafetyJournal` on. The proxy (and every
    /// clone of it) funnels all operations through the writer in
    /// arrival order; each call blocks until the writer acks it.
    pub fn spawn(inner: Box<dyn Disk + Send>, label: &str) -> (SharedDisk, JournalWriter) {
        JournalWriter::spawn_metered(inner, label, LaneMeter::detached())
    }

    /// Like [`JournalWriter::spawn`], with the consensus → journal lane
    /// metered: `meter`'s depth is the journal lag, its stall histogram
    /// the per-op durability-barrier wait.
    pub fn spawn_metered(
        inner: Box<dyn Disk + Send>,
        label: &str,
        meter: LaneMeter,
    ) -> (SharedDisk, JournalWriter) {
        let (tx, rx) = channel::<Request>();
        let writer_meter = meter.clone();
        let handle = std::thread::Builder::new()
            .name(format!("journal-{label}"))
            .spawn(move || writer_loop(inner, rx, writer_meter))
            .expect("spawn journal writer");
        (
            SharedDisk::from_disk(Box::new(ProxyDisk { tx, meter })),
            JournalWriter {
                handle: Some(handle),
            },
        )
    }

    /// Waits for the writer to drain and exit (all proxy handles must
    /// have been dropped, or this blocks).
    pub fn join(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn writer_loop(mut disk: Box<dyn Disk + Send>, rx: Receiver<Request>, meter: LaneMeter) {
    while let Ok((op, reply_tx)) = rx.recv() {
        let reply = match op {
            DiskOp::WriteFile { name, data } => DiskReply::Unit(disk.write_file(&name, &data)),
            DiskOp::Append { name, data } => DiskReply::Unit(disk.append(&name, &data)),
            DiskOp::ReadFile { name } => DiskReply::Bytes(disk.read_file(&name)),
            DiskOp::Exists { name } => DiskReply::Bool(disk.exists(&name)),
            DiskOp::Remove { name } => DiskReply::Unit(disk.remove(&name)),
            DiskOp::List => DiskReply::Names(disk.list()),
            DiskOp::Sync => DiskReply::Unit(disk.sync()),
        };
        meter.note_dequeue();
        // A vanished caller is fine (it was killed mid-call); the op
        // itself already applied.
        let _ = reply_tx.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_storage::MemDisk;

    #[test]
    fn proxy_round_trips_through_writer_thread() {
        let (mut disk, writer) = JournalWriter::spawn(Box::new(MemDisk::new()), "test");
        disk.append("wal", b"rec1").unwrap();
        disk.append("wal", b"rec2").unwrap();
        disk.sync().unwrap();
        assert_eq!(disk.read_file("wal").unwrap(), b"rec1rec2");
        assert!(disk.exists("wal"));
        assert!(!disk.exists("nope"));
        assert_eq!(disk.list().unwrap(), vec!["wal".to_string()]);
        disk.remove("wal").unwrap();
        assert!(!disk.exists("wal"));
        drop(disk);
        writer.join();
    }

    #[test]
    fn metered_writer_accounts_lag_and_ack_wait() {
        let reg = marlin_telemetry::Registry::new();
        let meter = LaneMeter::new(&reg, "journal");
        let (mut disk, writer) =
            JournalWriter::spawn_metered(Box::new(MemDisk::new()), "metered", meter.clone());
        disk.append("wal", b"rec").unwrap();
        disk.sync().unwrap();
        // Every op is acked before the proxy returns, so lag is back to
        // zero, and each op recorded one durability-barrier wait.
        assert_eq!(meter.depth(), 0);
        assert_eq!(meter.stalls(), 2);
        assert_eq!(
            reg.histogram_with("runtime_channel_stall_ns", &[("lane", "journal")])
                .snapshot()
                .count(),
            2
        );
        drop(disk);
        writer.join();
    }

    #[test]
    fn ack_orders_write_before_return() {
        // The proxy must not return before the writer applied the op:
        // read-your-writes from the calling thread proves the ack
        // ordering that write-before-vote relies on.
        let (mut disk, writer) = JournalWriter::spawn(Box::new(MemDisk::new()), "order");
        for i in 0..100u32 {
            disk.append("wal", &i.to_le_bytes()).unwrap();
            let data = disk.read_file("wal").unwrap();
            assert_eq!(data.len() as u32, (i + 1) * 4);
        }
        drop(disk);
        writer.join();
    }
}
