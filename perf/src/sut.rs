//! The system under test as the load generator sees it, and the commit
//! record both back ends fill in.
//!
//! Two back ends implement [`Sut`]: the threaded runtime over loopback
//! TCP (`tcp.rs`) and the single-thread in-process twin (`inproc.rs`).
//! The generator in `drive.rs` is written once against this trait, so
//! both are driven by the same closed loop, the same open-loop schedule
//! and the same leader kill.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Commit instants at replica 0, by transaction id.
///
/// The TCP back end writes it from replica 0's consensus thread (the
/// commit observer) while the generator reads it, hence the atomics;
/// transaction ids are the sequential ones `submit` hands out, so a
/// flat array indexed by id replaces a map on the commit path.
pub struct CommitLog {
    commit_ns: Vec<AtomicU64>,
    committed_txs: AtomicU64,
    /// Ids committed a second time.
    duplicates: AtomicU64,
    /// Ids the generator never issued.
    unknown: AtomicU64,
    /// Commit instant and size of every block, in commit order.
    blocks: Mutex<Vec<(u64, u32)>>,
}

impl CommitLog {
    /// A log with room for ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        CommitLog {
            commit_ns: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            committed_txs: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            unknown: AtomicU64::new(0),
            blocks: Mutex::new(Vec::new()),
        }
    }

    /// Records one committed block: its transaction ids and the instant
    /// replica 0 committed it.
    pub fn record_block(&self, at_ns: u64, ids: impl Iterator<Item = u64>) {
        // 0 marks "not committed", so an instant of 0 is stored as 1.
        let at = at_ns.max(1);
        let mut count = 0u32;
        for id in ids {
            count += 1;
            match self.commit_ns.get(id as usize) {
                Some(slot) => {
                    if slot.swap(at, Ordering::AcqRel) != 0 {
                        self.duplicates.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => {
                    self.unknown.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.blocks
            .lock()
            .expect("block log lock")
            .push((at, count));
        self.committed_txs
            .fetch_add(u64::from(count), Ordering::Release);
    }

    /// Commit instant of `id`, if it committed.
    pub fn commit_ns(&self, id: u64) -> Option<u64> {
        match self.commit_ns.get(id as usize)?.load(Ordering::Acquire) {
            0 => None,
            at => Some(at),
        }
    }

    pub fn committed_txs(&self) -> u64 {
        self.committed_txs.load(Ordering::Acquire)
    }

    /// Ids committed more than once plus ids never issued: both break
    /// "every transaction commits exactly once".
    pub fn violations(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed) + self.unknown.load(Ordering::Relaxed)
    }

    /// Commit instants of all blocks so far.
    pub fn block_instants(&self) -> Vec<u64> {
        let blocks = self.blocks.lock().expect("block log lock");
        blocks.iter().map(|&(at, _)| at).collect()
    }

    /// Commit instant and size of every block from the `from`-th on.
    pub fn blocks_from(&self, from: usize) -> Vec<(u64, u32)> {
        let blocks = self.blocks.lock().expect("block log lock");
        blocks.get(from..).unwrap_or_default().to_vec()
    }

    pub fn committed_blocks(&self) -> usize {
        self.blocks.lock().expect("block log lock").len()
    }
}

/// What the load generator needs from a cluster.
pub trait Sut {
    /// The clock every due instant and commit instant is read from.
    fn now_ns(&self) -> u64;

    /// Submits `count` transactions to the current leader and returns
    /// the id of the first; ids are sequential across calls.
    fn submit(&mut self, count: usize) -> u64;

    /// Lets the cluster run until `until_ns` on [`Sut::now_ns`]; may
    /// return early (it does whenever replica 0 commits), so callers
    /// loop on their own condition.
    fn wait_until(&mut self, until_ns: u64);

    fn log(&self) -> &CommitLog;

    /// Highest view any live replica is in.
    fn max_view(&self) -> u64;

    /// Stops the leader of the current view for good and returns its
    /// index; `None`, and nothing is stopped, if that leader is replica
    /// 0, the measuring replica.
    fn kill_leader(&mut self) -> Option<usize>;

    /// Frames dropped on send plus frames that failed to decode, over
    /// all replicas.
    fn transport_errors(&self) -> u64;
}
