//! The threaded runtime over loopback TCP as a [`Sut`]: a
//! `RuntimeCluster` launched per repetition, loaded from the calling
//! thread through `RuntimeCluster::submit`, observed through replica
//! 0's commit observer.

use crate::sut::{CommitLog, Sut};
use marlin_core::ProtocolKind;
use marlin_runtime::{
    ClusterConfig, ClusterReport, CommitObserverFn, JournalMode, RuntimeCluster, TransportKind,
};
use marlin_types::{ReplicaId, View};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Where a workload keeps its safety journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Journal {
    None,
    Memory,
    /// Real files under a fresh directory below the benchmark's scratch
    /// directory.
    Files,
}

/// The cluster parameters a workload fixes.
#[derive(Clone, Copy, Debug)]
pub struct ClusterShape {
    pub kind: ProtocolKind,
    pub n: usize,
    pub f: usize,
    pub payload: usize,
    pub journal: Journal,
    pub mempool_capacity: usize,
    pub sync_snapshot_interval: u64,
    pub batch_size: usize,
    pub base_timeout: Duration,
}

pub struct Tcp {
    cluster: RuntimeCluster,
    log: Arc<CommitLog>,
    payload: usize,
    n: usize,
    next_id: u64,
}

impl Tcp {
    /// Launches the cluster. `journal_dir` is used (and must be fresh)
    /// when the shape journals to files.
    pub fn launch(
        shape: &ClusterShape,
        journal_dir: PathBuf,
        id_capacity: usize,
    ) -> std::io::Result<Self> {
        let mut cfg = ClusterConfig::new(shape.kind, shape.n, shape.f);
        cfg.transport = TransportKind::Tcp;
        cfg.batch_size = shape.batch_size;
        cfg.base_timeout = shape.base_timeout;
        cfg.mempool_capacity = shape.mempool_capacity;
        cfg.sync_snapshot_interval = shape.sync_snapshot_interval;
        cfg.journal = match shape.journal {
            Journal::None => JournalMode::None,
            Journal::Memory => JournalMode::Memory,
            Journal::Files => JournalMode::Files(journal_dir),
        };
        let log = Arc::new(CommitLog::new(id_capacity));
        let observer: CommitObserverFn = {
            let log = Arc::clone(&log);
            let generator = std::thread::current();
            Box::new(move |_replica, at_ns, blocks| {
                for b in blocks {
                    log.record_block(at_ns, b.payload().iter().map(|tx| tx.id));
                }
                generator.unpark();
            })
        };
        let cluster = RuntimeCluster::launch(cfg, Some(observer))?;
        Ok(Tcp {
            cluster,
            log,
            payload: shape.payload,
            n: shape.n,
            next_id: 0,
        })
    }

    pub fn cluster(&self) -> &RuntimeCluster {
        &self.cluster
    }

    pub fn cluster_mut(&mut self) -> &mut RuntimeCluster {
        &mut self.cluster
    }

    /// Checks prefix agreement, stops every replica and returns the
    /// shortest committed prefix with the cluster's report.
    pub fn finish(self) -> Result<(usize, ClusterReport), String> {
        let prefix = self.cluster.check_prefix_consistency()?;
        Ok((prefix, self.cluster.shutdown()))
    }
}

impl Sut for Tcp {
    fn now_ns(&self) -> u64 {
        self.cluster.clock().now_ns()
    }

    fn submit(&mut self, count: usize) -> u64 {
        // `RuntimeCluster::submit` numbers transactions sequentially
        // from 0; this mirror of its counter is how commits are matched
        // back to requests.
        let first = self.next_id;
        self.cluster.submit(count, self.payload);
        self.next_id += count as u64;
        first
    }

    fn wait_until(&mut self, until_ns: u64) {
        let now = self.now_ns();
        if until_ns > now {
            // Replica 0's commit observer unparks this thread.
            std::thread::park_timeout(Duration::from_nanos(until_ns - now));
        }
    }

    fn log(&self) -> &CommitLog {
        &self.log
    }

    fn max_view(&self) -> u64 {
        self.cluster.max_view().0
    }

    fn kill_leader(&mut self) -> Option<usize> {
        let leader = ReplicaId::leader_of(View(self.max_view()), self.n).index();
        (leader != 0).then(|| {
            self.cluster.kill(leader);
            leader
        })
    }

    fn transport_errors(&self) -> u64 {
        (0..self.n)
            .map(|i| {
                let s = self.cluster.status(i);
                s.send_drops() + s.decode_errors()
            })
            .sum()
    }
}
