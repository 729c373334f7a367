//! A whole-cluster driver over real threads: launch n replicas on a
//! mesh, feed load, watch commits, kill and recover nodes, and check
//! that every replica commits the same chain.
//!
//! This is the wall-clock twin of `marlin_simnet::SimNet`: same state
//! machines, same telemetry vocabulary, but actual concurrency — so it
//! measures, where simnet models.

use crate::node::{
    spawn_node, Bootstrap, Clock, NodeConfig, NodeHandle, NodeObservability, NodeStatus,
    DEFAULT_QUEUE_DEPTH,
};
use crate::transport::{ChannelMesh, TcpMesh, Transport};
use bytes::Bytes;
use marlin_core::{Config, ProtocolKind};
use marlin_storage::SharedDisk;
use marlin_telemetry::{
    install_panic_dump, register_panic_dump, FlightRecorder, Invariants, Record, Registry,
    SharedSink, Telemetry, TelemetrySink, Trace, ViewChanges, Violation,
};
use marlin_types::{Block, ReplicaId, Transaction, View};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which mesh carries frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process bounded channels.
    Channel,
    /// Localhost TCP with streaming frame reassembly.
    Tcp,
}

/// Where safety journals live.
#[derive(Clone, Debug)]
pub enum JournalMode {
    /// No journaling (throughput ceilings without the write-before-vote
    /// cost).
    None,
    /// Shared in-memory disks (fast, survives kill/recover within the
    /// process).
    Memory,
    /// Real files under `<dir>/node-<i>/`. Differs from `Memory` only in
    /// which disk sits inside the replica's `SharedDisk`: either way the
    /// stepping thread writes the journal, inside `Protocol::step`.
    Files(PathBuf),
}

/// Cluster-wide launch parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Protocol to run on every replica.
    pub kind: ProtocolKind,
    /// Replica count.
    pub n: usize,
    /// Fault tolerance.
    pub f: usize,
    /// Mesh implementation.
    pub transport: TransportKind,
    /// Journal placement.
    pub journal: JournalMode,
    /// Max transactions per block.
    pub batch_size: usize,
    /// Base view timeout (real time).
    pub base_timeout: Duration,
    /// Snapshot anchor cadence in blocks; `0` disables block sync,
    /// snapshots, and committed-prefix pruning (every kind).
    pub sync_snapshot_interval: u64,
    /// Committed-height gap that triggers a ranged sync run.
    pub sync_lag_threshold: u64,
    /// Bound of each node's mailbox (events delivered, not yet stepped).
    pub event_queue_depth: usize,
    /// Per-replica mempool capacity; `0` = legacy unbounded queue.
    pub mempool_capacity: usize,
    /// Decoupled digest dissemination: batches pushed ahead of
    /// proposals, proposals carry digests (every kind).
    pub dissemination: bool,
    /// Live-observability plane (per-node registries, scrape endpoints,
    /// flight recorders); `None` runs bare.
    pub observability: Option<ObservabilityConfig>,
}

/// Cluster-wide observability settings (see [`NodeObservability`] for
/// what each node does with them).
#[derive(Clone, Debug)]
pub struct ObservabilityConfig {
    /// Serve a loopback HTTP scrape endpoint per node.
    pub scrape: bool,
    /// Directory flight rings are dumped to on node stop, invariant
    /// violation, and panic. `None` keeps rings in memory only
    /// (`/debug/flight` still serves them).
    pub flight_dir: Option<PathBuf>,
}

impl Default for ObservabilityConfig {
    fn default() -> Self {
        ObservabilityConfig {
            scrape: true,
            flight_dir: None,
        }
    }
}

impl ClusterConfig {
    /// Defaults: channel transport, in-memory journals, batch 64, 1 s
    /// base timeout (loopback rounds are microseconds; a healthy run
    /// should never time out).
    pub fn new(kind: ProtocolKind, n: usize, f: usize) -> Self {
        ClusterConfig {
            kind,
            n,
            f,
            transport: TransportKind::Channel,
            journal: JournalMode::Memory,
            batch_size: 64,
            base_timeout: Duration::from_secs(1),
            sync_snapshot_interval: 0,
            sync_lag_threshold: 64,
            event_queue_depth: DEFAULT_QUEUE_DEPTH,
            mempool_capacity: 0,
            dissemination: false,
            observability: None,
        }
    }
}

/// A per-commit callback (reference-replica statistics, tests).
pub type CommitObserverFn = Box<dyn FnMut(ReplicaId, u64, &[Block]) + Send>;

/// The commit observer, if any, as a telemetry sink.
struct OnCommit(Option<CommitObserverFn>);

impl TelemetrySink for OnCommit {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        if let (Some(observer), Telemetry::Committed(blocks)) = (&mut self.0, event) {
            observer(replica, at_ns, blocks);
        }
    }
}

enum MeshControl {
    Channel(ChannelMesh),
    Tcp(TcpMesh),
}

/// A running cluster.
pub struct RuntimeCluster {
    cfg: ClusterConfig,
    base: Config,
    clock: Clock,
    /// Every node's records, the safety oracle judging them and the
    /// view-change meter, under one lock taken once per step.
    trace: SharedSink<(Trace, (Invariants, ViewChanges))>,
    mesh: MeshControl,
    nodes: Vec<Option<NodeHandle>>,
    statuses: Vec<Arc<NodeStatus>>,
    disks: Vec<Option<SharedDisk>>,
    registries: Vec<Registry>,
    flights: Vec<FlightRecorder>,
    next_tx_id: u64,
}

impl RuntimeCluster {
    /// Launches `cfg.n` replicas; `observer` (if any) sees commits at
    /// replica 0, the measurement reference.
    ///
    /// # Errors
    ///
    /// Propagates socket/filesystem errors from mesh and journal setup.
    pub fn launch(cfg: ClusterConfig, observer: Option<CommitObserverFn>) -> io::Result<Self> {
        let clock = Clock::start();
        let trace = SharedSink::new((Trace::new(), (Invariants::new(&[]), ViewChanges::new())));
        let base = {
            let mut c = Config::for_test(cfg.n, cfg.f);
            c.batch_size = cfg.batch_size;
            c.base_timeout_ns = cfg.base_timeout.as_nanos() as u64;
            c.sync_snapshot_interval = cfg.sync_snapshot_interval;
            c.sync_lag_threshold = cfg.sync_lag_threshold;
            c.mempool_capacity = cfg.mempool_capacity;
            c.dissemination = cfg.dissemination;
            c
        };

        let observed = cfg.observability.as_ref().map_or(0, |_| cfg.n);
        let registries: Vec<Registry> = (0..observed).map(|_| Registry::new()).collect();
        let flights: Vec<FlightRecorder> = (0..observed)
            .map(|i| {
                let clock = Arc::new(move || clock.now_ns());
                FlightRecorder::new(format!("node-{i}"), ReplicaId(i as u32), clock)
            })
            .collect();
        if let Some(dir) = cfg
            .observability
            .as_ref()
            .and_then(|o| o.flight_dir.clone())
        {
            install_panic_dump(dir);
            flights.iter().for_each(register_panic_dump);
        }

        let mut disks: Vec<Option<SharedDisk>> = Vec::with_capacity(cfg.n);
        for i in 0..cfg.n {
            match &cfg.journal {
                JournalMode::None => disks.push(None),
                JournalMode::Memory => disks.push(Some(SharedDisk::new())),
                JournalMode::Files(dir) => {
                    disks.push(Some(SharedDisk::open_dir(dir.join(format!("node-{i}")))?));
                }
            }
        }

        let (mesh, transports): (MeshControl, Vec<Arc<dyn Transport>>) = match cfg.transport {
            TransportKind::Channel => {
                let (mesh, ts) = ChannelMesh::new(cfg.n);
                (
                    MeshControl::Channel(mesh),
                    ts.into_iter().map(|t| Arc::new(t) as _).collect(),
                )
            }
            TransportKind::Tcp => {
                let (mesh, ts) = TcpMesh::new(cfg.n)?;
                (
                    MeshControl::Tcp(mesh),
                    ts.into_iter().map(|t| Arc::new(t) as _).collect(),
                )
            }
        };

        let mut cluster = RuntimeCluster {
            base,
            clock,
            trace,
            mesh,
            nodes: Vec::with_capacity(cfg.n),
            statuses: Vec::with_capacity(cfg.n),
            disks,
            registries,
            flights,
            next_tx_id: 0,
            cfg,
        };
        let mut observer = observer;
        for (i, transport) in transports.into_iter().enumerate() {
            let handle = cluster.spawn_one(
                ReplicaId(i as u32),
                transport,
                Bootstrap::Fresh,
                if i == 0 { observer.take() } else { None },
            );
            cluster.statuses.push(handle.status());
            cluster.nodes.push(Some(handle));
        }
        Ok(cluster)
    }

    fn spawn_one(
        &self,
        id: ReplicaId,
        transport: Arc<dyn Transport>,
        bootstrap: Bootstrap,
        observer: Option<CommitObserverFn>,
    ) -> NodeHandle {
        let mut node_cfg = NodeConfig::new(self.base.with_id(id), self.cfg.kind);
        node_cfg.bootstrap = bootstrap;
        node_cfg.journal_disk = self.disks[id.index()].clone();
        node_cfg.event_queue_depth = self.cfg.event_queue_depth;
        if let Some(o) = &self.cfg.observability {
            // Registries and flight rings persist per slot, so a
            // recovered replica keeps its pre-kill metrics and autopsy
            // history.
            node_cfg.observability = Some(NodeObservability {
                registry: self.registries[id.index()].clone(),
                flight: self.flights[id.index()].clone(),
                scrape: o.scrape,
                flight_dir: o.flight_dir.clone(),
            });
        }
        let sink = (self.trace.clone(), OnCommit(observer));
        spawn_node(node_cfg, transport, self.clock, Box::new(sink))
    }

    /// Replica `i`'s metrics registry, when observability is on.
    pub fn registry(&self, i: usize) -> Option<&Registry> {
        self.registries.get(i)
    }

    /// Replica `i`'s scrape endpoint, when observability started one
    /// and the replica is alive.
    pub fn scrape_addr(&self, i: usize) -> Option<SocketAddr> {
        self.nodes[i].as_ref()?.scrape_addr()
    }

    /// The shared run clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Live counters of replica `i` (valid even after kill/stop).
    pub fn status(&self, i: usize) -> &NodeStatus {
        &self.statuses[i]
    }

    /// Submits `count` locally-originated transactions of `payload_len`
    /// bytes to the current leader's mempool (falling back to the first
    /// live replica if the leader is down).
    pub fn submit(&mut self, count: usize, payload_len: usize) {
        let view = self.max_view();
        let leader = self.base.leader_of(view);
        let target = if self.nodes[leader.index()].is_some() {
            leader.index()
        } else {
            match self.nodes.iter().position(Option::is_some) {
                Some(i) => i,
                None => return,
            }
        };
        let now = self.clock.now_ns();
        // One zero payload per call; each transaction holds a reference.
        let payload = Bytes::from(vec![0u8; payload_len]);
        let txs: Vec<Transaction> = (0..count)
            .map(|_| {
                let id = self.next_tx_id;
                self.next_tx_id += 1;
                Transaction::new(id, Transaction::LOCAL_CLIENT, payload.clone(), now)
            })
            .collect();
        if let Some(node) = &self.nodes[target] {
            node.submit(txs);
        }
    }

    /// Highest view any live replica has reached.
    pub fn max_view(&self) -> View {
        View(
            self.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.is_some())
                .map(|(i, _)| self.statuses[i].view().0)
                .max()
                .unwrap_or(0),
        )
    }

    /// Polls until every live replica has committed at least
    /// `min_blocks` blocks, or `timeout` elapses. Returns whether the
    /// target was reached.
    pub fn wait_for_blocks(&self, min_blocks: u64, timeout: Duration) -> bool {
        self.wait(timeout, |c| {
            c.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.is_some())
                .all(|(i, _)| c.statuses[i].committed_blocks() >= min_blocks)
        })
    }

    /// Polls `pred` every few milliseconds until it holds or `timeout`
    /// elapses.
    pub fn wait(&self, timeout: Duration, pred: impl Fn(&Self) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if pred(self) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(3));
        }
        pred(self)
    }

    /// Abruptly stops replica `i` (threads joined, transport torn
    /// down). Its journal disk survives for recovery.
    pub fn kill(&mut self, i: usize) {
        if let Some(node) = self.nodes[i].take() {
            node.stop();
        }
    }

    /// Restarts replica `i` from its on-disk journal (`FromDisk`): a
    /// fresh endpoint rejoins the mesh and the core replays its journal
    /// before announcing recovery.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from rebinding the replica's address.
    pub fn recover_from_disk(&mut self, i: usize) -> io::Result<()> {
        assert!(self.nodes[i].is_none(), "kill replica {i} before recovery");
        let id = ReplicaId(i as u32);
        let transport: Arc<dyn Transport> = match &self.mesh {
            MeshControl::Channel(mesh) => Arc::new(mesh.endpoint(id)),
            MeshControl::Tcp(mesh) => {
                // The dead endpoint's acceptor releases its listener
                // asynchronously; retry the rebind briefly.
                let deadline = Instant::now() + Duration::from_secs(2);
                loop {
                    match mesh.rejoin(id) {
                        Ok(t) => break Arc::new(t) as _,
                        Err(e) if Instant::now() >= deadline => return Err(e),
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            }
        };
        let handle = self.spawn_one(id, transport, Bootstrap::Recovered, None);
        self.statuses[i] = handle.status();
        self.nodes[i] = Some(handle);
        Ok(())
    }

    /// Checks cross-replica safety with the simulator's oracle, which
    /// judged every record: agreement per height (a recovered replica's
    /// pre-kill commits included), commit order within an incarnation,
    /// locks and votes. Returns the fewest blocks any replica's current
    /// incarnation has committed.
    ///
    /// # Errors
    ///
    /// The first safety violation, rendered; it is also stamped as a
    /// `FATAL` event into every flight ring (dumped when a dump
    /// directory is configured), the autopsy the recorder exists for.
    pub fn check_prefix_consistency(&self) -> Result<usize, String> {
        let violations = self.trace.with(|(_, (oracle, _))| oracle.violations());
        if let Some(v) = violations.into_iter().find(Violation::is_safety) {
            let why = format!("{v:?}");
            let dump_dir = self
                .cfg
                .observability
                .as_ref()
                .and_then(|o| o.flight_dir.as_ref());
            for flight in &self.flights {
                flight.record_now(Record::Fatal(format!("invariant violated: {why}")));
                if let Some(dir) = dump_dir {
                    let _ = flight.dump_to_dir(dir);
                }
            }
            return Err(why);
        }
        let blocks = self.statuses.iter().map(|s| s.committed_blocks() as usize);
        Ok(blocks.min().unwrap_or(0))
    }

    /// Stops every replica and returns the final report.
    pub fn shutdown(mut self) -> ClusterReport {
        for node in self.nodes.iter_mut() {
            if let Some(node) = node.take() {
                node.stop();
            }
        }
        let (trace, (_, view_changes)) = self.trace.with(std::mem::take);
        ClusterReport {
            trace,
            view_changes,
        }
    }
}

/// What a finished cluster run leaves behind.
pub struct ClusterReport {
    /// Every note and nonzero lane charge, wall-clock stamped.
    pub trace: Trace,
    /// The run's view changes: one window each, with its traffic.
    pub view_changes: ViewChanges,
}
