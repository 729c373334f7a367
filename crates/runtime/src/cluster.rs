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
    install_panic_dump, register_panic_dump, FlightKind, FlightRecorder, Registry, SharedSink,
    Telemetry, TelemetrySink, Trace, DEFAULT_FLIGHT_CAPACITY,
};
use marlin_types::{Block, BlockId, ReplicaId, Transaction, View};
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
    /// No journaling (protocols without journal support, throughput
    /// ceilings).
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
    /// snapshots, and committed-prefix pruning (Marlin only).
    pub sync_snapshot_interval: u64,
    /// Committed-height gap that triggers a ranged sync run.
    pub sync_lag_threshold: u64,
    /// Bound of each node's mailbox (events delivered, not yet stepped).
    pub event_queue_depth: usize,
    /// Per-replica mempool capacity; `0` = legacy unbounded queue.
    pub mempool_capacity: usize,
    /// Fee threshold of the mempool priority lane; `0` = off.
    pub priority_fee_threshold: u8,
    /// Decoupled digest dissemination: batches pushed ahead of
    /// proposals, proposals carry digests (Marlin only).
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
    /// Flight-ring capacity per node (`0` disables flight recording).
    pub flight_capacity: usize,
    /// Directory flight rings are dumped to on node stop, invariant
    /// violation, and panic. `None` keeps rings in memory only
    /// (`/debug/flight` still serves them).
    pub flight_dir: Option<PathBuf>,
}

impl Default for ObservabilityConfig {
    fn default() -> Self {
        ObservabilityConfig {
            scrape: true,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
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
            priority_fee_threshold: 0,
            dissemination: false,
            observability: None,
        }
    }
}

/// A per-commit callback (reference-replica statistics, tests).
pub type CommitObserverFn = Box<dyn FnMut(ReplicaId, u64, &[Block]) + Send>;

/// A [`CommitObserverFn`] as a telemetry sink: it sees the commits.
struct OnCommit(CommitObserverFn);

impl TelemetrySink for OnCommit {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        if let Telemetry::Committed(blocks) = event {
            (self.0)(replica, at_ns, blocks);
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
    trace: SharedSink<Trace>,
    mesh: MeshControl,
    nodes: Vec<Option<NodeHandle>>,
    statuses: Vec<Arc<NodeStatus>>,
    disks: Vec<Option<SharedDisk>>,
    registries: Vec<Registry>,
    flights: Vec<Option<FlightRecorder>>,
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
        let trace = SharedSink::new(Trace::new());
        let base = {
            let mut c = Config::for_test(cfg.n, cfg.f);
            c.batch_size = cfg.batch_size;
            c.base_timeout_ns = cfg.base_timeout.as_nanos() as u64;
            c.sync_snapshot_interval = cfg.sync_snapshot_interval;
            c.sync_lag_threshold = cfg.sync_lag_threshold;
            c.mempool_capacity = cfg.mempool_capacity;
            c.priority_fee_threshold = cfg.priority_fee_threshold;
            c.dissemination = cfg.dissemination;
            c
        };

        let registries: Vec<Registry> = match &cfg.observability {
            Some(_) => (0..cfg.n).map(|_| Registry::new()).collect(),
            None => Vec::new(),
        };
        let flights: Vec<Option<FlightRecorder>> = (0..cfg.n)
            .map(|i| {
                let o = cfg.observability.as_ref()?;
                if o.flight_capacity == 0 {
                    return None;
                }
                Some(FlightRecorder::new(
                    format!("node-{i}"),
                    o.flight_capacity,
                    Arc::new(move || clock.now_ns()),
                ))
            })
            .collect();
        if let Some(dir) = cfg
            .observability
            .as_ref()
            .and_then(|o| o.flight_dir.clone())
        {
            install_panic_dump(dir);
            for flight in flights.iter().flatten() {
                register_panic_dump(flight);
            }
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
        let sink = (self.trace.clone(), observer.map(OnCommit));
        spawn_node(node_cfg, transport, self.clock, Some(Box::new(sink)))
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

    /// Replica `i`'s flight recorder, when observability attached one.
    pub fn flight(&self, i: usize) -> Option<&FlightRecorder> {
        self.flights[i].as_ref()
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

    /// Checks cross-replica safety: within each commit log heights must
    /// be strictly increasing (no double commits), and any height
    /// committed by two replicas must carry the same block id. For
    /// replicas started fresh this is exactly the identical-committed-
    /// prefix property; for a `FromDisk`-recovered replica (whose new
    /// log begins mid-chain) it checks agreement over the overlap.
    /// Returns the shortest log length on success.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first divergence or
    /// ordering violation found. A violation is also stamped as a
    /// `FATAL` event into every flight ring (and the rings are dumped,
    /// when a dump directory is configured): a broken safety invariant
    /// is precisely the autopsy the recorder exists for.
    pub fn check_prefix_consistency(&self) -> Result<usize, String> {
        let result = self.prefix_consistency_inner();
        if let Err(why) = &result {
            let dump_dir = self
                .cfg
                .observability
                .as_ref()
                .and_then(|o| o.flight_dir.as_ref());
            for (i, flight) in self.flights.iter().enumerate() {
                let Some(flight) = flight else { continue };
                flight.record_now(
                    ReplicaId(i as u32),
                    FlightKind::Fatal,
                    format!("invariant violated: {why}"),
                );
                if let Some(dir) = dump_dir {
                    let _ = flight.dump_to_dir(dir);
                }
            }
        }
        result
    }

    fn prefix_consistency_inner(&self) -> Result<usize, String> {
        let logs: Vec<Vec<(u64, BlockId)>> = self.statuses.iter().map(|s| s.commit_log()).collect();
        let mut by_height: Vec<std::collections::HashMap<u64, BlockId>> = Vec::new();
        for (i, log) in logs.iter().enumerate() {
            let mut map = std::collections::HashMap::with_capacity(log.len());
            let mut last = None;
            for &(h, id) in log {
                if last.is_some_and(|prev| h <= prev) {
                    return Err(format!(
                        "replica {i} committed height {h} out of order (after {last:?})"
                    ));
                }
                last = Some(h);
                map.insert(h, id);
            }
            by_height.push(map);
        }
        for i in 0..by_height.len() {
            for j in i + 1..by_height.len() {
                for (h, id_i) in &by_height[i] {
                    if let Some(id_j) = by_height[j].get(h) {
                        if id_i != id_j {
                            return Err(format!(
                                "commit divergence at height {h}: replica {i} has {id_i:?}, replica {j} has {id_j:?}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(logs.iter().map(Vec::len).min().unwrap_or(0))
    }

    /// Stops every replica and returns the final report.
    pub fn shutdown(mut self) -> ClusterReport {
        for node in self.nodes.iter_mut() {
            if let Some(node) = node.take() {
                node.stop();
            }
        }
        let trace = self.trace.with(std::mem::take);
        ClusterReport {
            trace,
            statuses: self.statuses,
            duration_ns: self.clock.now_ns(),
        }
    }
}

/// What a finished cluster run leaves behind.
pub struct ClusterReport {
    /// Every telemetry note/charge/traffic record, wall-clock stamped.
    pub trace: Trace,
    /// Final per-replica counters.
    pub statuses: Vec<Arc<NodeStatus>>,
    /// Total run duration on the shared clock.
    pub duration_ns: u64,
}
