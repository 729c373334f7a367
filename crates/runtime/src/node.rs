//! One replica as a mailbox around an unchanged sans-io core.
//!
//! ```text
//!   TCP reader / channel delivery thread ─ decode_message ─┐
//!   NodeHandle::submit, on the caller's thread ────────────┤ deliver
//!   timer thread, once the earlier deadline passes: wake-up ┘
//!                                 ▼
//!     Mailbox (bounded, lane `consensus`), drained by the deliverer
//!     that found it idle: due timers first, then the event, stepped
//!     by the driver (behind a mutex), which dispatches actions:
//!    Send/Broadcast → transport   SetTimer/SetHeartbeat → Timers slots
//!    Commit → commit log + telemetry sink    Note → telemetry sink
//! ```
//!
//! The replica has no thread to hand events to: whoever delivers to an
//! idle mailbox steps, so a message costs the receiver one wake-up, its
//! reader's (DESIGN.md §13.1). One thread drains at a time, so steps
//! never overlap; the timer thread only sleeps until the earlier armed
//! deadline and delivers a wake-up, so an idle replica still times out.
//! Journal writes are direct calls inside `step` on the draining thread:
//! program order is the write-before-vote barrier.
//!
//! The state machine is exactly the one simnet drives. Broadcasts are
//! already applied locally by `step`, so egress never loops a frame back
//! to its sender; `Timers` keeps simnet's latest-wins semantics with
//! one slot per timer kind. One reader per TCP connection (one delivery
//! thread per peer on a channel mesh) decodes and delivers its frames in
//! arrival order into the FIFO mailbox: per-peer FIFO from socket to
//! step. A decoded message's payloads are slices of the frame it arrived
//! in.

use crate::channel::{LaneMeter, Mailbox};
use crate::journal::MeteredDisk;
use crate::transport::Transport;
use bytes::Bytes;
use marlin_core::{
    build_replica, Action, Config, CryptoCtx, Event, Protocol, ProtocolKind, SafetyJournal,
};
use marlin_storage::{SharedDisk, SnapshotStore};
use marlin_telemetry::{
    Counter, FlightRecorder, Gauge, Health, HealthFn, Record, Registry, RegistryRecorder,
    ScrapeServer, Telemetry, TelemetrySink,
};
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::{BlockId, Message, MsgClass, ReplicaId, Transaction, View};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound of a replica's mailbox.
pub const DEFAULT_QUEUE_DEPTH: usize = 8192;

/// Call `maintain_crypto` (and report cache telemetry) every this many
/// steps. The crypto cache self-bounds regardless; this only controls
/// telemetry cadence.
const MAINTAIN_EVERY: u64 = 4096;

/// Proposals are encoded with the shadow-block wire optimisation. (The
/// wire ablation is simnet's `SimConfig::shadow_blocks`.)
const SHADOW_BLOCKS: bool = true;

/// Cadence at which the sampler thread copies lane depths into their
/// exported gauges.
const DEPTH_SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Wall-clock time source shared by every thread of a run, so note
/// timestamps from different replicas land on one comparable axis.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock starting now.
    pub fn start() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Monotonic nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// How the consensus core comes up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bootstrap {
    /// Fresh state (journal created empty if journaling).
    Fresh,
    /// Rebuild from the journal on the given disk (`FromDisk`
    /// recovery): replay, then announce `Event::Recovered` so the core
    /// re-attests its view and catches up.
    Recovered,
}

/// Everything needed to launch one replica.
pub struct NodeConfig {
    /// Consensus configuration, already bound to this replica's id.
    pub config: Config,
    /// Which protocol to run.
    pub kind: ProtocolKind,
    /// Fresh start or journal recovery.
    pub bootstrap: Bootstrap,
    /// Disk to journal on (`None` = run without a safety journal;
    /// every protocol kind journals).
    pub journal_disk: Option<SharedDisk>,
    /// Bound of the replica's mailbox: events delivered but not yet
    /// stepped, the one being stepped included (at least two). A
    /// deliverer that finds it full blocks, charged as a
    /// `consensus`-lane stall.
    pub event_queue_depth: usize,
    /// Live-observability plane (registry, flight recorder, scrape
    /// endpoint); `None` runs bare.
    pub observability: Option<NodeObservability>,
}

impl NodeConfig {
    /// Defaults around `config`/`kind`: fresh start, no journal, no
    /// observability plane.
    pub fn new(config: Config, kind: ProtocolKind) -> Self {
        NodeConfig {
            config,
            kind,
            bootstrap: Bootstrap::Fresh,
            journal_disk: None,
            event_queue_depth: DEFAULT_QUEUE_DEPTH,
            observability: None,
        }
    }
}

/// The per-node observability plane handed to [`spawn_node`].
///
/// With this attached, the node folds its telemetry into `registry`
/// (consensus notes via [`RegistryRecorder`], lane backpressure and the
/// journal's disk-call time via [`LaneMeter`], promoted error counters,
/// view/commit gauges), keeps notes in `flight` for post-mortem
/// dumps, and — with `scrape` on — serves `/metrics`, `/metrics.json`,
/// `/health`, and `/debug/flight` over a loopback HTTP listener that
/// never touches the consensus driver.
#[derive(Clone, Debug)]
pub struct NodeObservability {
    /// The node's metrics registry.
    pub registry: Registry,
    /// Flight ring for crash autopsies.
    pub flight: FlightRecorder,
    /// Serve the HTTP scrape endpoint.
    pub scrape: bool,
    /// Directory the flight ring is dumped to on [`NodeHandle::stop`]
    /// (and by the panic hook, if installed).
    pub flight_dir: Option<PathBuf>,
}

/// Live counters exported by a running node, readable from any thread.
#[derive(Debug, Default)]
pub struct NodeStatus {
    view: AtomicU64,
    committed_blocks: AtomicU64,
    committed_txs: AtomicU64,
    decode_errors: AtomicU64,
    send_drops: AtomicU64,
    commit_log: Mutex<Vec<(u64, BlockId)>>,
}

impl NodeStatus {
    /// The replica's current view.
    pub fn view(&self) -> View {
        View(self.view.load(Ordering::Acquire))
    }

    /// Blocks committed so far.
    pub fn committed_blocks(&self) -> u64 {
        self.committed_blocks.load(Ordering::Acquire)
    }

    /// Transactions committed so far.
    pub fn committed_txs(&self) -> u64 {
        self.committed_txs.load(Ordering::Acquire)
    }

    /// Frames that failed to decode (malformed/oversized).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Acquire)
    }

    /// Frames dropped on send (peer down/unreachable).
    pub fn send_drops(&self) -> u64 {
        self.send_drops.load(Ordering::Acquire)
    }

    /// Snapshot of the committed chain as `(height, block id)` pairs,
    /// in commit order (safety is judged by the cluster's oracle, not
    /// from these logs).
    pub fn commit_log(&self) -> Vec<(u64, BlockId)> {
        self.commit_log.lock().expect("commit log lock").clone()
    }
}

/// The replica's two timers, one latest-wins slot each: arming assigns
/// the slot, so a superseded deadline can never fire — simnet's
/// latest-seq-wins rule. Clock-free: the driver passes every instant
/// in, steps a due timer before the next mailbox event (a busy mailbox
/// cannot starve a view change), and is dropped at stop (nothing fires
/// afterwards).
#[derive(Debug, Default)]
struct Timers {
    view: Option<(Instant, View)>,
    heartbeat: Option<Instant>,
}

impl Timers {
    /// Takes a timer due at `now`, the view timer ahead of the heartbeat.
    fn pop_due(&mut self, now: Instant) -> Option<Event> {
        if self.view.is_some_and(|(deadline, _)| deadline <= now) {
            return self.view.take().map(|(_, view)| Event::Timeout { view });
        }
        let due = self.heartbeat.take_if(|deadline| *deadline <= now);
        due.map(|_| Event::Heartbeat)
    }

    /// The earlier armed deadline: when the timer thread must wake.
    fn next_deadline(&self) -> Option<Instant> {
        let view = self.view.map(|(deadline, _)| deadline);
        view.into_iter().chain(self.heartbeat).min()
    }
}

/// The deadline the timer thread sleeps toward (`None`: until armed),
/// and whether the replica has stopped. Arming notifies only a deadline
/// earlier than that one.
#[derive(Default)]
struct Alarm {
    state: Mutex<(Option<Instant>, bool)>,
    changed: Condvar,
}

impl Alarm {
    fn arm(&self, deadline: Instant) {
        let mut state = self.state.lock().expect("alarm lock");
        if state.0.is_none_or(|at| deadline < at) {
            state.0 = Some(deadline);
            self.changed.notify_one();
        }
    }

    fn stop(&self) {
        self.state.lock().expect("alarm lock").1 = true;
        self.changed.notify_one();
    }

    /// Sleeps until the deadline passes (`true`, and clears it) or the
    /// replica stops (`false`).
    fn wait(&self) -> bool {
        let mut state = self.state.lock().expect("alarm lock");
        loop {
            let now = Instant::now();
            state = match *state {
                (_, true) => return false,
                (Some(at), false) if at <= now => {
                    state.0 = None;
                    return true;
                }
                (Some(at), false) => {
                    self.changed
                        .wait_timeout(state, at - now)
                        .expect("alarm lock")
                        .0
                }
                (None, false) => self.changed.wait(state).expect("alarm lock"),
            };
        }
    }
}

/// The replica, shared by every thread that delivers to it.
struct Node {
    /// `None` is the timer thread's wake-up: it steps only due timers.
    mailbox: Mailbox<Option<Event>>,
    /// `None` once stopped; later deliveries are drained unstepped.
    driver: Mutex<Option<Driver>>,
    alarm: Alarm,
}

impl Node {
    /// Delivers `input`, then drains the mailbox if it was idle.
    fn deliver(&self, input: Option<Event>) {
        self.mailbox.deliver(input, |input| self.handle(input));
    }

    /// Steps every due timer, then `input`'s event, and arms the alarm
    /// for the earliest timer left (a wake-up cleared it).
    fn handle(&self, input: Option<Event>) {
        let mut driver = self.driver.lock().expect("driver lock");
        let Some(driver) = driver.as_mut() else {
            return;
        };
        while let Some(timer) = driver.timers.pop_due(Instant::now()) {
            driver.run(timer);
        }
        if let Some(event) = input {
            driver.run(event);
        }
        if let Some(deadline) = driver.timers.next_deadline() {
            self.alarm.arm(deadline);
        }
    }
}

/// A running replica: its mailbox, its timer thread, and the transport
/// whose threads deliver to it.
pub struct NodeHandle {
    status: Arc<NodeStatus>,
    node: Arc<Node>,
    transport: Arc<dyn Transport>,
    threads: Vec<JoinHandle<()>>,
    sampler_stop: Arc<AtomicBool>,
    scrape: Option<ScrapeServer>,
    flight: Option<FlightRecorder>,
    flight_dir: Option<PathBuf>,
}

impl NodeHandle {
    /// Live counters (cheap to clone the `Arc` and keep after stop).
    pub fn status(&self) -> Arc<NodeStatus> {
        Arc::clone(&self.status)
    }

    /// The node's scrape endpoint, if observability started one.
    pub fn scrape_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::addr)
    }

    /// Submits transactions to this replica's mempool. The calling
    /// thread steps them itself if the replica is idle.
    pub fn submit(&self, txs: Vec<Transaction>) {
        self.node.deliver(Some(Event::NewTransactions(txs)));
    }

    /// Stops the node: closes the transport, stops the timer thread,
    /// takes the driver out (waiting for a step in progress; nothing is
    /// stepped afterwards) and joins every thread. Returns the status
    /// handle for post-mortem inspection. Abrupt by design — also used
    /// to "kill" a replica mid-run; durability must come from the
    /// journal, not the shutdown. If a flight recorder (and dump
    /// directory) is attached, the ring — ending in a `Fatal("node
    /// stopped")` entry — is written out before the handle is released,
    /// so a "killed" node always leaves an autopsy.
    pub fn stop(self) -> Arc<NodeStatus> {
        let NodeHandle {
            status,
            node,
            transport,
            threads,
            sampler_stop,
            mut scrape,
            flight,
            flight_dir,
        } = self;
        transport.close();
        node.alarm.stop();
        // The guard ends with the statement: a timer thread still
        // draining must get the lock (and find no driver) to be joined.
        let driver = node
            .driver
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(driver);
        sampler_stop.store(true, Ordering::Release);
        for t in threads {
            let _ = t.join();
        }
        if let Some(server) = scrape.as_mut() {
            server.stop();
        }
        if let Some(flight) = flight {
            flight.record_now(Record::Fatal("node stopped".into()));
            if let Some(dir) = flight_dir {
                let _ = flight.dump_to_dir(&dir);
            }
        }
        status
    }
}

/// Builds the consensus core a node drives — the same constructor the
/// simnet scenarios use, so runtime and simulation run byte-identical
/// state machines.
fn build_core(
    kind: ProtocolKind,
    cfg: Config,
    journal_disk: Option<SharedDisk>,
    bootstrap: Bootstrap,
) -> Box<dyn Protocol> {
    // Block sync persists its snapshot anchors next to the journal on
    // the same disk.
    let snapshots = journal_disk
        .clone()
        .filter(|_| cfg.sync_snapshot_interval > 0)
        .map(|disk| SnapshotStore::open(disk).expect("snapshot store opens"));
    let journal = journal_disk.map(|disk| SafetyJournal::open(disk).expect("journal opens"));
    let recovered = bootstrap == Bootstrap::Recovered;
    build_replica(kind, cfg, journal, recovered, snapshots)
}

/// Starts a replica: steps `Event::Start` (and `Event::Recovered`) on
/// the calling thread, spawns its timer thread and routes `transport`
/// to its mailbox.
///
/// `transport` carries frames; `clock` stamps telemetry; `sink` (`()`
/// for none) receives simnet's records, wall-clock stamped and each
/// step's in one `record_step`.
pub fn spawn_node(
    mut node_cfg: NodeConfig,
    transport: Arc<dyn Transport>,
    clock: Clock,
    sink: Box<dyn TelemetrySink + Send>,
) -> NodeHandle {
    let id = node_cfg.config.id;
    let status = Arc::new(NodeStatus::default());
    let obs = node_cfg.observability.take();

    // The mailbox's meter. Without a registry it still counts (a
    // detached handle), so the send path stays uniform.
    let consensus_meter = match &obs {
        Some(o) => LaneMeter::new(&o.registry, "consensus"),
        None => LaneMeter::detached(),
    };

    // With a registry, a stopwatch goes between the journal and its
    // disk: the `journal` lane is the time the voter spends in disk
    // calls, its depth (0 or 1) a call in progress. The journal's handle
    // is then a boxed backend, so fault injection (`crash`, `wipe`,
    // `tear_next_write_after`) only works through the caller's own
    // handle to the unwrapped disk.
    let journal_meter = obs.as_ref().and_then(|o| {
        let inner = node_cfg.journal_disk.take()?;
        let meter = LaneMeter::new(&o.registry, "journal");
        node_cfg.journal_disk = Some(SharedDisk::from_disk(Box::new(MeteredDisk {
            inner,
            meter: meter.clone(),
        })));
        Some(meter)
    });

    // Transport connection lifecycle lands in the flight ring.
    if let Some(flight) = obs.as_ref().map(|o| o.flight.clone()) {
        transport.set_event_hook(Arc::new(move |detail: &str| {
            flight.record_now(Record::Transport(detail.into()));
        }));
    }

    // Status counters promoted into the registry (detached and inert
    // without one), plus progress gauges for `/metrics`.
    let registry = obs.as_ref().map(|o| &o.registry);
    let counter = |name| registry.map(|r| r.counter(name)).unwrap_or_default();
    let gauge = |name| registry.map(|r| r.gauge(name)).unwrap_or_default();
    let decode_errors_ctr = counter("runtime_decode_errors_total");

    // Compose the telemetry fan-out: registry fold + flight mirror +
    // whatever the caller provided. Bare nodes keep the caller's sink
    // unwrapped.
    let sink: Box<dyn TelemetrySink + Send> = match &obs {
        Some(o) => Box::new((RegistryRecorder::new(&o.registry), (o.flight.clone(), sink))),
        None => sink,
    };

    let NodeConfig {
        config,
        kind,
        bootstrap,
        journal_disk,
        event_queue_depth,
        ..
    } = node_cfg;
    let driver = Driver {
        protocol: build_core(kind, config, journal_disk, bootstrap),
        timers: Timers::default(),
        transport: Arc::clone(&transport),
        clock,
        sink,
        status: Arc::clone(&status),
        send_drops: counter("runtime_send_drops_total"),
        view: gauge("consensus_current_view"),
        commit_height: gauge("consensus_commit_height"),
        journal: journal_meter.clone(),
        steps: 0,
    };
    let node = Arc::new(Node {
        mailbox: Mailbox::new(event_queue_depth, consensus_meter.clone()),
        driver: Mutex::new(Some(driver)),
        alarm: Alarm::default(),
    });
    // No other thread reaches the node yet.
    node.handle(Some(Event::Start));
    if bootstrap == Bootstrap::Recovered {
        node.handle(Some(Event::Recovered));
    }

    let mut threads = Vec::new();
    {
        let node = Arc::clone(&node);
        threads.push(
            std::thread::Builder::new()
                .name(format!("timer-{}", id.0))
                .spawn(move || {
                    while node.alarm.wait() {
                        node.deliver(None);
                    }
                })
                .expect("spawn timer"),
        );
    }

    // From here on the transport's threads decode each frame and deliver
    // it, frames that arrived before the route first.
    {
        let (node, status) = (Arc::clone(&node), Arc::clone(&status));
        transport.route(Arc::new(move |frame: Bytes| match decode_message(&frame) {
            Ok(msg) => node.deliver(Some(Event::Message(msg))),
            Err(_) => {
                status.decode_errors.fetch_add(1, Ordering::AcqRel);
                decode_errors_ctr.inc();
            }
        }));
    }

    // Depth sampler: copies lane depths into their gauges on a fixed
    // tick, so scrapes see queue state without touching the hot paths.
    let sampler_stop = Arc::new(AtomicBool::new(false));
    if obs.is_some() {
        let stop = Arc::clone(&sampler_stop);
        let lanes: Vec<LaneMeter> = [Some(consensus_meter), journal_meter.clone()]
            .into_iter()
            .flatten()
            .collect();
        threads.push(
            std::thread::Builder::new()
                .name(format!("sample-{}", id.0))
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        for lane in &lanes {
                            lane.sample_depth();
                        }
                        std::thread::sleep(DEPTH_SAMPLE_EVERY);
                    }
                })
                .expect("spawn depth sampler"),
        );
    }

    // Scrape endpoint: serves registry snapshots and the health
    // document; assembly reads only atomics and short-lock copies, so
    // a hammering scraper never blocks a step.
    let scrape = obs.as_ref().filter(|o| o.scrape).map(|o| {
        let health = health_fn(
            id,
            Arc::clone(&status),
            Arc::clone(&transport),
            clock,
            &o.registry,
            journal_meter.clone(),
        );
        ScrapeServer::start(o.registry.clone(), health, o.flight.clone())
            .expect("bind scrape server")
    });

    NodeHandle {
        status,
        node,
        transport,
        threads,
        sampler_stop,
        scrape,
        flight: obs.as_ref().map(|o| o.flight.clone()),
        flight_dir: obs.and_then(|o| o.flight_dir),
    }
}

/// Builds the `/health` assembler: a snapshot of the node's atomics,
/// sync counters, journal lag, and transport connectivity.
fn health_fn(
    id: ReplicaId,
    status: Arc<NodeStatus>,
    transport: Arc<dyn Transport>,
    clock: Clock,
    registry: &Registry,
    journal_meter: Option<LaneMeter>,
) -> HealthFn {
    // Pre-register the sync counters so reads are handle loads; a node
    // that never syncs legitimately reports them as zero.
    let sync_started = registry.counter("consensus_sync_started_total");
    let sync_completed = registry.counter("consensus_sync_completed_total");
    Arc::new(move || Health {
        replica: id.0,
        view: status.view().0,
        committed_blocks: status.committed_blocks(),
        committed_txs: status.committed_txs(),
        sync_state: if sync_started.get() > sync_completed.get() {
            "syncing"
        } else {
            "idle"
        },
        journal_lag: journal_meter.as_ref().map_or(0, LaneMeter::depth),
        peers_connected: transport.peers_connected() as u64,
        peers_total: transport.n().saturating_sub(1) as u64,
        decode_errors: status.decode_errors(),
        send_drops: status.send_drops(),
        uptime_ns: clock.now_ns(),
    })
}

/// The replica's state machine and everything its actions reach; only
/// ever used by the one thread that holds it. The registry handles are
/// `Arc`-backed atomics, detached and inert without a registry.
struct Driver {
    protocol: Box<dyn Protocol>,
    timers: Timers,
    transport: Arc<dyn Transport>,
    clock: Clock,
    sink: Box<dyn TelemetrySink + Send>,
    status: Arc<NodeStatus>,
    send_drops: Counter,
    view: Gauge,
    commit_height: Gauge,
    /// The journal lane meter, when the journal's disk is metered. The
    /// growth of its cumulative stall time across a protocol step is
    /// that step's durability-barrier wait.
    journal: Option<LaneMeter>,
    steps: u64,
}

impl Driver {
    /// Runs one step under the wall clock and applies its output.
    fn run(&mut self, event: Event) {
        let journal_wait = |d: &Self| d.journal.as_ref().map_or(0, LaneMeter::stall_ns_total);
        let (journal_before, started) = (journal_wait(self), Instant::now());
        let out = self.protocol.step(event);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let journal_ns = journal_wait(self)
            .saturating_sub(journal_before)
            .min(wall_ns);
        let (id, at_ns) = (self.protocol.id(), self.clock.now_ns());
        // Measured lane charges, unlike simnet's modeled ones: the
        // journal share is the durability-barrier wait the metered disk
        // clocked inside this step (it is only ever called from inside
        // `step`), and the rest of the step's wall time ran on the
        // draining thread (protocol logic plus its inline crypto). The
        // step's own modeled crypto charge rides along for runs with a
        // nonzero cost model.
        let mut records = vec![Telemetry::Charged {
            crypto_ns: out.crypto_ns,
            journal_ns,
            consensus_ns: wall_ns.saturating_sub(journal_ns),
        }];
        let after = |ns| Instant::now() + Duration::from_nanos(ns);
        for action in &out.actions {
            match action {
                Action::Send { to, message } => {
                    debug_assert_ne!(*to, id, "self-sends are resolved by step()");
                    records.push(self.send(message, [*to].into_iter()));
                }
                // `step` already applied the broadcast locally: encode
                // once, fan out to everyone else.
                Action::Broadcast { message } => {
                    let others = (0..self.transport.n() as u32).map(ReplicaId);
                    let sent = self.send(message, others.filter(|&to| to != id));
                    records.extend(std::iter::repeat_n(sent, self.transport.n() - 1));
                }
                Action::Commit { blocks } => {
                    self.status
                        .committed_blocks
                        .fetch_add(blocks.len() as u64, Ordering::AcqRel);
                    let txs: u64 = blocks.iter().map(|b| b.payload().len() as u64).sum();
                    self.status.committed_txs.fetch_add(txs, Ordering::AcqRel);
                    let mut log = self.status.commit_log.lock().expect("commit log lock");
                    log.extend(blocks.iter().map(|b| (b.height().0, b.id())));
                    drop(log);
                    if let Some(b) = blocks.last() {
                        self.commit_height.set(b.height().0 as i64);
                    }
                    records.push(Telemetry::Committed(blocks));
                }
                Action::SetTimer { view, delay_ns } => {
                    self.timers.view = Some((after(*delay_ns), *view));
                }
                Action::SetHeartbeat { delay_ns } => self.timers.heartbeat = Some(after(*delay_ns)),
                Action::Note(note) => records.push(Telemetry::Note(note)),
            }
        }
        // One hand-over per step: a shared sink locks once for it, so no
        // other replica's record lands inside the step (oracle rule 1).
        self.sink.record_step(at_ns, id, &records);
        let view = self.protocol.current_view().0;
        self.status.view.store(view, Ordering::Release);
        self.view.set(view as i64);
        self.steps += 1;
        if self.steps.is_multiple_of(MAINTAIN_EVERY) {
            let stats = self
                .protocol
                .maintain_crypto(CryptoCtx::VERIFIED_CACHE_TARGET);
            let report = Telemetry::CryptoCache {
                seed_hits: stats.seed_hits,
                seed_misses: stats.seed_misses,
                verified_qcs: stats.verified_qcs as u64,
            };
            self.sink.record(self.clock.now_ns(), id, report);
        }
    }

    /// Encodes `msg` once and sends it to each of `to`; returns the
    /// `Sent` record of one copy.
    fn send(&mut self, msg: &Message, to: impl Iterator<Item = ReplicaId>) -> Telemetry<'static> {
        let frame = encode_message(msg, SHADOW_BLOCKS);
        for to in to {
            if self.transport.send(to, &frame).is_err() {
                self.status.send_drops.fetch_add(1, Ordering::AcqRel);
                self.send_drops.inc();
            }
        }
        Telemetry::Sent {
            class: MsgClass::of(msg),
            bytes: frame.len() as u64,
            authenticators: msg.authenticator_count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelMesh;
    use marlin_telemetry::{Note, SharedSink, Trace};

    /// `pop_due`, comparable (`Event` is not): the view of a `Timeout`,
    /// 0 for a `Heartbeat`.
    fn pop(timers: &mut Timers, now: Instant) -> Option<u64> {
        timers.pop_due(now).map(|event| match event {
            Event::Timeout { view } => view.0,
            Event::Heartbeat => 0,
            other => panic!("timers yield only timer events, got {other:?}"),
        })
    }

    #[test]
    fn timers_are_latest_wins_slots_and_the_view_timer_fires_first() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut timers = Timers::default();
        assert_eq!(timers.next_deadline(), None);
        timers.view = Some((at(1), View(1)));
        timers.view = Some((at(3), View(2)));
        // Between the two deadlines the first arming is due and the
        // second is not: nothing fires.
        assert_eq!(pop(&mut timers, at(2)), None);
        assert_eq!(pop(&mut timers, at(3)), Some(2));
        assert_eq!(timers.next_deadline(), None, "a popped slot is empty");

        timers.heartbeat = Some(at(5));
        assert_eq!(timers.next_deadline(), Some(at(5)));
        timers.view = Some((at(8), View(3)));
        assert_eq!(timers.next_deadline(), Some(at(5)), "the earlier slot");
        timers.heartbeat = Some(at(9));
        assert_eq!(timers.next_deadline(), Some(at(8)), "the earlier slot");
        // Both due: the view timer first, the heartbeat on the next
        // call, then nothing until something is armed again.
        assert_eq!(pop(&mut timers, at(10)), Some(3));
        assert_eq!(timers.next_deadline(), Some(at(9)));
        assert_eq!(pop(&mut timers, at(10)), Some(0));
        assert_eq!(pop(&mut timers, at(1_000)), None);
        assert_eq!(timers.next_deadline(), None);
        timers.view = Some((at(20), View(4)));
        assert_eq!(pop(&mut timers, at(20)), Some(4));
    }

    /// A lone replica of an n = 4 mesh hears from no one, so only its
    /// own view timer can move it: fired by the timer thread's wake-up,
    /// not earlier than armed, and never after `stop`.
    #[test]
    fn lone_replica_times_out_of_view_one_on_schedule_and_stops_promptly() {
        const BASE_TIMEOUT: Duration = Duration::from_millis(40);
        let (_mesh, mut ends) = ChannelMesh::new(4);
        let mut config = Config::for_test(4, 1);
        config.base_timeout_ns = BASE_TIMEOUT.as_nanos() as u64;
        let trace = SharedSink::new(Trace::new());
        let node = spawn_node(
            NodeConfig::new(config, ProtocolKind::Marlin),
            Arc::new(ends.remove(0)),
            Clock::start(),
            Box::new(trace.clone()),
        );
        let status = node.status();
        let deadline = Instant::now() + Duration::from_secs(1);
        while status.view() < View(2) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // View 2's timer (80 ms) is armed now; stopping drops it.
        let stopping = Instant::now();
        node.stop();
        assert!(stopping.elapsed() < Duration::from_secs(1), "stop hung");
        let events = trace.with(|t| std::mem::take(&mut t.events));
        std::thread::sleep(BASE_TIMEOUT * 3);
        assert!(trace.with(|t| t.events.is_empty()), "a note after stop");

        let left_view_one = Note::ViewChangeStarted { from_view: View(1) };
        let left = events.iter().find(|e| e.note == left_view_one);
        let at = Duration::from_nanos(left.expect("view 1 timed out within a second").at_ns);
        assert!(at >= BASE_TIMEOUT, "timer fired early, {at:?} after spawn");
    }
}
