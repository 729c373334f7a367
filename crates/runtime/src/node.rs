//! One replica as two threads around an unchanged sans-io core.
//!
//! Thread topology per replica (the one channel is bounded):
//!
//! ```text
//!   transport.recv ──► ingress: decode_message ──Event::Message──┐
//!   NodeHandle::submit ──NewTransactions─────────────────────────┤
//!                                                    ▼
//!                                             consensus driver
//!       owns Box<dyn Protocol> and its Timers, dispatches actions:
//!    Send/Broadcast → transport   SetTimer/SetHeartbeat → Timers slots
//!    Commit → commit log + observer          Note → telemetry sink
//!    a due timer ──Timeout/Heartbeat──► the next step, ahead of the queue
//!
//!   journal writes are direct calls on the consensus thread, inside
//!   step: SafetyJournal → SharedDisk → the disk. Program order is the
//!   write-before-vote barrier.
//! ```
//!
//! The consensus thread *is* the replica: it writes its own journal
//! and keeps its own timers. The voter blocks on the journal write and
//! a timer only ever wakes the voter, so a thread for either is a
//! relay whose hand-off costs more than its work (DESIGN.md §13.1).
//!
//! The consensus state machine is exactly the one simnet drives: the
//! runtime only supplies real IO, real clocks, and real threads around
//! `Protocol::step`. Broadcast actions have already been applied
//! locally by `step`, so the egress path never loops a frame back to
//! its sender; [`Timers`] keeps simnet's latest-wins semantics by
//! holding a single slot per timer kind.
//!
//! Ordering: one thread takes frames off the transport, decodes each
//! and queues it for the consensus thread — the only thread hop between
//! `Transport::recv` and `Protocol::step` — so the frames of one peer
//! reach `step` in the order that peer sent them: per-peer FIFO from
//! socket to step. Frames of different peers interleave arbitrarily. A
//! decoded message's payloads are slices of the frame it arrived in.

use crate::channel::{metered_sync_channel, LaneMeter, MeteredReceiver, MeteredSender};
use crate::journal::MeteredDisk;
use crate::transport::Transport;
use marlin_core::{
    build_replica, Action, Config, CryptoCtx, Event, Protocol, ProtocolKind, SafetyJournal,
    StepOutput,
};
use marlin_storage::{SharedDisk, SnapshotStore};
use marlin_telemetry::{
    Counter, FlightKind, FlightRecorder, FlightSink, Gauge, Health, HealthFn, Registry,
    RegistryRecorder, ScrapeServer, TelemetrySink,
};
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::{Block, BlockId, MsgClass, ReplicaId, Transaction, View};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default depth of the event queue.
pub const DEFAULT_QUEUE_DEPTH: usize = 8192;

/// Call `maintain_crypto` (and report cache telemetry) every this many
/// consensus events. The crypto cache self-bounds regardless; this only
/// controls telemetry cadence.
const MAINTAIN_EVERY: u64 = 4096;

/// How long the consensus loop waits for input when no timer is armed
/// (then it looks again; a running replica always has its view timer).
const IDLE_WAIT: Duration = Duration::from_secs(3600);

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
    /// Disk to journal on (`None` = run without a safety journal; only
    /// Marlin and the chained variants support journaling).
    pub journal_disk: Option<SharedDisk>,
    /// Depth of the ingress → consensus event queue.
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
/// view/commit gauges), mirrors notes into `flight` for post-mortem
/// dumps, and — with `scrape` on — serves `/metrics`, `/metrics.json`,
/// `/health`, and `/debug/flight` over a loopback HTTP listener that
/// never touches the consensus thread.
#[derive(Clone, Debug)]
pub struct NodeObservability {
    /// The node's metrics registry.
    pub registry: Registry,
    /// Flight ring for crash autopsies (`None` disables recording and
    /// `/debug/flight`).
    pub flight: Option<FlightRecorder>,
    /// Serve the HTTP scrape endpoint.
    pub scrape: bool,
    /// Directory the flight ring is dumped to on [`NodeHandle::stop`]
    /// (and by the panic hook, if installed).
    pub flight_dir: Option<PathBuf>,
}

impl NodeObservability {
    /// An observability plane on `registry`: scrape on, no flight
    /// recorder.
    pub fn new(registry: Registry) -> Self {
        NodeObservability {
            registry,
            flight: None,
            scrape: true,
            flight_dir: None,
        }
    }
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
    /// in commit order — the safety artifact cross-replica checks
    /// compare.
    pub fn commit_log(&self) -> Vec<(u64, BlockId)> {
        self.commit_log.lock().expect("commit log lock").clone()
    }
}

/// Inputs multiplexed into the consensus thread.
// Event's inline size (the Message payload is Arc-backed) is moved
// once into the bounded queue and once out; boxing would trade that
// memcpy for an allocation per message on the hot path.
#[allow(clippy::large_enum_variant)]
enum Input {
    Event(Event),
    Stop,
}

/// The replica's two timers, one latest-wins slot each: arming assigns
/// the slot, so a superseded deadline can never fire — simnet's
/// latest-seq-wins rule. Clock-free: the consensus loop passes every
/// instant in, takes a due timer before the next queued event (a busy
/// queue cannot starve a view change), and drops the timers at
/// `Input::Stop` (nothing fires afterwards).
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

    /// The earlier armed deadline: how long the loop may wait.
    fn next_deadline(&self) -> Option<Instant> {
        let view = self.view.map(|(deadline, _)| deadline);
        view.into_iter().chain(self.heartbeat).min()
    }
}

/// A per-commit callback (reference-replica statistics, tests).
pub type CommitObserverFn = Box<dyn FnMut(ReplicaId, u64, &[Block]) + Send>;

/// A running replica: threads + channels around one consensus core.
pub struct NodeHandle {
    id: ReplicaId,
    status: Arc<NodeStatus>,
    event_tx: MeteredSender<Input>,
    transport: Arc<dyn Transport>,
    threads: Vec<JoinHandle<()>>,
    sampler_stop: Arc<AtomicBool>,
    scrape: Option<ScrapeServer>,
    flight: Option<FlightRecorder>,
    flight_dir: Option<PathBuf>,
}

impl NodeHandle {
    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Live counters (cheap to clone the `Arc` and keep after stop).
    pub fn status(&self) -> Arc<NodeStatus> {
        Arc::clone(&self.status)
    }

    /// The node's scrape endpoint, if observability started one.
    pub fn scrape_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::addr)
    }

    /// The node's flight recorder, if observability attached one.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Submits transactions to this replica's mempool.
    pub fn submit(&self, txs: Vec<Transaction>) {
        let _ = self
            .event_tx
            .send(Input::Event(Event::NewTransactions(txs)));
    }

    /// Stops the node: closes the transport, drains and joins every
    /// thread (the consensus thread drops its timers on `Stop`). Returns
    /// the status handle for post-mortem inspection. Abrupt by design —
    /// also used to "kill" a replica mid-run; durability must come from
    /// the journal, not the shutdown. If a flight recorder (and dump
    /// directory) is attached, the ring — ending in a `FATAL node
    /// stopped` marker — is written out before the handle is released,
    /// so a "killed" node always leaves an autopsy.
    pub fn stop(self) -> Arc<NodeStatus> {
        let NodeHandle {
            id,
            status,
            event_tx,
            transport,
            threads,
            sampler_stop,
            mut scrape,
            flight,
            flight_dir,
        } = self;
        transport.close();
        let _ = event_tx.send(Input::Stop);
        // Drop our event sender so the consensus thread's final drain
        // terminates once the ingress thread exits.
        drop(event_tx);
        sampler_stop.store(true, Ordering::Release);
        for t in threads {
            let _ = t.join();
        }
        if let Some(server) = scrape.as_mut() {
            server.stop();
        }
        if let Some(flight) = flight {
            flight.record_now(id, FlightKind::Fatal, "node stopped");
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

/// Spawns a replica's threads.
///
/// `transport` carries frames; `clock` stamps telemetry; `sink` (if
/// any) receives notes/charges/traffic exactly as simnet would emit
/// them, but with wall-clock timestamps; `observer` (if any) sees every
/// commit at this replica.
pub fn spawn_node(
    mut node_cfg: NodeConfig,
    transport: Arc<dyn Transport>,
    clock: Clock,
    sink: Option<Box<dyn TelemetrySink + Send>>,
    observer: Option<CommitObserverFn>,
) -> NodeHandle {
    let id = node_cfg.config.id;
    let status = Arc::new(NodeStatus::default());
    let obs = node_cfg.observability.take();

    // The meter of the one inter-thread lane. Without a registry it
    // still counts (a detached handle), so the send path stays uniform.
    let consensus_meter = match &obs {
        Some(o) => LaneMeter::new(&o.registry, "consensus"),
        None => LaneMeter::detached(),
    };

    let (event_tx, event_rx) =
        metered_sync_channel::<Input>(node_cfg.event_queue_depth.max(1), consensus_meter.clone());

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
    if let Some(flight) = obs.as_ref().and_then(|o| o.flight.clone()) {
        transport.set_event_hook(Arc::new(move |detail: &str| {
            flight.record_now(id, FlightKind::Transport, detail);
        }));
    }

    // Status counters promoted into the registry (detached and inert
    // without one), plus progress gauges for `/metrics`.
    let decode_errors_ctr = obs
        .as_ref()
        .map(|o| o.registry.counter("runtime_decode_errors_total"))
        .unwrap_or_default();
    let meters = DriverMeters {
        send_drops: obs
            .as_ref()
            .map(|o| o.registry.counter("runtime_send_drops_total"))
            .unwrap_or_default(),
        view: obs
            .as_ref()
            .map(|o| o.registry.gauge("consensus_current_view"))
            .unwrap_or_default(),
        commit_height: obs
            .as_ref()
            .map(|o| o.registry.gauge("consensus_commit_height"))
            .unwrap_or_default(),
        journal: journal_meter.clone(),
    };

    // Compose the telemetry fan-out: registry fold + flight mirror +
    // whatever the caller provided. Bare nodes keep the caller's sink
    // unwrapped.
    let sink: Option<Box<dyn TelemetrySink + Send>> = match &obs {
        Some(o) => Some(Box::new((
            RegistryRecorder::new(&o.registry),
            (o.flight.clone().map(FlightSink::new), sink),
        ))),
        None => sink,
    };

    let mut threads = Vec::new();

    // Ingress: transport frames → decoded events, in arrival order and
    // off the consensus thread.
    {
        let transport = Arc::clone(&transport);
        let event_tx = event_tx.clone();
        let status = Arc::clone(&status);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ingress-{}", id.0))
                .spawn(move || {
                    while let Ok(frame) = transport.recv() {
                        match decode_message(&frame) {
                            Ok(msg) => {
                                if event_tx.send(Input::Event(Event::Message(msg))).is_err() {
                                    return;
                                }
                            }
                            Err(_) => {
                                status.decode_errors.fetch_add(1, Ordering::AcqRel);
                                decode_errors_ctr.inc();
                            }
                        }
                    }
                })
                .expect("spawn ingress"),
        );
    }

    // Consensus driver.
    {
        let status = Arc::clone(&status);
        let transport = Arc::clone(&transport);
        threads.push(
            std::thread::Builder::new()
                .name(format!("consensus-{}", id.0))
                .spawn(move || {
                    consensus_loop(
                        node_cfg, event_rx, transport, clock, sink, observer, status, meters,
                    )
                })
                .expect("spawn consensus"),
        );
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
    // a hammering scraper never blocks the consensus driver.
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
        id,
        status,
        event_tx,
        transport,
        threads,
        sampler_stop,
        scrape,
        flight: obs.as_ref().and_then(|o| o.flight.clone()),
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

/// Registry handles the consensus driver updates inline (all
/// `Arc`-backed atomics; detached and inert when the node runs without
/// a registry).
struct DriverMeters {
    send_drops: Counter,
    view: Gauge,
    commit_height: Gauge,
    /// The journal lane meter, when the journal's disk is metered. The
    /// growth of its cumulative stall time across a protocol step is
    /// that step's durability-barrier wait.
    journal: Option<LaneMeter>,
}

impl DriverMeters {
    fn journal_wait_ns(&self) -> u64 {
        self.journal.as_ref().map_or(0, LaneMeter::stall_ns_total)
    }
}

/// Measured wall-clock cost of one protocol step, split between the
/// journal's disk calls and everything else that ran on the consensus
/// thread.
#[derive(Clone, Copy)]
struct StepTiming {
    wall_ns: u64,
    journal_ns: u64,
}

/// Runs one step under the wall clock: total step time comes from a
/// monotonic stopwatch, and the journal share is the growth of the
/// journal lane's measured call time across the step (the metered disk
/// is only ever called from inside `step` on this thread).
fn timed_step(
    protocol: &mut Box<dyn Protocol>,
    meters: &DriverMeters,
    event: Event,
) -> (StepOutput, StepTiming) {
    let journal_before = meters.journal_wait_ns();
    let started = Instant::now();
    let out = protocol.step(event);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let journal_ns = meters
        .journal_wait_ns()
        .saturating_sub(journal_before)
        .min(wall_ns);
    (
        out,
        StepTiming {
            wall_ns,
            journal_ns,
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn consensus_loop(
    node_cfg: NodeConfig,
    event_rx: MeteredReceiver<Input>,
    transport: Arc<dyn Transport>,
    clock: Clock,
    mut sink: Option<Box<dyn TelemetrySink + Send>>,
    mut observer: Option<CommitObserverFn>,
    status: Arc<NodeStatus>,
    meters: DriverMeters,
) {
    let NodeConfig {
        config,
        kind,
        bootstrap,
        journal_disk,
        ..
    } = node_cfg;
    // The protocol is built *on* the consensus thread and never leaves
    // it; only frames and events cross thread boundaries.
    let mut protocol = build_core(kind, config, journal_disk, bootstrap);
    let mut ctx = DriverCtx {
        timers: Timers::default(),
        transport,
        clock,
        sink: sink.as_deref_mut(),
        observer: observer.as_mut(),
        status: &status,
        meters: &meters,
    };

    let (out, timing) = timed_step(&mut protocol, &meters, Event::Start);
    ctx.dispatch(protocol.as_ref(), out, timing);
    if bootstrap == Bootstrap::Recovered {
        let (out, timing) = timed_step(&mut protocol, &meters, Event::Recovered);
        ctx.dispatch(protocol.as_ref(), out, timing);
    }

    let mut events: u64 = 0;
    loop {
        // A due timer goes ahead of the queue; otherwise wait for the
        // next input, no longer than until the earlier deadline.
        let now = Instant::now();
        let event = match ctx.timers.pop_due(now) {
            Some(event) => event,
            None => {
                let wait = ctx.timers.next_deadline().map_or(IDLE_WAIT, |deadline| {
                    deadline.saturating_duration_since(now)
                });
                match event_rx.recv_timeout(wait) {
                    Ok(Input::Event(event)) => event,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Ok(Input::Stop) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        let (out, timing) = timed_step(&mut protocol, &meters, event);
        ctx.dispatch(protocol.as_ref(), out, timing);
        events += 1;
        if events.is_multiple_of(MAINTAIN_EVERY) {
            let stats = protocol.maintain_crypto(CryptoCtx::VERIFIED_CACHE_TARGET);
            if let Some(sink) = ctx.sink.as_deref_mut() {
                sink.crypto_cache(
                    ctx.clock.now_ns(),
                    protocol.id(),
                    stats.seed_hits,
                    stats.seed_misses,
                    stats.verified_qcs as u64,
                );
            }
        }
    }
    // Stopped: no step and no timer from here on. Keep draining so
    // blocked producers can exit; the loop ends when every sender is
    // gone.
    while event_rx.recv().is_ok() {}
}

/// Borrowed dispatch context: applies a `StepOutput` to the real world.
struct DriverCtx<'a> {
    timers: Timers,
    transport: Arc<dyn Transport>,
    clock: Clock,
    sink: Option<&'a mut (dyn TelemetrySink + Send + 'static)>,
    observer: Option<&'a mut CommitObserverFn>,
    status: &'a Arc<NodeStatus>,
    meters: &'a DriverMeters,
}

impl DriverCtx<'_> {
    fn dispatch(&mut self, protocol: &dyn Protocol, out: StepOutput, timing: StepTiming) {
        let id = protocol.id();
        let at_ns = self.clock.now_ns();
        if let Some(sink) = self.sink.as_deref_mut() {
            // Measured lane charges, unlike simnet's modeled ones: the
            // journal share is the durability-barrier wait the metered
            // disk clocked inside this step, and the rest of the step's
            // wall time ran on the consensus thread (protocol logic
            // plus its inline crypto). The step's own modeled crypto
            // charge rides along for runs with a nonzero cost model.
            let consensus_ns = timing.wall_ns.saturating_sub(timing.journal_ns);
            sink.step_charged(at_ns, id, out.crypto_ns, timing.journal_ns, consensus_ns);
        }
        for action in out.actions {
            match action {
                Action::Send { to, message } => {
                    debug_assert_ne!(to, id, "self-sends are resolved by step()");
                    let frame = encode_message(&message, SHADOW_BLOCKS);
                    if let Some(sink) = self.sink.as_deref_mut() {
                        sink.message_sent(
                            at_ns,
                            id,
                            MsgClass::of(&message),
                            frame.len() as u64,
                            message.authenticator_count() as u64,
                        );
                    }
                    if self.transport.send(to, &frame).is_err() {
                        self.status.send_drops.fetch_add(1, Ordering::AcqRel);
                        self.meters.send_drops.inc();
                    }
                }
                Action::Broadcast { message } => {
                    // `step` already applied the broadcast locally:
                    // encode once, fan out to everyone else.
                    let frame = encode_message(&message, SHADOW_BLOCKS);
                    let class = MsgClass::of(&message);
                    let auth = message.authenticator_count() as u64;
                    for i in 0..self.transport.n() {
                        let to = ReplicaId(i as u32);
                        if to == id {
                            continue;
                        }
                        if let Some(sink) = self.sink.as_deref_mut() {
                            sink.message_sent(at_ns, id, class, frame.len() as u64, auth);
                        }
                        if self.transport.send(to, &frame).is_err() {
                            self.status.send_drops.fetch_add(1, Ordering::AcqRel);
                            self.meters.send_drops.inc();
                        }
                    }
                }
                Action::Commit { blocks } => {
                    self.status
                        .committed_blocks
                        .fetch_add(blocks.len() as u64, Ordering::AcqRel);
                    let txs: u64 = blocks.iter().map(|b| b.payload().len() as u64).sum();
                    self.status.committed_txs.fetch_add(txs, Ordering::AcqRel);
                    {
                        let mut log = self.status.commit_log.lock().expect("commit log lock");
                        for b in &blocks {
                            log.push((b.height().0, b.id()));
                        }
                    }
                    if let Some(b) = blocks.last() {
                        self.meters.commit_height.set(b.height().0 as i64);
                    }
                    if let Some(obs) = self.observer.as_mut() {
                        obs(id, at_ns, &blocks);
                    }
                }
                Action::SetTimer { view, delay_ns } => {
                    let deadline = Instant::now() + Duration::from_nanos(delay_ns);
                    self.timers.view = Some((deadline, view));
                }
                Action::SetHeartbeat { delay_ns } => {
                    let deadline = Instant::now() + Duration::from_nanos(delay_ns);
                    self.timers.heartbeat = Some(deadline);
                }
                Action::Note(note) => {
                    if let Some(sink) = self.sink.as_deref_mut() {
                        sink.note(at_ns, id, &note);
                    }
                }
            }
        }
        let view = protocol.current_view().0;
        self.status.view.store(view, Ordering::Release);
        self.meters.view.set(view as i64);
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
        // second is not: nothing fires. The parent's timer thread could
        // not guarantee this — a `Timeout` it had already queued stayed
        // queued when a proposal behind it re-armed the timer.
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
    /// own view timer can move it: fired from the consensus loop's
    /// bounded wait, not earlier than armed, and never after `stop`.
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
            Some(Box::new(trace.clone())),
            None,
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
