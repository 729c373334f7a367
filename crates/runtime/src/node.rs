//! One replica as a set of threads around an unchanged sans-io core.
//!
//! Thread topology per replica (all channels bounded):
//!
//! ```text
//!   transport.recv ──► ingress: decode_message ──Event::Message──┐
//!   timer thread ──Timeout/Heartbeat──► event channel ───────────┤
//!   NodeHandle::submit ──NewTransactions─────────────────────────┘
//!                                                    ▼
//!                                             consensus driver
//!                      owns Box<dyn Protocol>, dispatches actions:
//!    Send/Broadcast → transport   SetTimer/SetHeartbeat → timer thread
//!    Commit → commit log + observer          Note → telemetry sink
//!
//!   journal writes leave the consensus thread synchronously through
//!   the SafetyJournal → SharedDisk(ProxyDisk) → journal-writer thread
//!   round trip, so vote emission still blocks on the journal ack.
//! ```
//!
//! The consensus state machine is exactly the one simnet drives: the
//! runtime only supplies real IO, real clocks, and real threads around
//! `Protocol::step`. Broadcast actions have already been applied
//! locally by `step`, so the egress path never loops a frame back to
//! its sender; the timer thread keeps simnet's latest-wins semantics by
//! holding a single slot per timer kind.
//!
//! Ordering: one thread takes frames off the transport, decodes each
//! and queues it for the consensus thread — the only thread hop between
//! `Transport::recv` and `Protocol::step` — so the frames of one peer
//! reach `step` in the order that peer sent them: per-peer FIFO from
//! socket to step. Frames of different peers interleave arbitrarily. A
//! decoded message's payloads are slices of the frame it arrived in.

use crate::channel::{metered_sync_channel, LaneMeter, MeteredReceiver, MeteredSender};
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
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default depth of the event queue.
pub const DEFAULT_QUEUE_DEPTH: usize = 8192;

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
    /// Encode proposals with the shadow-block wire optimisation.
    pub shadow_blocks: bool,
    /// Call `maintain_crypto` (and report cache telemetry) every this
    /// many consensus events. The crypto cache self-bounds regardless;
    /// this only controls telemetry cadence.
    pub maintain_every: u64,
    /// Depth of the ingress → consensus event queue.
    pub event_queue_depth: usize,
    /// Live-observability plane (registry, flight recorder, scrape
    /// endpoint); `None` runs bare.
    pub observability: Option<NodeObservability>,
}

impl NodeConfig {
    /// Defaults around `config`/`kind`: fresh start, no journal, shadow
    /// blocks on, no observability plane.
    pub fn new(config: Config, kind: ProtocolKind) -> Self {
        NodeConfig {
            config,
            kind,
            bootstrap: Bootstrap::Fresh,
            journal_disk: None,
            shadow_blocks: true,
            maintain_every: 4096,
            event_queue_depth: DEFAULT_QUEUE_DEPTH,
            observability: None,
        }
    }
}

/// The per-node observability plane handed to [`spawn_node`].
///
/// With this attached, the node folds its telemetry into `registry`
/// (consensus notes via [`RegistryRecorder`], lane backpressure via
/// [`LaneMeter`], promoted error counters, view/commit gauges), mirrors
/// notes into `flight` for post-mortem dumps, and — with `scrape` on —
/// serves `/metrics`, `/metrics.json`, `/health`, and `/debug/flight`
/// over a loopback HTTP listener that never touches the consensus
/// thread.
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
    /// Meter of the consensus → journal-writer lane, when the journal
    /// runs on a writer thread; its depth is the `/health` journal lag.
    pub journal_meter: Option<LaneMeter>,
}

impl NodeObservability {
    /// An observability plane on `registry`: scrape on, no flight
    /// recorder, no journal meter.
    pub fn new(registry: Registry) -> Self {
        NodeObservability {
            registry,
            flight: None,
            scrape: true,
            flight_dir: None,
            journal_meter: None,
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

enum TimerCmd {
    ArmView { view: View, delay: Duration },
    ArmHeartbeat { delay: Duration },
    Stop,
}

/// A per-commit callback (reference-replica statistics, tests).
pub type CommitObserverFn = Box<dyn FnMut(ReplicaId, u64, &[Block]) + Send>;

/// A running replica: threads + channels around one consensus core.
pub struct NodeHandle {
    id: ReplicaId,
    status: Arc<NodeStatus>,
    event_tx: MeteredSender<Input>,
    timer_tx: Sender<TimerCmd>,
    timer_meter: LaneMeter,
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

    /// Stops the node: closes the transport, halts timers, drains and
    /// joins every thread. Returns the status handle for post-mortem
    /// inspection. Abrupt by design — also used to "kill" a replica
    /// mid-run; durability must come from the journal, not the
    /// shutdown. If a flight recorder (and dump directory) is attached,
    /// the ring — ending in a `FATAL node stopped` marker — is written
    /// out before the handle is released, so a "killed" node always
    /// leaves an autopsy.
    pub fn stop(self) -> Arc<NodeStatus> {
        let NodeHandle {
            id,
            status,
            event_tx,
            timer_tx,
            timer_meter,
            transport,
            threads,
            sampler_stop,
            mut scrape,
            flight,
            flight_dir,
        } = self;
        transport.close();
        if timer_tx.send(TimerCmd::Stop).is_ok() {
            timer_meter.note_enqueue();
        }
        let _ = event_tx.send(Input::Stop);
        // Drop our event sender so the consensus thread's final drain
        // terminates once the ingress and timer threads exit.
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

    // One meter per inter-thread lane. Without a registry the meters
    // still count (detached handles), so the send paths stay uniform.
    let lane = |name| match &obs {
        Some(o) => LaneMeter::new(&o.registry, name),
        None => LaneMeter::detached(),
    };
    let (consensus_meter, timer_meter) = (lane("consensus"), lane("timer"));

    let (event_tx, event_rx) =
        metered_sync_channel::<Input>(node_cfg.event_queue_depth.max(1), consensus_meter.clone());
    let (timer_tx, timer_rx) = channel::<TimerCmd>();

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
        timer: timer_meter.clone(),
        journal: obs.as_ref().and_then(|o| o.journal_meter.clone()),
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

    // Timer thread: latest-wins view timer + heartbeat slots.
    {
        let event_tx = event_tx.clone();
        let timer_meter = timer_meter.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("timer-{}", id.0))
                .spawn(move || timer_loop(timer_rx, event_tx, timer_meter))
                .expect("spawn timer"),
        );
    }

    // Consensus driver.
    {
        let status = Arc::clone(&status);
        let transport = Arc::clone(&transport);
        let timer_tx = timer_tx.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("consensus-{}", id.0))
                .spawn(move || {
                    consensus_loop(
                        node_cfg, event_rx, timer_tx, transport, clock, sink, observer, status,
                        meters,
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
        let lanes: Vec<LaneMeter> = [
            Some(consensus_meter),
            Some(timer_meter.clone()),
            obs.as_ref().and_then(|o| o.journal_meter.clone()),
        ]
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
            o.journal_meter.clone(),
        );
        ScrapeServer::start(o.registry.clone(), health, o.flight.clone())
            .expect("bind scrape server")
    });

    NodeHandle {
        id,
        status,
        event_tx,
        timer_tx,
        timer_meter,
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

fn timer_loop(rx: Receiver<TimerCmd>, event_tx: MeteredSender<Input>, meter: LaneMeter) {
    let mut view_slot: Option<(Instant, View)> = None;
    let mut hb_slot: Option<Instant> = None;
    loop {
        let now = Instant::now();
        // Fire whatever is due. Arming a timer replaced the slot, so a
        // stale early timer can never fire: exactly simnet's
        // latest-seq-wins rule, expressed as slot overwrite.
        if let Some((deadline, view)) = view_slot {
            if deadline <= now {
                view_slot = None;
                if event_tx
                    .send(Input::Event(Event::Timeout { view }))
                    .is_err()
                {
                    return;
                }
                continue;
            }
        }
        if let Some(deadline) = hb_slot {
            if deadline <= now {
                hb_slot = None;
                if event_tx.send(Input::Event(Event::Heartbeat)).is_err() {
                    return;
                }
                continue;
            }
        }
        let next = match (view_slot.map(|(d, _)| d), hb_slot) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        let cmd = match next {
            Some(deadline) => match rx.recv_timeout(deadline.saturating_duration_since(now)) {
                Ok(cmd) => Some(cmd),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            },
            None => match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return,
            },
        };
        meter.note_dequeue();
        match cmd {
            Some(TimerCmd::ArmView { view, delay }) => {
                view_slot = Some((Instant::now() + delay, view));
            }
            Some(TimerCmd::ArmHeartbeat { delay }) => {
                hb_slot = Some(Instant::now() + delay);
            }
            Some(TimerCmd::Stop) | None => return,
        }
    }
}

/// Registry handles the consensus driver updates inline (all
/// `Arc`-backed atomics; detached and inert when the node runs without
/// a registry).
struct DriverMeters {
    send_drops: Counter,
    view: Gauge,
    commit_height: Gauge,
    timer: LaneMeter,
    /// The consensus → journal lane meter, when the journal runs behind
    /// a metered writer thread. Its cumulative stall time is read
    /// before/after each protocol step to attribute the step's
    /// durability-barrier wait to the journal lane.
    journal: Option<LaneMeter>,
}

impl DriverMeters {
    fn journal_wait_ns(&self) -> u64 {
        self.journal.as_ref().map_or(0, LaneMeter::stall_ns_total)
    }
}

/// Measured wall-clock cost of one protocol step, split between the
/// journal ack wait and everything that ran on the consensus thread.
#[derive(Clone, Copy)]
struct StepTiming {
    wall_ns: u64,
    journal_ns: u64,
}

/// Runs one step under the wall clock: total step time comes from a
/// monotonic stopwatch, and the journal share is the growth of the
/// journal lane's measured ack wait across the step (the proxy disk is
/// only ever called from inside `step` on this thread).
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
    timer_tx: Sender<TimerCmd>,
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
        shadow_blocks,
        maintain_every,
        ..
    } = node_cfg;
    // The protocol is built *on* the consensus thread and never leaves
    // it; only frames and events cross thread boundaries.
    let mut protocol = build_core(kind, config, journal_disk, bootstrap);
    let mut ctx = DriverCtx {
        timer_tx,
        transport,
        clock,
        sink: sink.as_deref_mut(),
        observer: observer.as_mut(),
        status: &status,
        shadow_blocks,
        meters: &meters,
    };

    let (out, timing) = timed_step(&mut protocol, &meters, Event::Start);
    ctx.dispatch(protocol.as_ref(), out, timing);
    if bootstrap == Bootstrap::Recovered {
        let (out, timing) = timed_step(&mut protocol, &meters, Event::Recovered);
        ctx.dispatch(protocol.as_ref(), out, timing);
    }

    let mut events: u64 = 0;
    let mut stopping = false;
    while let Ok(input) = event_rx.recv() {
        match input {
            Input::Stop => stopping = true,
            Input::Event(_) if stopping => {}
            Input::Event(event) => {
                let (out, timing) = timed_step(&mut protocol, &meters, event);
                ctx.dispatch(protocol.as_ref(), out, timing);
                events += 1;
                if maintain_every > 0 && events.is_multiple_of(maintain_every) {
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
        }
        if stopping {
            // Keep draining so blocked producers can exit; the loop
            // ends when every sender is gone.
            continue;
        }
    }
}

/// Borrowed dispatch context: applies a `StepOutput` to the real world.
struct DriverCtx<'a> {
    timer_tx: Sender<TimerCmd>,
    transport: Arc<dyn Transport>,
    clock: Clock,
    sink: Option<&'a mut (dyn TelemetrySink + Send + 'static)>,
    observer: Option<&'a mut CommitObserverFn>,
    status: &'a Arc<NodeStatus>,
    shadow_blocks: bool,
    meters: &'a DriverMeters,
}

impl DriverCtx<'_> {
    fn dispatch(&mut self, protocol: &dyn Protocol, out: StepOutput, timing: StepTiming) {
        let id = protocol.id();
        let at_ns = self.clock.now_ns();
        if let Some(sink) = self.sink.as_deref_mut() {
            // Measured lane charges, unlike simnet's modeled ones: the
            // journal share is the durability-barrier wait the proxy
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
                    let frame = encode_message(&message, self.shadow_blocks);
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
                    let frame = encode_message(&message, self.shadow_blocks);
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
                    let sent = self.timer_tx.send(TimerCmd::ArmView {
                        view,
                        delay: Duration::from_nanos(delay_ns),
                    });
                    if sent.is_ok() {
                        self.meters.timer.note_enqueue();
                    }
                }
                Action::SetHeartbeat { delay_ns } => {
                    let sent = self.timer_tx.send(TimerCmd::ArmHeartbeat {
                        delay: Duration::from_nanos(delay_ns),
                    });
                    if sent.is_ok() {
                        self.meters.timer.note_enqueue();
                    }
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
