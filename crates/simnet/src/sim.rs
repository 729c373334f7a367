//! The discrete-event simulation core.

use crate::accounting::{Accounting, MsgClass};
use crate::block_log::BlockLogCost;
use marlin_core::harness::build_protocol;
use marlin_core::{Action, Config, Event, Note, Protocol, ProtocolKind};
use marlin_storage::SharedDisk;
use marlin_telemetry::TelemetrySink;
use marlin_types::{Block, Message, MsgBody, ReplicaId, Transaction, View};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// Observer invoked on every commit at every replica.
pub trait CommitObserver {
    /// Called after `replica` commits `blocks` at simulated time
    /// `now_ns`.
    fn on_commit(&mut self, replica: ReplicaId, now_ns: u64, blocks: &[Block]);
}

/// Cross-replica observer invoked after *every* processed event, with
/// read access to all replica state machines — the hook global
/// invariant checkers attach to.
pub trait InvariantChecker {
    /// Called after each simulation event; `crashed[i]` tells whether
    /// replica `i` is currently down.
    fn after_event(&mut self, now_ns: u64, replicas: &[Box<dyn Protocol>], crashed: &[bool]);

    /// Called for every vote-carrying message a live replica hands to
    /// the network (before drops/partitions), so checkers can detect
    /// equivocation that network faults would otherwise hide.
    fn on_vote(&mut self, now_ns: u64, from: ReplicaId, msg: &Message) {
        let _ = (now_ns, from, msg);
    }
}

/// How a replica's state is reconstituted when a scheduled `Recover`
/// fires (see [`SimNet::configure_recovery`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryMode {
    /// In-memory protocol state survives the crash (a process pause
    /// rather than a real crash) — the legacy simulator behaviour.
    #[default]
    WithMemory,
    /// The protocol state machine is rebuilt from the replica's durable
    /// disk (safety-journal replay); in-memory state is lost.
    FromDisk,
    /// Both the state machine and the disk are lost: the replica
    /// rejoins with genesis state. Unsafe by design — the negative
    /// control for the durability experiments.
    Amnesia,
}

/// Rebuilds a replica's protocol instance from its surviving disk after
/// a [`RecoveryMode::FromDisk`] or [`RecoveryMode::Amnesia`] recovery
/// (the disk is wiped first under `Amnesia`).
pub type RebuildFn = Box<dyn FnMut(ReplicaId, SharedDisk) -> Box<dyn Protocol>>;

/// A network partition active during `[from_ns, until_ns)`: messages
/// pass only between replicas sharing a group. Replicas absent from
/// every group are unconstrained (by this partition).
#[derive(Clone, Debug)]
pub struct Partition {
    /// Window start (inclusive), in simulated nanoseconds.
    pub from_ns: u64,
    /// Window end (exclusive) — the heal time.
    pub until_ns: u64,
    /// The connectivity groups.
    pub groups: Vec<Vec<ReplicaId>>,
}

impl Partition {
    fn blocks(&self, at_ns: u64, from: ReplicaId, to: ReplicaId) -> bool {
        if !(self.from_ns..self.until_ns).contains(&at_ns) {
            return false;
        }
        let group_of = |id: ReplicaId| self.groups.iter().position(|g| g.contains(&id));
        match (group_of(from), group_of(to)) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }
}

/// A per-link fault phase active during `[from_ns, until_ns)`:
/// probabilistic drops, added delay, and/or duplication, optionally
/// restricted to an endpoint and/or message classes.
#[derive(Clone, Debug)]
pub struct LinkFault {
    /// Window start (inclusive), in simulated nanoseconds.
    pub from_ns: u64,
    /// Window end (exclusive).
    pub until_ns: u64,
    /// Restrict to this sender (`None` = any).
    pub src: Option<ReplicaId>,
    /// Restrict to this recipient (`None` = any).
    pub dst: Option<ReplicaId>,
    /// Restrict to these message classes (`None` = all traffic).
    pub classes: Option<Vec<MsgClass>>,
    /// Probability of dropping a matching message.
    pub drop_prob: f64,
    /// Extra one-way delay added to matching messages.
    pub extra_delay_ns: u64,
    /// Deliver matching messages twice (spaced by the extra delay).
    pub duplicate: bool,
}

impl LinkFault {
    /// A fault that deterministically drops all matching traffic.
    pub fn drop_all(from_ns: u64, until_ns: u64) -> Self {
        LinkFault {
            from_ns,
            until_ns,
            src: None,
            dst: None,
            classes: None,
            drop_prob: 1.0,
            extra_delay_ns: 0,
            duplicate: false,
        }
    }

    fn matches(&self, at_ns: u64, from: ReplicaId, to: ReplicaId, msg: &Message) -> bool {
        (self.from_ns..self.until_ns).contains(&at_ns)
            && self.src.is_none_or(|s| s == from)
            && self.dst.is_none_or(|d| d == to)
            && self
                .classes
                .as_ref()
                .is_none_or(|cs| cs.contains(&MsgClass::of(msg)))
    }
}

/// Network and environment parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// One-way message latency in nanoseconds.
    pub one_way_latency_ns: u64,
    /// Seeded uniform jitter added to each delivery, `0..=jitter_ns`.
    pub jitter_ns: u64,
    /// Egress NIC bandwidth per replica, bits per second (all outgoing
    /// copies share it). `0` disables the NIC model.
    pub bandwidth_bps: u64,
    /// Per-link bandwidth, bits per second (each destination has its own
    /// pipe; the paper's "200 Mbps network bandwidth" on 1000 MB NICs).
    /// `0` disables the link model.
    pub link_bandwidth_bps: u64,
    /// Probability of dropping any given message.
    pub drop_rate: f64,
    /// Whether the shadow-block wire optimisation is active (affects the
    /// byte accounting and bandwidth costs of two-block proposals).
    pub shadow_blocks: bool,
    /// RNG seed (jitter and drops).
    pub seed: u64,
    /// Number of distinct client processes generating the workload.
    /// `0` keeps the legacy single anonymous stream (client id 0, one
    /// global id counter); `> 0` round-robins submissions over that
    /// many clients, packing ids as `client << 32 | seq` with a
    /// per-client monotone sequence — the convention the mempool's
    /// dedup and sequencing rules key on.
    pub clients: u32,
}

impl SimConfig {
    /// The paper's testbed (Section VI): 200 Mbps, 40 ms injected
    /// latency, no loss.
    pub fn paper_testbed() -> Self {
        SimConfig {
            one_way_latency_ns: 40_000_000,
            jitter_ns: 200_000,
            // "1000 MB NIC" ≈ 1 Gbps egress; 200 Mbps per network link.
            bandwidth_bps: 1_000_000_000,
            link_bandwidth_bps: 200_000_000,
            drop_rate: 0.0,
            shadow_blocks: true,
            seed: 2022,
            clients: 0,
        }
    }

    /// A fast LAN (for tests): 0.1 ms latency, 10 Gbps.
    pub fn lan() -> Self {
        SimConfig {
            one_way_latency_ns: 100_000,
            jitter_ns: 1_000,
            bandwidth_bps: 10_000_000_000,
            link_bandwidth_bps: 0,
            drop_rate: 0.0,
            shadow_blocks: true,
            seed: 7,
            clients: 0,
        }
    }

    /// Zero latency, no bandwidth model, no loss, full (non-shadow) wire
    /// lengths: what tests step one input at a time, with
    /// [`SimNet::run_until_idle`] and [`SimNet::fire_next_timer`].
    pub fn instant() -> Self {
        SimConfig {
            one_way_latency_ns: 0,
            jitter_ns: 0,
            bandwidth_bps: 0,
            shadow_blocks: false,
            ..Self::lan()
        }
    }
}

/// Heap entry kinds.
///
/// `Deliver` dominates the size, but the heap holds in-flight events
/// only (bounded by bandwidth-delay product); boxing every message
/// would cost an allocation per delivery on the hottest path.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Ev {
    Deliver {
        to: ReplicaId,
        event: Event,
    },
    ViewTimer {
        replica: ReplicaId,
        view: View,
        seq: u64,
    },
    Heartbeat {
        replica: ReplicaId,
        seq: u64,
    },
    ClientBatch {
        to: ReplicaId,
        count: usize,
        payload_len: usize,
    },
    Crash {
        replica: ReplicaId,
    },
    Recover {
        replica: ReplicaId,
    },
    TearDisk {
        replica: ReplicaId,
        keep_bytes: usize,
    },
}

struct Entry {
    at_ns: u64,
    tie: u64,
    ev: Ev,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at_ns == other.at_ns && self.tie == other.tie
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap: earliest first, FIFO tiebreak.
        (other.at_ns, other.tie).cmp(&(self.at_ns, self.tie))
    }
}

/// Message filter: return `false` to drop `msg` on the `from → to` link.
pub type FilterFn = Box<dyn FnMut(ReplicaId, ReplicaId, &Message) -> bool>;

/// How often (in processed events) the run loops trim each replica's
/// crypto caches and report cache health to telemetry.
const MAINTAIN_EVERY_EVENTS: u64 = 8192;

/// Verified-QC cache bound applied at each maintenance tick.
const MAX_VERIFIED_QC_CACHE: usize = 4096;

/// One replica's simulated CPU: a consensus event loop, a pool of
/// crypto worker lanes (sized by `Config::crypto_workers`), and a
/// journal/IO lane. Each lane is a busy horizon — the time until which
/// that lane is occupied.
#[derive(Clone, Debug)]
struct CpuLanes {
    /// When the consensus event loop can pick up the next event.
    consensus_free: u64,
    /// Per-worker crypto lane horizons.
    workers_free: Vec<u64>,
    /// Journal/IO lane horizon.
    journal_free: u64,
}

impl CpuLanes {
    fn new(workers: usize) -> Self {
        CpuLanes {
            consensus_free: 0,
            workers_free: vec![0; workers.max(1)],
            journal_free: 0,
        }
    }
}

/// A deterministic discrete-event simulation of a BFT cluster.
pub struct SimNet {
    cfg: SimConfig,
    replicas: Vec<Box<dyn Protocol>>,
    heap: BinaryHeap<Entry>,
    tie: u64,
    now_ns: u64,
    /// Per-replica CPU lanes (consensus loop + crypto workers +
    /// journal). With one worker this degenerates to the old single
    /// `busy_until` horizon, bit for bit.
    lanes: Vec<CpuLanes>,
    /// Per-replica: egress NIC free time.
    nic_free: Vec<u64>,
    /// Per-(from, to) link-pipe free time (flattened n×n).
    link_free: Vec<u64>,
    crashed: Vec<bool>,
    live_view_timer: Vec<u64>,
    live_heartbeat: Vec<u64>,
    timer_seq: u64,
    rng: StdRng,
    accounting: Accounting,
    committed_blocks: Vec<u64>,
    committed_txs: Vec<u64>,
    notes: Vec<(u64, ReplicaId, Note)>,
    observer: Option<Box<dyn CommitObserver>>,
    checker: Option<Box<dyn InvariantChecker>>,
    partitions: Vec<Partition>,
    link_faults: Vec<LinkFault>,
    filter: Option<FilterFn>,
    next_tx_id: u64,
    events_processed: u64,
    recovery_mode: RecoveryMode,
    /// Per-replica durable disks; empty unless recovery is configured.
    disks: Vec<SharedDisk>,
    rebuild: Option<RebuildFn>,
    /// Per-replica block-log write costs; empty unless
    /// [`SimNet::charge_block_log`] turned them on.
    block_logs: Vec<BlockLogCost>,
    /// Telemetry sink: notes and transmitted messages are forwarded
    /// here, stamped with simulated time.
    telemetry: Option<Box<dyn TelemetrySink>>,
}

impl SimNet {
    /// Builds a simulation of `config.n` replicas running `kind`.
    pub fn new(kind: ProtocolKind, config: Config, sim: SimConfig) -> Self {
        let replicas = (0..config.n)
            .map(|i| build_protocol(kind, config.with_id(ReplicaId(i as u32))))
            .collect();
        Self::with_replicas(replicas, sim)
    }

    /// Builds a simulation over pre-constructed replicas (e.g. protocol
    /// instances wrapped in a [`crate::ByzantineReplica`]).
    pub fn with_replicas(replicas: Vec<Box<dyn Protocol>>, sim: SimConfig) -> Self {
        let n = replicas.len();
        let rng = StdRng::seed_from_u64(sim.seed);
        let lanes = replicas
            .iter()
            .map(|r| CpuLanes::new(r.config().crypto_workers))
            .collect();
        let mut net = SimNet {
            cfg: sim,
            replicas,
            heap: BinaryHeap::new(),
            tie: 0,
            now_ns: 0,
            lanes,
            nic_free: vec![0; n],
            link_free: vec![0; n * n],
            crashed: vec![false; n],
            live_view_timer: vec![0; n],
            live_heartbeat: vec![0; n],
            timer_seq: 0,
            rng,
            accounting: Accounting::new(),
            committed_blocks: vec![0; n],
            committed_txs: vec![0; n],
            notes: Vec::new(),
            observer: None,
            checker: None,
            partitions: Vec::new(),
            link_faults: Vec::new(),
            filter: None,
            next_tx_id: 0,
            events_processed: 0,
            recovery_mode: RecoveryMode::default(),
            disks: Vec::new(),
            rebuild: None,
            block_logs: Vec::new(),
            telemetry: None,
        };
        for i in 0..n {
            net.step_replica(ReplicaId(i as u32), Event::Start);
        }
        net
    }

    /// Installs a telemetry sink. Every protocol note and every message
    /// handed to the transport (after link filters, before loss) is
    /// forwarded, stamped with simulated time. Install before driving
    /// the simulation: earlier events are not replayed.
    pub fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>) {
        self.telemetry = Some(sink);
    }

    /// Removes and returns the installed telemetry sink, if any.
    pub fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>> {
        self.telemetry.take()
    }

    /// From here on every committed block is written to its replica's
    /// durable block log (the paper "writes data into the database
    /// rather than into memory", Section VI): the simulated write time
    /// is charged to the committing step's journal lane.
    pub fn charge_block_log(&mut self) {
        self.block_logs = vec![BlockLogCost::default(); self.replicas.len()];
    }

    /// Installs a commit observer (replacing any previous one).
    pub fn set_observer(&mut self, observer: Box<dyn CommitObserver>) {
        self.observer = Some(observer);
    }

    /// Removes and returns the commit observer.
    pub fn take_observer(&mut self) -> Option<Box<dyn CommitObserver>> {
        self.observer.take()
    }

    /// Installs an invariant checker, invoked after every processed
    /// event (replacing any previous one).
    pub fn set_invariant_checker(&mut self, checker: Box<dyn InvariantChecker>) {
        self.checker = Some(checker);
    }

    /// Adds a timed network partition window.
    pub fn add_partition(&mut self, partition: Partition) {
        self.partitions.push(partition);
    }

    /// Adds a timed per-link fault phase.
    pub fn add_link_fault(&mut self, fault: LinkFault) {
        self.link_faults.push(fault);
    }

    /// Installs a message filter (partitions / Byzantine suppression).
    pub fn set_filter(&mut self, filter: FilterFn) {
        self.filter = Some(filter);
    }

    /// Removes the message filter.
    pub fn clear_filter(&mut self) {
        self.filter = None;
    }

    /// The simulated clock.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Read access to a replica.
    pub fn replica(&self, id: ReplicaId) -> &dyn Protocol {
        self.replicas[id.index()].as_ref()
    }

    /// Traffic accounting.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Clears the accounting window.
    pub fn reset_accounting(&mut self) {
        self.accounting.reset();
    }

    /// Blocks committed by `id` so far.
    pub fn committed_blocks(&self, id: ReplicaId) -> u64 {
        self.committed_blocks[id.index()]
    }

    /// Transactions committed by `id` so far.
    pub fn committed_txs(&self, id: ReplicaId) -> u64 {
        self.committed_txs[id.index()]
    }

    /// All trace notes `(time, replica, note)` so far.
    pub fn notes(&self) -> &[(u64, ReplicaId, Note)] {
        &self.notes
    }

    /// Total events processed (for sanity/perf introspection).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules a crash of `replica` at `at_ns`. Crashing also loses
    /// any disk writes not yet synced (the disk reverts to its durable
    /// image), matching a power failure.
    pub fn schedule_crash(&mut self, replica: ReplicaId, at_ns: u64) {
        self.push(at_ns, Ev::Crash { replica });
    }

    /// Schedules `replica` to come back up at `at_ns`. How its state is
    /// reconstituted depends on the configured [`RecoveryMode`]
    /// (default: in-memory state survives); in every mode the replica
    /// is handed [`Event::Recovered`] so it re-arms its view timer and
    /// solicits whatever it missed.
    pub fn schedule_recover(&mut self, replica: ReplicaId, at_ns: u64) {
        self.push(at_ns, Ev::Recover { replica });
    }

    /// Configures crash recovery: the mode, one durable disk handle per
    /// replica (the same handles the replicas' journals write to), and
    /// the factory that rebuilds a replica from its disk under
    /// [`RecoveryMode::FromDisk`] / [`RecoveryMode::Amnesia`].
    pub fn configure_recovery(
        &mut self,
        mode: RecoveryMode,
        disks: Vec<SharedDisk>,
        rebuild: RebuildFn,
    ) {
        assert_eq!(disks.len(), self.replicas.len(), "one disk per replica");
        self.recovery_mode = mode;
        self.disks = disks;
        self.rebuild = Some(rebuild);
    }

    /// Schedules a torn-write injection: the next write `replica`'s
    /// disk receives after `at_ns` keeps only its first `keep_bytes`
    /// bytes and fails — the classic torn tail a crash leaves behind.
    pub fn schedule_disk_tear(&mut self, replica: ReplicaId, at_ns: u64, keep_bytes: usize) {
        self.push(
            at_ns,
            Ev::TearDisk {
                replica,
                keep_bytes,
            },
        );
    }

    /// The durable disk of `id`, when recovery is configured.
    pub fn disk(&self, id: ReplicaId) -> Option<&SharedDisk> {
        self.disks.get(id.index())
    }

    /// Whether `id` is currently crashed.
    pub fn is_crashed(&self, id: ReplicaId) -> bool {
        self.crashed[id.index()]
    }

    /// Crashes `id` now: it is silent until restarted, and its disk (if
    /// recovery is configured) loses every unsynced write.
    pub fn crash(&mut self, id: ReplicaId) {
        self.crashed[id.index()] = true;
        if let Some(disk) = self.disks.get(id.index()) {
            disk.crash();
        }
    }

    /// Brings `id` back up now as `replica`, handing it [`Event::Start`]
    /// (a journal-recovered machine ignores it) and [`Event::Recovered`].
    pub fn restart(&mut self, id: ReplicaId, replica: Box<dyn Protocol>) {
        self.replicas[id.index()] = replica;
        self.crashed[id.index()] = false;
        self.step_replica(id, Event::Start);
        self.step_replica(id, Event::Recovered);
    }

    /// Schedules `count` client transactions with `payload_len`-byte
    /// payloads to arrive at `to` at `at_ns`. Client→replica latency is
    /// assumed already included in `at_ns`; transaction timestamps are
    /// set to `at_ns` so end-to-end latency can add the client legs.
    pub fn schedule_client_batch(
        &mut self,
        to: ReplicaId,
        at_ns: u64,
        count: usize,
        payload_len: usize,
    ) {
        self.push(
            at_ns,
            Ev::ClientBatch {
                to,
                count,
                payload_len,
            },
        );
    }

    /// Runs the simulation until the clock reaches `deadline_ns` (events
    /// at exactly the deadline are processed).
    pub fn run_until(&mut self, deadline_ns: u64) {
        while self.heap.peek().is_some_and(|top| top.at_ns <= deadline_ns) {
            let entry = self.heap.pop().expect("peeked");
            self.process(entry);
        }
        self.now_ns = self.now_ns.max(deadline_ns);
    }

    /// Processes every event due by now except timers, which stay
    /// armed; the clock does not move. Under [`SimConfig::instant`]
    /// that is everything the last input caused.
    pub fn run_until_idle(&mut self) {
        let mut timers = Vec::new();
        while self.heap.peek().is_some_and(|top| top.at_ns <= self.now_ns) {
            let entry = self.heap.pop().expect("peeked");
            if self.timer_armed(&entry.ev).is_some() {
                timers.push(entry);
            } else {
                self.process(entry);
            }
        }
        self.heap.extend(timers);
    }

    /// Fires the earliest armed timer (superseded ones are dropped, other
    /// events before it processed), then runs until idle: timers due at
    /// the same instant stay armed. `false` when no timer is armed.
    pub fn fire_next_timer(&mut self) -> bool {
        while let Some(entry) = self.heap.pop() {
            let timer = self.timer_armed(&entry.ev);
            if timer == Some(false) {
                continue;
            }
            self.process(entry);
            if timer.is_some() {
                self.run_until_idle();
                return true;
            }
        }
        false
    }

    /// Delivers `event` to `to` now, then runs until idle.
    pub fn inject(&mut self, to: ReplicaId, event: Event) {
        self.push(self.now_ns, Ev::Deliver { to, event });
        self.run_until_idle();
    }

    /// Bounded crypto-cache maintenance: every
    /// [`MAINTAIN_EVERY_EVENTS`] processed events, trims each live
    /// replica's verified-QC cache to [`MAX_VERIFIED_QC_CACHE`]
    /// entries and forwards cache health to telemetry. Keeps
    /// arbitrarily long runs at bounded memory without perturbing the
    /// protocols (the caches are pure memoization).
    fn maybe_maintain_crypto(&mut self) {
        if !self.events_processed.is_multiple_of(MAINTAIN_EVERY_EVENTS) {
            return;
        }
        for i in 0..self.replicas.len() {
            if self.crashed[i] {
                continue;
            }
            let stats = self.replicas[i].maintain_crypto(MAX_VERIFIED_QC_CACHE);
            if let Some(sink) = self.telemetry.as_mut() {
                sink.crypto_cache(
                    self.now_ns,
                    ReplicaId(i as u32),
                    stats.seed_hits,
                    stats.seed_misses,
                    stats.verified_qcs as u64,
                );
            }
        }
    }

    // ------------------------------------------------------ internal --

    fn push(&mut self, at_ns: u64, ev: Ev) {
        self.tie += 1;
        self.heap.push(Entry {
            at_ns,
            tie: self.tie,
            ev,
        });
    }

    /// Every entry point's path through an event: clock, dispatch,
    /// invariant check, cache maintenance.
    fn process(&mut self, entry: Entry) {
        self.now_ns = self.now_ns.max(entry.at_ns);
        self.events_processed += 1;
        self.dispatch_entry(entry);
        self.run_checker();
        self.maybe_maintain_crypto();
    }

    /// `None` for a non-timer event; for a timer, whether it is still
    /// armed (its replica is up and no later arm superseded it).
    fn timer_armed(&self, ev: &Ev) -> Option<bool> {
        let (replica, live, seq) = match *ev {
            Ev::ViewTimer { replica, seq, .. } => (replica, &self.live_view_timer, seq),
            Ev::Heartbeat { replica, seq } => (replica, &self.live_heartbeat, seq),
            _ => return None,
        };
        Some(!self.crashed[replica.index()] && live[replica.index()] == seq)
    }

    fn dispatch_entry(&mut self, entry: Entry) {
        if self.timer_armed(&entry.ev) == Some(false) {
            return;
        }
        match entry.ev {
            Ev::Deliver { to, event } => {
                if !self.crashed[to.index()] {
                    self.step_replica(to, event);
                }
            }
            Ev::ViewTimer { replica, view, .. } => {
                self.step_replica(replica, Event::Timeout { view });
            }
            Ev::Heartbeat { replica, .. } => self.step_replica(replica, Event::Heartbeat),
            Ev::ClientBatch {
                to,
                count,
                payload_len,
            } => {
                if !self.crashed[to.index()] {
                    let now = self.now_ns;
                    let clients = u64::from(self.cfg.clients);
                    let txs: Vec<Transaction> = (0..count)
                        .map(|_| {
                            self.next_tx_id += 1;
                            let (id, client) = if clients > 0 {
                                // Round-robin client processes with the
                                // `client << 32 | seq` packing; both
                                // halves are 1-based so the mempool's
                                // zero watermark never eats seq 0.
                                let client = (self.next_tx_id % clients) as u32 + 1;
                                let seq = (self.next_tx_id / clients) as u32 + 1;
                                ((u64::from(client) << 32) | u64::from(seq), client)
                            } else {
                                (self.next_tx_id, 0)
                            };
                            Transaction::new(
                                id,
                                client,
                                bytes::Bytes::from(vec![0u8; payload_len]),
                                now,
                            )
                        })
                        .collect();
                    self.step_replica(to, Event::NewTransactions(txs));
                }
            }
            Ev::Crash { replica } => self.crash(replica),
            Ev::Recover { replica } => {
                if self.crashed[replica.index()] {
                    let rebuilt = match self.recovery_mode {
                        RecoveryMode::WithMemory => None,
                        RecoveryMode::FromDisk | RecoveryMode::Amnesia => {
                            match (self.disks.get(replica.index()), self.rebuild.as_mut()) {
                                (Some(disk), Some(rebuild)) => {
                                    if self.recovery_mode == RecoveryMode::Amnesia {
                                        disk.wipe();
                                    }
                                    Some(rebuild(replica, disk.clone()))
                                }
                                _ => None,
                            }
                        }
                    };
                    // In every mode the protocol re-arms its own view
                    // timer (and may solicit missed state) — no
                    // synthetic timeout injection.
                    match rebuilt {
                        Some(fresh) => self.restart(replica, fresh),
                        None => {
                            self.crashed[replica.index()] = false;
                            self.step_replica(replica, Event::Recovered);
                        }
                    }
                }
            }
            Ev::TearDisk {
                replica,
                keep_bytes,
            } => {
                if let Some(disk) = self.disks.get(replica.index()) {
                    disk.tear_next_write_after(keep_bytes);
                }
            }
        }
    }

    /// Invokes the invariant checker (if any) against the current
    /// global state. Take/put-back keeps the borrow checker happy while
    /// the checker reads `self.replicas`.
    fn run_checker(&mut self) {
        if let Some(mut checker) = self.checker.take() {
            checker.after_event(self.now_ns, &self.replicas, &self.crashed);
            self.checker = Some(checker);
        }
    }

    fn step_replica(&mut self, id: ReplicaId, event: Event) {
        // CPU model: each replica runs a consensus event loop plus a
        // pool of crypto worker lanes and a journal/IO lane. The loop
        // picks the event up once free and runs the protocol logic;
        // the step's crypto lump is handed to the least-busy worker
        // and its journal lump to the IO lane (both overlap each
        // other), and outputs dispatch once every lump has finished —
        // a vote cannot be counted before it verifies, a commit
        // cannot be acked before it is durable.
        //
        // With a single worker the loop performs verification and IO
        // inline (synchronous verify): that is exactly the legacy
        // scalar `busy_until` model, bit for bit. With
        // `crypto_workers > 1` the loop frees up after the protocol
        // logic, so later steps' verification overlaps earlier ones.
        let idx = id.index();
        let start = self.now_ns.max(self.lanes[idx].consensus_free);
        let mut out = self.replicas[idx].step(event);
        if let Some(log) = self.block_logs.get_mut(idx) {
            let io_ns: u64 = out
                .actions
                .iter()
                .map(|action| match action {
                    Action::Commit { blocks } => log.commit(blocks),
                    _ => 0,
                })
                .sum();
            // Durable writes run on the journal/IO lane; keep the
            // scalar total consistent with the lane split.
            out.cpu_ns += io_ns;
            out.journal_ns += io_ns;
        }
        let consensus_ns = out.consensus_ns();
        let done = {
            let lanes = &mut self.lanes[idx];
            if lanes.workers_free.len() == 1 {
                let done = start + out.cpu_ns;
                lanes.consensus_free = done;
                lanes.workers_free[0] = done;
                lanes.journal_free = lanes.journal_free.max(done);
                done
            } else {
                let consensus_done = start + consensus_ns;
                lanes.consensus_free = consensus_done;
                let mut done = consensus_done;
                if out.crypto_ns > 0 {
                    let w = lanes
                        .workers_free
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &free)| free)
                        .map(|(i, _)| i)
                        .expect("at least one crypto worker");
                    let begin = consensus_done.max(lanes.workers_free[w]);
                    lanes.workers_free[w] = begin + out.crypto_ns;
                    done = done.max(lanes.workers_free[w]);
                }
                if out.journal_ns > 0 {
                    let begin = consensus_done.max(lanes.journal_free);
                    lanes.journal_free = begin + out.journal_ns;
                    done = done.max(lanes.journal_free);
                }
                done
            }
        };
        if let Some(sink) = self.telemetry.as_mut() {
            // Stamped at `done`, like the step's notes: the charge for
            // the verification that formed a QC carries the same
            // timestamp as the QcFormed note it produced.
            sink.step_charged(done, id, out.crypto_ns, out.journal_ns, consensus_ns);
        }
        for action in out.actions {
            self.dispatch_action(id, done, action);
        }
    }

    /// Surfaces a vote-carrying message to the invariant checker before
    /// the network model can drop or delay it.
    fn observe_vote(&mut self, from: ReplicaId, msg: &Message) {
        if !matches!(msg.body, MsgBody::Vote(_)) || self.crashed[from.index()] {
            return;
        }
        if let Some(mut checker) = self.checker.take() {
            checker.on_vote(self.now_ns, from, msg);
            self.checker = Some(checker);
        }
    }

    fn dispatch_action(&mut self, from: ReplicaId, at_ns: u64, action: Action) {
        match action {
            Action::Send { to, message } => {
                debug_assert_ne!(to, from, "self-sends are resolved by step()");
                self.observe_vote(from, &message);
                let cost = self.wire_cost(&message);
                self.transmit(from, to, message, cost, at_ns);
            }
            Action::Broadcast { message } => {
                self.observe_vote(from, &message);
                // Per-broadcast work happens once: the message is measured
                // here, not per recipient. Each recipient then costs a
                // batch refcount bump plus the network model.
                let cost = self.wire_cost(&message);
                for i in 0..self.replicas.len() {
                    let to = ReplicaId(i as u32);
                    if to != from {
                        self.transmit(from, to, message.clone(), cost, at_ns);
                    }
                }
            }
            Action::Commit { blocks } => {
                self.committed_blocks[from.index()] += blocks.len() as u64;
                self.committed_txs[from.index()] +=
                    blocks.iter().map(|b| b.payload().len() as u64).sum::<u64>();
                if let Some(obs) = self.observer.as_mut() {
                    obs.on_commit(from, at_ns, &blocks);
                }
            }
            Action::SetTimer { view, delay_ns } => {
                self.timer_seq += 1;
                self.live_view_timer[from.index()] = self.timer_seq;
                self.push(
                    at_ns + delay_ns,
                    Ev::ViewTimer {
                        replica: from,
                        view,
                        seq: self.timer_seq,
                    },
                );
            }
            Action::SetHeartbeat { delay_ns } => {
                self.timer_seq += 1;
                self.live_heartbeat[from.index()] = self.timer_seq;
                self.push(
                    at_ns + delay_ns,
                    Ev::Heartbeat {
                        replica: from,
                        seq: self.timer_seq,
                    },
                );
            }
            Action::Note(note) => {
                if let Some(sink) = self.telemetry.as_mut() {
                    sink.note(at_ns, from, &note);
                }
                self.notes.push((at_ns, from, note));
            }
        }
    }

    /// Bytes (shadow optimisation as configured) and authenticators one
    /// copy of `msg` is charged; measured once per `Send`/`Broadcast`.
    fn wire_cost(&self, msg: &Message) -> (usize, usize) {
        (
            msg.wire_len(self.cfg.shadow_blocks),
            msg.authenticator_count(),
        )
    }

    /// Applies the network model to one copy of a message whose
    /// [`SimNet::wire_cost`] the caller measured. A crashed sender
    /// transmits nothing.
    fn transmit(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        msg: Message,
        (len, auths): (usize, usize),
        at_ns: u64,
    ) {
        if self.crashed[from.index()] {
            return;
        }
        if let Some(filter) = self.filter.as_mut() {
            if !filter(from, to, &msg) {
                return;
            }
        }
        // Single source of truth: telemetry sees exactly what the
        // traffic accounting charges — same site, same values (counted
        // per destination copy, after filters, before loss).
        let class = MsgClass::of(&msg);
        self.accounting.record(class, len, auths);
        if let Some(sink) = self.telemetry.as_mut() {
            sink.message_sent(at_ns, from, class, len as u64, auths as u64);
        }
        if self.partitions.iter().any(|p| p.blocks(at_ns, from, to)) {
            return;
        }
        // Scheduled link faults: drops consult the seeded rng so runs
        // stay reproducible; delay and duplication accumulate across
        // overlapping phases.
        let mut fault_delay_ns = 0u64;
        let mut fault_copies = 1u32;
        {
            let faults = &self.link_faults;
            let rng = &mut self.rng;
            for fault in faults {
                if !fault.matches(at_ns, from, to, &msg) {
                    continue;
                }
                if fault.drop_prob >= 1.0
                    || (fault.drop_prob > 0.0 && rng.gen_bool(fault.drop_prob))
                {
                    return;
                }
                fault_delay_ns += fault.extra_delay_ns;
                if fault.duplicate {
                    fault_copies += 1;
                }
            }
        }
        if self.cfg.drop_rate > 0.0 && self.rng.gen_bool(self.cfg.drop_rate) {
            return;
        }
        // Egress NIC: all outgoing copies serialize through it in turn.
        let nic_done = if self.cfg.bandwidth_bps == 0 {
            at_ns
        } else {
            let ser_ns = (len as u128 * 8 * 1_000_000_000 / self.cfg.bandwidth_bps as u128) as u64;
            let start = at_ns.max(self.nic_free[from.index()]);
            let done = start + ser_ns;
            self.nic_free[from.index()] = done;
            done
        };
        // Per-destination pipe: store-and-forward at the link rate.
        let depart = if self.cfg.link_bandwidth_bps == 0 {
            nic_done
        } else {
            let ser_ns =
                (len as u128 * 8 * 1_000_000_000 / self.cfg.link_bandwidth_bps as u128) as u64;
            let idx = from.index() * self.replicas.len() + to.index();
            let start = nic_done.max(self.link_free[idx]);
            let done = start + ser_ns;
            self.link_free[idx] = done;
            done
        };
        let jitter = if self.cfg.jitter_ns > 0 {
            self.rng.gen_range(0..=self.cfg.jitter_ns)
        } else {
            0
        };
        let arrive = depart + self.cfg.one_way_latency_ns + jitter + fault_delay_ns;
        for _ in 1..fault_copies {
            let event = Event::Message(msg.clone());
            self.push(arrive, Ev::Deliver { to, event });
        }
        let event = Event::Message(msg);
        self.push(arrive, Ev::Deliver { to, event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_core::{Config, ProtocolKind};
    use marlin_crypto::CostModel;

    fn lan_sim(kind: ProtocolKind) -> SimNet {
        SimNet::new(kind, Config::for_test(4, 1), SimConfig::lan())
    }

    #[test]
    fn marlin_commits_under_lan() {
        let mut sim = lan_sim(ProtocolKind::Marlin);
        sim.schedule_client_batch(ReplicaId(1), 0, 100, 150);
        sim.run_until(1_000_000_000);
        for i in 0..4u32 {
            assert!(sim.committed_txs(ReplicaId(i)) >= 100, "p{i}");
        }
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = || {
            let mut sim = lan_sim(ProtocolKind::Marlin);
            sim.schedule_client_batch(ReplicaId(1), 0, 50, 150);
            sim.schedule_client_batch(ReplicaId(1), 5_000_000, 50, 150);
            sim.run_until(500_000_000);
            (
                sim.committed_txs(ReplicaId(0)),
                sim.accounting().total(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_delays_commits() {
        // With 40ms one-way latency, a two-phase protocol needs at least
        // 4 one-way hops to commit: nothing commits before ~160ms.
        let mut cfg = SimConfig::paper_testbed();
        cfg.bandwidth_bps = 0; // isolate latency
        let mut sim = SimNet::new(ProtocolKind::Marlin, Config::for_test(4, 1), cfg);
        sim.schedule_client_batch(ReplicaId(1), 0, 10, 150);
        sim.run_until(159_000_000);
        assert_eq!(sim.committed_txs(ReplicaId(1)), 0);
        sim.run_until(2_000_000_000);
        assert!(sim.committed_txs(ReplicaId(1)) >= 10);
    }

    #[test]
    fn hotstuff_needs_more_hops_than_marlin() {
        // First commit time: three-phase HotStuff (6 one-way hops) must
        // trail two-phase Marlin (4 hops) by roughly 2 hops.
        let first_commit_ns = |kind| {
            let mut cfg = SimConfig::paper_testbed();
            cfg.bandwidth_bps = 0;
            let mut sim = SimNet::new(kind, Config::for_test(4, 1), cfg);
            sim.schedule_client_batch(ReplicaId(1), 0, 10, 150);
            sim.run_until(3_000_000_000);
            sim.notes()
                .iter()
                .find_map(|(t, _, n)| match n {
                    marlin_core::Note::Committed { txs, .. } if *txs > 0 => Some(*t),
                    _ => None,
                })
                .expect("committed")
        };
        let marlin = first_commit_ns(ProtocolKind::Marlin);
        let hotstuff = first_commit_ns(ProtocolKind::HotStuff);
        // Two sequential blocks precede the first transaction commit
        // (the empty bootstrap block, then the batch), so the expected
        // gap is 2 blocks × 1 extra phase × 2 hops × 40 ms = 160 ms.
        let delta = hotstuff.saturating_sub(marlin);
        assert!(
            (140_000_000..200_000_000).contains(&delta),
            "expected ~160ms gap, got {delta}ns (marlin={marlin}, hotstuff={hotstuff})"
        );
    }

    #[test]
    fn bandwidth_serializes_large_broadcasts() {
        // 8 Mbps NIC: broadcasting ~150-byte-tx batches to 3 peers takes
        // measurable serialization time, delaying commits relative to an
        // infinite-bandwidth run.
        let mut slow = SimConfig::lan();
        slow.bandwidth_bps = 8_000_000;
        let commit_time = |cfg: SimConfig| {
            // A view timeout larger than the serialization delay keeps
            // the slow-NIC run free of spurious view changes.
            let mut rcfg = Config::for_test(4, 1);
            rcfg.base_timeout_ns = 5_000_000_000;
            let mut sim = SimNet::new(ProtocolKind::Marlin, rcfg, cfg);
            sim.schedule_client_batch(ReplicaId(1), 0, 100, 1500);
            sim.run_until(5_000_000_000);
            assert!(sim.committed_txs(ReplicaId(0)) >= 100);
            sim.notes()
                .iter()
                .find_map(|(t, _, n)| match n {
                    marlin_core::Note::Committed { txs, .. } if *txs > 0 => Some(*t),
                    _ => None,
                })
                .unwrap()
        };
        let fast_t = commit_time(SimConfig::lan());
        let slow_t = commit_time(slow);
        assert!(
            slow_t > fast_t + 100_000,
            "bandwidth model had no effect: {fast_t} vs {slow_t}"
        );
    }

    #[test]
    fn crypto_cost_model_slows_processing() {
        let run = |cost: CostModel| {
            let mut cfg = Config::for_test(4, 1);
            cfg.cost = cost;
            let mut sim = SimNet::new(ProtocolKind::Marlin, cfg, SimConfig::lan());
            sim.schedule_client_batch(ReplicaId(1), 0, 50, 150);
            sim.run_until(3_000_000_000);
            assert!(sim.committed_txs(ReplicaId(0)) >= 50);
            sim.notes()
                .iter()
                .find_map(|(t, _, n)| match n {
                    marlin_core::Note::Committed { txs, .. } if *txs > 0 => Some(*t),
                    _ => None,
                })
                .unwrap()
        };
        assert!(run(CostModel::bls_like()) > run(CostModel::zero()));
    }

    #[test]
    fn crash_and_view_change_in_simulation() {
        let mut sim = SimNet::new(
            ProtocolKind::Marlin,
            Config::for_test(4, 1),
            SimConfig::lan(),
        );
        sim.schedule_client_batch(ReplicaId(1), 0, 20, 0);
        sim.schedule_crash(ReplicaId(1), 50_000_000);
        // Submit to the next leader after the view change.
        sim.schedule_client_batch(ReplicaId(2), 400_000_000, 20, 0);
        sim.run_until(3_000_000_000);
        for i in [0u32, 2, 3] {
            assert!(
                sim.committed_txs(ReplicaId(i)) >= 40,
                "p{i} committed {}",
                sim.committed_txs(ReplicaId(i))
            );
        }
        // A view change happened.
        assert!(sim
            .notes()
            .iter()
            .any(|(_, _, n)| matches!(n, Note::HappyPathVc { .. } | Note::UnhappyPathVc { .. })));
    }

    #[test]
    fn message_drops_are_survived() {
        let mut cfg = SimConfig::lan();
        cfg.drop_rate = 0.02;
        let mut sim = SimNet::new(ProtocolKind::Marlin, Config::for_test(4, 1), cfg);
        for k in 0..10 {
            sim.schedule_client_batch(ReplicaId(1), k * 10_000_000, 10, 0);
        }
        sim.run_until(20_000_000_000);
        assert!(sim.committed_txs(ReplicaId(0)) >= 80);
    }

    #[test]
    fn instant_profile_steps_one_input_at_a_time() {
        let cfg = Config::for_test(4, 1);
        let mut sim = SimNet::new(ProtocolKind::Marlin, cfg, SimConfig::instant());
        let checker = crate::Invariants::new(&[], u64::MAX);
        sim.set_invariant_checker(Box::new(checker.clone()));
        // The start-up block commits; no timer fires, the clock stands.
        sim.run_until_idle();
        assert_eq!((sim.now_ns(), checker.committed_len()), (0, 2));
        // An injected event lands now, and what it causes runs.
        let tx = Transaction::new(1, 0, bytes::Bytes::new(), 0);
        sim.inject(ReplicaId(1), Event::NewTransactions(vec![tx]));
        assert_eq!((sim.now_ns(), checker.committed_len()), (0, 3));
        // Heartbeats pace empty blocks; each commit re-arms (supersedes)
        // every view timer.
        for _ in 0..6 {
            assert!(sim.fire_next_timer());
        }
        assert!(checker.committed_len() > 3);
        assert!(sim
            .heap
            .iter()
            .any(|e| sim.timer_armed(&e.ev) == Some(false)));
        // Leader down: the live view timers of p0, p2 and p3 are due at
        // one instant, after the superseded ones. One fires per call.
        sim.crash(ReplicaId(1));
        let moved = |sim: &SimNet| {
            let views = (0..4).map(|i| sim.replica(ReplicaId(i)).current_view());
            views.filter(|v| *v > View(1)).count()
        };
        assert!(sim.fire_next_timer());
        let (due, one) = (sim.now_ns(), moved(&sim));
        assert!(sim.fire_next_timer());
        assert_eq!((one, sim.now_ns(), moved(&sim)), (1, due, 2));
        assert!(checker.violations().is_empty());
        (0..4).for_each(|i| sim.crash(ReplicaId(i)));
        assert!(!sim.fire_next_timer());
    }

    #[test]
    fn accounting_records_traffic() {
        let mut sim = lan_sim(ProtocolKind::Marlin);
        sim.schedule_client_batch(ReplicaId(1), 0, 10, 150);
        sim.run_until(500_000_000);
        let total = sim.accounting().total();
        assert!(total.messages > 0);
        assert!(total.bytes > 0);
        assert!(total.authenticators > 0);
        sim.reset_accounting();
        assert_eq!(sim.accounting().total().messages, 0);
    }
}
