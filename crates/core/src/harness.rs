//! An in-process cluster harness with instant message delivery and a
//! virtual clock, used by unit/integration tests and the examples.
//!
//! Unlike `marlin-simnet` (which models latency, bandwidth, and loss),
//! this harness delivers messages immediately and fires timers only when
//! the test advances the virtual clock — making protocol logic easy to
//! drive deterministically.

use crate::config::{build_replica, Config, ProtocolKind};
use crate::events::{Action, Event, Note};
use crate::util::Protocol;
use bytes::Bytes;
use marlin_telemetry::TelemetrySink;
use marlin_types::{Block, BlockId, Message, MsgClass, ReplicaId, Transaction, View};
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// A message filter: return `false` to drop the message on the link
/// from `from` to `to` (used to model partitions and Byzantine hiding).
pub type LinkFilter = Box<dyn Fn(ReplicaId, ReplicaId, &Message) -> bool>;

enum TimerKind {
    View(View),
    Heartbeat,
}

struct TimerEntry {
    at_ns: u64,
    seq: u64,
    replica: ReplicaId,
    kind: TimerKind,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at_ns == other.at_ns && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via reversal: earliest deadline first, seq tiebreak.
        (other.at_ns, other.seq).cmp(&(self.at_ns, self.seq))
    }
}

/// Constructs a boxed protocol instance of the given kind with no
/// durable state (see [`build_replica`] for the journal-backed forms).
pub fn build_protocol(kind: ProtocolKind, config: Config) -> Box<dyn Protocol> {
    build_replica(kind, config, None, false, None)
}

/// An in-process cluster of `n` replicas with instant delivery.
///
/// # Example
///
/// ```
/// use marlin_core::{harness::Cluster, Config, ProtocolKind};
///
/// let mut cluster = Cluster::new(ProtocolKind::Marlin, Config::for_test(4, 1), 7);
/// cluster.submit_transactions(50);
/// cluster.run_until_idle();
/// cluster.assert_consistent();
/// assert!(cluster.total_committed_txs(0u32.into()) >= 50);
/// ```
pub struct Cluster {
    replicas: Vec<Box<dyn Protocol>>,
    crashed: HashSet<ReplicaId>,
    inbox: VecDeque<(ReplicaId, Event)>,
    timers: BinaryHeap<TimerEntry>,
    timer_seq: u64,
    now_ns: u64,
    next_tx: u64,
    notes: Vec<(ReplicaId, Note)>,
    committed: Vec<Vec<Block>>,
    filter: Option<LinkFilter>,
    steps: u64,
    /// Latest armed view-timer seq per replica (older entries are
    /// cancelled, modeling a pacemaker's re-arm).
    live_view_timer: Vec<u64>,
    /// Latest armed heartbeat seq per replica.
    live_heartbeat: Vec<u64>,
    /// Telemetry sink: notes and message sends are forwarded here,
    /// stamped with the virtual clock.
    telemetry: Option<Box<dyn TelemetrySink>>,
}

impl Cluster {
    /// Builds and starts a cluster of `config.n` replicas running
    /// `kind`. The seed is reserved for workload generation.
    pub fn new(kind: ProtocolKind, config: Config, seed: u64) -> Self {
        Cluster::from_builder(config, seed, |_, cfg| build_protocol(kind, cfg))
    }

    /// Builds and starts a cluster from a caller-supplied per-replica
    /// constructor (e.g. journal-backed replicas on shared disks that
    /// the test holds onto for later crash/restart).
    pub fn from_builder(
        config: Config,
        _seed: u64,
        mut build: impl FnMut(ReplicaId, Config) -> Box<dyn Protocol>,
    ) -> Self {
        let n = config.n;
        let mut cluster = Cluster {
            replicas: (0..n)
                .map(|i| {
                    let id = ReplicaId(i as u32);
                    build(id, config.with_id(id))
                })
                .collect(),
            crashed: HashSet::new(),
            inbox: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            now_ns: 0,
            next_tx: 0,
            notes: Vec::new(),
            committed: vec![Vec::new(); n],
            filter: None,
            steps: 0,
            live_view_timer: vec![0; n],
            live_heartbeat: vec![0; n],
            telemetry: None,
        };
        for i in 0..n {
            cluster.step_replica(ReplicaId(i as u32), Event::Start);
        }
        cluster.drain();
        cluster
    }

    /// The virtual clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Access a replica (for state assertions).
    pub fn replica(&self, id: ReplicaId) -> &dyn Protocol {
        self.replicas[id.index()].as_ref()
    }

    /// Marks a replica as crashed: it receives no further events and
    /// sends nothing.
    pub fn crash(&mut self, id: ReplicaId) {
        self.crashed.insert(id);
    }

    /// Whether `id` has been crashed.
    pub fn is_crashed(&self, id: ReplicaId) -> bool {
        self.crashed.contains(&id)
    }

    /// Replaces a crashed replica with a rebuilt instance and delivers
    /// `Event::Start` + `Event::Recovered` — the harness analogue of
    /// the simulator's `Ev::Recover`. The replica's committed-block
    /// ledger is reset: a restarted process re-commits from scratch
    /// (or from its journal), exactly like a real node.
    pub fn restart(&mut self, id: ReplicaId, replica: Box<dyn Protocol>) {
        self.crashed.remove(&id);
        self.replicas[id.index()] = replica;
        self.committed[id.index()].clear();
        self.step_replica(id, Event::Start);
        self.step_replica(id, Event::Recovered);
        self.drain();
    }

    /// Installs a link filter (drop messages for which it returns
    /// `false`).
    pub fn set_filter(&mut self, filter: LinkFilter) {
        self.filter = Some(filter);
    }

    /// Removes the link filter.
    pub fn clear_filter(&mut self) {
        self.filter = None;
    }

    /// Submits `count` empty-payload transactions to the leader of the
    /// highest current view.
    pub fn submit_transactions(&mut self, count: usize) {
        let view = self.max_view();
        let leader = ReplicaId::leader_of(view, self.replicas.len());
        self.submit_to(leader, count, 0);
    }

    /// Submits `count` transactions with `payload_len`-byte payloads to
    /// a specific replica's mempool.
    pub fn submit_to(&mut self, id: ReplicaId, count: usize, payload_len: usize) {
        let txs: Vec<Transaction> = (0..count)
            .map(|_| {
                self.next_tx += 1;
                Transaction::new(
                    self.next_tx,
                    0,
                    Bytes::from(vec![0u8; payload_len]),
                    self.now_ns,
                )
            })
            .collect();
        self.enqueue(id, Event::NewTransactions(txs));
        self.drain();
    }

    /// Submits caller-constructed transactions (e.g. application
    /// commands) to a replica's mempool.
    pub fn inject_transactions(&mut self, to: ReplicaId, txs: Vec<Transaction>) {
        self.enqueue(to, Event::NewTransactions(txs));
        self.drain();
    }

    /// Injects an arbitrary message (for Byzantine scenarios).
    pub fn inject(&mut self, to: ReplicaId, message: Message) {
        self.enqueue(to, Event::Message(message));
        self.drain();
    }

    /// Delivers all pending messages (without firing timers).
    ///
    /// # Panics
    ///
    /// Panics if a safety-violating commit is detected or the step
    /// budget (10M) is exhausted (livelock guard).
    pub fn run_until_idle(&mut self) {
        self.drain();
    }

    /// Fires the next pending timer (advancing the clock), then delivers
    /// all resulting messages. Returns `false` if no timers are armed.
    pub fn fire_next_timer(&mut self) -> bool {
        loop {
            let Some(entry) = self.timers.pop() else {
                return false;
            };
            if self.crashed.contains(&entry.replica) {
                continue;
            }
            // Skip superseded timers: only the most recently armed timer
            // of each kind is live (re-arming cancels the previous one).
            let live = match entry.kind {
                TimerKind::View(_) => self.live_view_timer[entry.replica.index()] == entry.seq,
                TimerKind::Heartbeat => self.live_heartbeat[entry.replica.index()] == entry.seq,
            };
            if !live {
                continue;
            }
            self.now_ns = self.now_ns.max(entry.at_ns);
            let event = match entry.kind {
                TimerKind::View(view) => Event::Timeout { view },
                TimerKind::Heartbeat => Event::Heartbeat,
            };
            self.step_replica(entry.replica, event);
            self.drain();
            return true;
        }
    }

    /// Fires timers until `deadline_ns` of virtual time has passed or no
    /// timers remain.
    pub fn run_until(&mut self, deadline_ns: u64) {
        while let Some(top) = self.timers.peek() {
            if top.at_ns > deadline_ns {
                break;
            }
            self.fire_next_timer();
        }
        self.now_ns = self.now_ns.max(deadline_ns);
    }

    /// The lowest view any correct replica is in.
    pub fn min_view(&self) -> View {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.crashed.contains(&ReplicaId(*i as u32)))
            .map(|(_, r)| r.current_view())
            .min()
            .unwrap_or(View(1))
    }

    /// The highest view any correct replica is in.
    pub fn max_view(&self) -> View {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.crashed.contains(&ReplicaId(*i as u32)))
            .map(|(_, r)| r.current_view())
            .max()
            .unwrap_or(View(1))
    }

    /// Blocks committed by `id`, in commit order (excluding genesis).
    pub fn committed_blocks(&self, id: ReplicaId) -> &[Block] {
        &self.committed[id.index()]
    }

    /// Number of blocks committed by `id` (excluding genesis).
    pub fn committed_height(&self, id: ReplicaId) -> usize {
        self.committed[id.index()].len()
    }

    /// Total transactions committed by `id`.
    pub fn total_committed_txs(&self, id: ReplicaId) -> usize {
        self.committed[id.index()]
            .iter()
            .map(|b| b.payload().len())
            .sum()
    }

    /// All notes emitted so far, in order.
    pub fn notes(&self) -> &[(ReplicaId, Note)] {
        &self.notes
    }

    /// Installs a telemetry sink. Every note and every transmitted
    /// message is forwarded to it, stamped with the virtual clock.
    /// Install before driving the cluster: events emitted earlier are
    /// not replayed.
    pub fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>) {
        self.telemetry = Some(sink);
    }

    /// Removes and returns the installed telemetry sink, if any.
    pub fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>> {
        self.telemetry.take()
    }

    /// Asserts that all correct replicas' committed chains are
    /// prefix-consistent (the safety property of Theorem 1).
    ///
    /// # Panics
    ///
    /// Panics on any divergence.
    pub fn assert_consistent(&self) {
        let chains: Vec<(usize, Vec<BlockId>)> = self
            .committed
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.crashed.contains(&ReplicaId(*i as u32)))
            .map(|(i, blocks)| (i, blocks.iter().map(Block::id).collect()))
            .collect();
        for (i, a) in &chains {
            for (j, b) in &chains {
                if i >= j {
                    continue;
                }
                let len = a.len().min(b.len());
                assert_eq!(
                    &a[..len],
                    &b[..len],
                    "committed chains of p{i} and p{j} diverge"
                );
            }
        }
    }

    // ------------------------------------------------------ internal --

    fn enqueue(&mut self, to: ReplicaId, event: Event) {
        if !self.crashed.contains(&to) {
            self.inbox.push_back((to, event));
        }
    }

    fn step_replica(&mut self, id: ReplicaId, event: Event) {
        if self.crashed.contains(&id) {
            return;
        }
        let out = self.replicas[id.index()].step(event);
        self.dispatch(id, out.actions);
    }

    fn dispatch(&mut self, from: ReplicaId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, message } => {
                    debug_assert_ne!(to, from, "self-sends are resolved by step()");
                    if self.allowed(from, to, &message) {
                        self.record_sent(from, &message);
                        self.enqueue(to, Event::Message(message));
                    }
                }
                Action::Broadcast { message } => {
                    for i in 0..self.replicas.len() {
                        let to = ReplicaId(i as u32);
                        if to != from && self.allowed(from, to, &message) {
                            self.record_sent(from, &message);
                            self.enqueue(to, Event::Message(message.clone()));
                        }
                    }
                }
                Action::Commit { blocks } => {
                    self.committed[from.index()].extend(blocks);
                }
                Action::SetTimer { view, delay_ns } => {
                    self.timer_seq += 1;
                    self.live_view_timer[from.index()] = self.timer_seq;
                    self.timers.push(TimerEntry {
                        at_ns: self.now_ns + delay_ns,
                        seq: self.timer_seq,
                        replica: from,
                        kind: TimerKind::View(view),
                    });
                }
                Action::SetHeartbeat { delay_ns } => {
                    self.timer_seq += 1;
                    self.live_heartbeat[from.index()] = self.timer_seq;
                    self.timers.push(TimerEntry {
                        at_ns: self.now_ns + delay_ns,
                        seq: self.timer_seq,
                        replica: from,
                        kind: TimerKind::Heartbeat,
                    });
                }
                Action::Note(note) => {
                    if let Some(sink) = self.telemetry.as_mut() {
                        sink.note(self.now_ns, from, &note);
                    }
                    self.notes.push((from, note));
                }
            }
        }
    }

    /// Forwards one transmitted message copy to the telemetry sink.
    /// The harness models instant links, so the full (non-shadow) wire
    /// length is charged.
    fn record_sent(&mut self, from: ReplicaId, message: &Message) {
        if let Some(sink) = self.telemetry.as_mut() {
            sink.message_sent(
                self.now_ns,
                from,
                MsgClass::of(message),
                message.wire_len(false) as u64,
                message.authenticator_count() as u64,
            );
        }
    }

    fn allowed(&self, from: ReplicaId, to: ReplicaId, msg: &Message) -> bool {
        match &self.filter {
            Some(f) => f(from, to, msg),
            None => true,
        }
    }

    fn drain(&mut self) {
        while let Some((to, event)) = self.inbox.pop_front() {
            self.steps += 1;
            assert!(
                self.steps < 10_000_000,
                "cluster livelock: step budget exhausted"
            );
            self.step_replica(to, event);
        }
    }
}
