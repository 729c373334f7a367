//! The in-process twin: the same `Protocol` state machines the runtime
//! drives, stepped by one thread in one loop. Every `Send`/`Broadcast`
//! goes through `encode_message` and every delivery through
//! `decode_message`, as on the wire, but there are no sockets, no
//! channels and no other threads, and delivery takes no time. What the
//! TCP workloads measure beyond this is the `runtime` layer.
//!
//! The driver also owns the traced run: with spans on, it records one
//! span around every encode, decode and step, nested under the
//! delivery that caused them and linked to the span that produced the
//! frame.

use crate::sut::{CommitLog, Sut};
use bytes::Bytes;
use marlin_core::harness::build_protocol;
use marlin_core::{Action, Config, Event, Note, Protocol, ProtocolKind};
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::{BlockId, Message, MsgBody, MsgClass, ReplicaId, Transaction, View};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// What a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One delivery: take a frame off the queue, decode it, step the
    /// replica, encode what it sends. Parent of the spans below.
    Deliver,
    /// One local submission (no frame, no decode).
    Submit,
    /// One timer firing.
    Timer,
    Decode(MsgClass),
    Encode(MsgClass),
    StepMessage(MsgClass),
    StepNewTxs,
    StepTimer,
}

/// No span (a root's parent, a local event's cause).
pub const NO_SPAN: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    /// Enclosing span, or [`NO_SPAN`].
    pub parent: u32,
    /// The span that produced the frame this work consumed (an
    /// `Encode`), or [`NO_SPAN`] for local events.
    pub cause: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Block height the message is about: the identifier the spans of
    /// one block share.
    pub height: u64,
    pub replica: u32,
}

/// Per-class traffic totals, counted per destination as the runtime's
/// telemetry does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCount {
    pub msgs: u64,
    pub wire_bytes: u64,
    pub authenticators: u64,
}

/// Exact counts: these repeat from run to run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub sent: BTreeMap<MsgClass, ClassCount>,
    pub view_changes: u64,
}

impl Counts {
    /// The traffic counted since `earlier`, a previous copy of `self`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let sent = self
            .sent
            .iter()
            .map(|(class, now)| {
                let then = earlier.sent.get(class).copied().unwrap_or_default();
                (
                    *class,
                    ClassCount {
                        msgs: now.msgs - then.msgs,
                        wire_bytes: now.wire_bytes - then.wire_bytes,
                        authenticators: now.authenticators - then.authenticators,
                    },
                )
            })
            .filter(|(_, c)| *c != ClassCount::default())
            .collect();
        Counts {
            sent,
            view_changes: self.view_changes - earlier.view_changes,
        }
    }

    pub fn msgs(&self) -> u64 {
        self.sent.values().map(|c| c.msgs).sum()
    }
    pub fn wire_bytes(&self) -> u64 {
        self.sent.values().map(|c| c.wire_bytes).sum()
    }
    pub fn authenticators(&self) -> u64 {
        self.sent.values().map(|c| c.authenticators).sum()
    }
}

struct Frame {
    to: usize,
    bytes: Bytes,
    cause: u32,
    height: u64,
}

/// The block height a message is about, for span correlation.
fn height_of(msg: &Message) -> u64 {
    match &msg.body {
        MsgBody::Proposal(p) => match p.blocks.first() {
            Some(b) => b.height().0,
            None => p.justify.qc().map_or(0, |qc| qc.seed().height.0),
        },
        MsgBody::Vote(v) => v.seed.height.0,
        MsgBody::Decide(d) => d.commit_qc.seed().height.0,
        _ => 0,
    }
}

pub struct Inproc {
    replicas: Vec<Option<Box<dyn Protocol>>>,
    inbox: VecDeque<Frame>,
    view_timer: Vec<Option<(u64, View)>>,
    heartbeat: Vec<Option<u64>>,
    epoch: Instant,
    log: CommitLog,
    /// Commit sequence of every replica, to assert they are identical.
    chains: Vec<Vec<BlockId>>,
    next_id: u64,
    /// Seeded payloads, handed out round-robin (an `Arc` clone each).
    payloads: Vec<Bytes>,
    commits_seen: usize,
    pub counts: Counts,
    spans: Option<Vec<Span>>,
    /// First frame of each class seen once the chain is past its first
    /// blocks: real inputs for the codec timings.
    samples: Option<BTreeMap<MsgClass, Bytes>>,
}

impl Inproc {
    /// Builds and starts `cfg.n` replicas of `kind`. `payloads` must not
    /// be empty; `id_capacity` bounds the transaction ids the run will
    /// issue.
    pub fn launch(
        kind: ProtocolKind,
        cfg: &Config,
        payloads: Vec<Bytes>,
        id_capacity: usize,
    ) -> Self {
        assert!(!payloads.is_empty(), "need at least one payload");
        let n = cfg.n;
        let mut me = Inproc {
            replicas: (0..n)
                .map(|i| Some(build_protocol(kind, cfg.with_id(ReplicaId(i as u32)))))
                .collect(),
            inbox: VecDeque::new(),
            view_timer: vec![None; n],
            heartbeat: vec![None; n],
            epoch: Instant::now(),
            log: CommitLog::new(id_capacity),
            chains: vec![Vec::new(); n],
            next_id: 0,
            payloads,
            commits_seen: 0,
            counts: Counts::default(),
            spans: None,
            samples: None,
        };
        for i in 0..n {
            me.step(i, Event::Start, SpanKind::StepTimer, NO_SPAN, NO_SPAN, 0);
        }
        me.settle();
        me
    }

    /// Turns span recording on (from here on).
    pub fn trace(&mut self) {
        self.spans = Some(Vec::new());
    }

    /// Turns frame sampling on (from here on).
    pub fn sample_frames(&mut self) {
        self.samples = Some(BTreeMap::new());
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take().unwrap_or_default()
    }

    pub fn take_samples(&mut self) -> BTreeMap<MsgClass, Bytes> {
        self.samples.take().unwrap_or_default()
    }

    /// Opens a span when tracing; [`NO_SPAN`] (and no clock read) when not.
    fn open(
        &mut self,
        kind: SpanKind,
        parent: u32,
        cause: u32,
        height: u64,
        replica: usize,
    ) -> u32 {
        let Some(spans) = &mut self.spans else {
            return NO_SPAN;
        };
        let now = self.epoch.elapsed().as_nanos() as u64;
        spans.push(Span {
            kind,
            parent,
            cause,
            start_ns: now,
            end_ns: now,
            height,
            replica: replica as u32,
        });
        (spans.len() - 1) as u32
    }

    /// Ends span `id` now; [`NO_SPAN`] is ignored.
    fn close(&mut self, id: u32) {
        if let Some(span) = self.spans.as_mut().and_then(|s| s.get_mut(id as usize)) {
            span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Steps replica `i` and applies its actions. `parent`/`cause` are
    /// the enclosing and causing spans when tracing.
    fn step(
        &mut self,
        i: usize,
        event: Event,
        kind: SpanKind,
        parent: u32,
        cause: u32,
        height: u64,
    ) {
        if self.replicas[i].is_none() {
            return;
        }
        let span = self.open(kind, parent, cause, height, i);
        let out = self.replicas[i]
            .as_mut()
            .expect("checked alive")
            .step(event);
        self.close(span);
        let n = self.replicas.len();
        for action in out.actions {
            match action {
                Action::Send { to, message } => {
                    self.enqueue(i, &message, to.index()..to.index() + 1, parent);
                }
                Action::Broadcast { message } => {
                    // `step` already applied the broadcast locally:
                    // encode once, fan out to everyone else.
                    self.enqueue(i, &message, 0..n, parent);
                }
                Action::Commit { blocks } => {
                    let now = self.now_ns();
                    for b in &blocks {
                        self.chains[i].push(b.id());
                        if i == 0 {
                            self.log
                                .record_block(now, b.payload().iter().map(|tx| tx.id));
                        }
                    }
                }
                Action::SetTimer { view, delay_ns } => {
                    self.view_timer[i] = Some((self.now_ns() + delay_ns, view));
                }
                Action::SetHeartbeat { delay_ns } => {
                    self.heartbeat[i] = Some(self.now_ns() + delay_ns);
                }
                Action::Note(Note::ViewChangeStarted { .. }) => self.counts.view_changes += 1,
                Action::Note(_) => {}
            }
        }
    }

    /// Encodes `message` once and queues it for every live replica in
    /// `to` other than the sender.
    fn enqueue(&mut self, from: usize, message: &Message, to: std::ops::Range<usize>, parent: u32) {
        let class = MsgClass::of(message);
        let height = if self.spans.is_some() {
            height_of(message)
        } else {
            0
        };
        let span = self.open(SpanKind::Encode(class), parent, NO_SPAN, height, from);
        let bytes = encode_message(message, true);
        self.close(span);
        if let Some(samples) = &mut self.samples {
            if self.chains[0].len() >= 8 {
                samples.entry(class).or_insert_with(|| bytes.clone());
            }
        }
        let authenticators = message.authenticator_count() as u64;
        for dest in to {
            if dest == from {
                continue;
            }
            // Counted per destination whether or not it is alive, as the
            // runtime's telemetry counts a frame handed to the transport.
            let c = self.counts.sent.entry(class).or_default();
            c.msgs += 1;
            c.wire_bytes += bytes.len() as u64;
            c.authenticators += authenticators;
            if self.replicas[dest].is_some() {
                self.inbox.push_back(Frame {
                    to: dest,
                    bytes: bytes.clone(),
                    cause: span,
                    height,
                });
            }
        }
    }

    fn deliver(&mut self, frame: Frame) {
        if self.replicas[frame.to].is_none() {
            return;
        }
        let outer = self.open(
            SpanKind::Deliver,
            NO_SPAN,
            frame.cause,
            frame.height,
            frame.to,
        );
        // The class is only known once the frame is decoded; the span
        // is opened under a stand-in and relabelled.
        let decode = self.open(
            SpanKind::Decode(MsgClass::Fetch),
            outer,
            frame.cause,
            frame.height,
            frame.to,
        );
        let msg = decode_message(&frame.bytes).expect("own frame decodes");
        self.close(decode);
        let class = MsgClass::of(&msg);
        if let Some(span) = self.spans.as_mut().and_then(|s| s.get_mut(decode as usize)) {
            span.kind = SpanKind::Decode(class);
        }
        self.step(
            frame.to,
            Event::Message(msg),
            SpanKind::StepMessage(class),
            outer,
            frame.cause,
            frame.height,
        );
        self.close(outer);
    }

    /// Fires the earliest due timer, if any. Returns whether one fired.
    fn fire_due_timer(&mut self) -> bool {
        let now = self.now_ns();
        for i in 0..self.replicas.len() {
            if let Some((at, view)) = self.view_timer[i] {
                if at <= now {
                    self.view_timer[i] = None;
                    self.timer_step(i, Event::Timeout { view });
                    return true;
                }
            }
            if let Some(at) = self.heartbeat[i] {
                if at <= now {
                    self.heartbeat[i] = None;
                    self.timer_step(i, Event::Heartbeat);
                    return true;
                }
            }
        }
        false
    }

    fn timer_step(&mut self, i: usize, event: Event) {
        let outer = self.open(SpanKind::Timer, NO_SPAN, NO_SPAN, 0, i);
        self.step(i, event, SpanKind::StepTimer, outer, NO_SPAN, 0);
        self.close(outer);
    }

    fn next_timer_ns(&self) -> Option<u64> {
        let views = self.view_timer.iter().flatten().map(|t| t.0);
        let beats = self.heartbeat.iter().flatten().copied();
        views.chain(beats).min()
    }

    /// Delivers queued frames until none are left.
    pub fn settle(&mut self) {
        while let Some(frame) = self.inbox.pop_front() {
            self.deliver(frame);
        }
    }

    fn leader(&self) -> usize {
        let leader = ReplicaId::leader_of(View(self.max_view()), self.replicas.len()).index();
        if self.replicas[leader].is_some() {
            leader
        } else {
            // As `RuntimeCluster::submit`: fall back to the first live
            // replica while the leader is down.
            self.replicas
                .iter()
                .position(Option::is_some)
                .expect("a live replica")
        }
    }

    /// Blocks committed at replica 0.
    pub fn committed_blocks(&self) -> usize {
        self.chains[0].len()
    }

    /// Checks that every live replica committed the same sequence (a
    /// replica may trail by the blocks still in flight).
    pub fn check_chains(&self) -> Result<usize, String> {
        let reference = &self.chains[0];
        for (i, chain) in self.chains.iter().enumerate().skip(1) {
            let common = chain.len().min(reference.len());
            if chain[..common] != reference[..common] {
                return Err(format!(
                    "replica {i} committed a different sequence than replica 0"
                ));
            }
        }
        Ok(self.chains.iter().map(Vec::len).min().unwrap_or(0))
    }

    /// Whether every live replica has committed as much as replica 0.
    pub fn chains_level(&self) -> bool {
        (0..self.replicas.len())
            .filter(|&i| self.replicas[i].is_some())
            .all(|i| self.chains[i].len() == self.chains[0].len())
    }
}

impl Sut for Inproc {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn submit(&mut self, count: usize) -> u64 {
        let first = self.next_id;
        let now = self.now_ns();
        let pool = self.payloads.len() as u64;
        let txs: Vec<Transaction> = (first..first + count as u64)
            .map(|id| {
                let payload = self.payloads[(id % pool) as usize].clone();
                Transaction::new(id, Transaction::LOCAL_CLIENT, payload, now)
            })
            .collect();
        self.next_id += count as u64;
        let leader = self.leader();
        let outer = self.open(SpanKind::Submit, NO_SPAN, NO_SPAN, 0, leader);
        self.step(
            leader,
            Event::NewTransactions(txs),
            SpanKind::StepNewTxs,
            outer,
            NO_SPAN,
            0,
        );
        self.close(outer);
        first
    }

    fn wait_until(&mut self, until_ns: u64) {
        loop {
            if self.chains[0].len() != self.commits_seen {
                self.commits_seen = self.chains[0].len();
                return;
            }
            if let Some(frame) = self.inbox.pop_front() {
                self.deliver(frame);
                continue;
            }
            if self.fire_due_timer() {
                continue;
            }
            let now = self.now_ns();
            if now >= until_ns {
                return;
            }
            // Idle: nothing queued, no timer due. Sleep most of the way
            // to the next thing and spin the rest, so a due instant is
            // met within microseconds without burning the whole gap.
            let next = self.next_timer_ns().map_or(until_ns, |t| t.min(until_ns));
            let idle = next.saturating_sub(now);
            if idle > 300_000 {
                std::thread::sleep(Duration::from_nanos(idle - 200_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn log(&self) -> &CommitLog {
        &self.log
    }

    fn max_view(&self) -> u64 {
        self.replicas
            .iter()
            .flatten()
            .map(|r| r.current_view().0)
            .max()
            .unwrap_or(0)
    }

    fn kill_leader(&mut self) -> Option<usize> {
        let leader = self.leader();
        if leader == 0 {
            return None;
        }
        self.replicas[leader] = None;
        self.view_timer[leader] = None;
        self.heartbeat[leader] = None;
        self.inbox.retain(|f| f.to != leader);
        Some(leader)
    }

    fn transport_errors(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive;

    fn launch(kind: ProtocolKind, timeout_ms: u64) -> Inproc {
        let mut cfg = Config::for_test(4, 1);
        cfg.batch_size = 50;
        cfg.base_timeout_ns = timeout_ms * 1_000_000;
        let payloads = vec![Bytes::from_static(b"0123456789")];
        Inproc::launch(kind, &cfg, payloads, 20_000)
    }

    /// Traffic and blocks of a closed loop between two quiescent points.
    fn closed_pass(kind: ProtocolKind) -> (Counts, usize) {
        let mut sut = launch(kind, 10_000);
        drive::closed_loop(&mut sut, 1_000, 100, 50).unwrap();
        sut.settle();
        let before = sut.counts.clone();
        let blocks0 = sut.committed_blocks();
        drive::closed_loop(&mut sut, 5_000, 100, 50).unwrap();
        sut.settle();
        assert!(sut.chains_level());
        sut.check_chains().unwrap();
        assert_eq!(sut.log().violations(), 0);
        assert_eq!(sut.log().committed_txs(), 6_000);
        (sut.counts.since(&before), sut.committed_blocks() - blocks0)
    }

    #[test]
    fn counts_repeat_exactly_and_marlin_sends_fewer_messages_than_hotstuff() {
        let (marlin, blocks) = closed_pass(ProtocolKind::Marlin);
        assert_eq!(closed_pass(ProtocolKind::Marlin), (marlin.clone(), blocks));
        // Two phases at n=4: proposal, votes, proposal, votes, decide.
        assert_eq!(marlin.msgs(), 15 * blocks as u64);
        let (hotstuff, hs_blocks) = closed_pass(ProtocolKind::HotStuff);
        assert_eq!(hotstuff.msgs(), 21 * hs_blocks as u64);
    }

    #[test]
    fn commits_resume_after_the_leader_is_killed() {
        let mut sut = launch(ProtocolKind::Marlin, 20);
        drive::closed_loop(&mut sut, 500, 100, 50).unwrap();
        let view0 = sut.max_view();
        assert_eq!(sut.kill_leader(), Some(1));
        // Submitted while no leader is alive: stranded on replica 0.
        let stranded = sut.submit(50);
        let deadline = sut.now_ns() + 2_000_000_000;
        while sut.max_view() == view0 && sut.now_ns() < deadline {
            let now = sut.now_ns();
            sut.wait_until(now + 1_000_000);
        }
        assert!(sut.max_view() > view0, "no view change within 2 s");
        assert!(sut.counts.view_changes >= 1);
        let first = sut.submit(50);
        while sut.log().commit_ns(first + 49).is_none() && sut.now_ns() < deadline {
            let now = sut.now_ns();
            sut.wait_until(now + 1_000_000);
        }
        assert!(
            sut.log().commit_ns(first + 49).is_some(),
            "the new leader commits"
        );
        assert!(
            sut.log().commit_ns(stranded).is_none(),
            "a follower never proposes what it was given"
        );
        sut.check_chains().unwrap();
    }
}
