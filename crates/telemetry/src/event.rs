//! The structured consensus-event vocabulary and telemetry sinks.
//!
//! [`Note`] is the trace-event vocabulary the protocol state machines
//! emit (re-exported by `marlin-core` as `marlin_core::Note`); the
//! machines are sans-io and clockless, so notes carry no timestamps. A
//! driver (the simulator, the threaded runtime) reports each note — and
//! each send, lane charge, cache report and commit it observes — as one
//! [`Telemetry`] event stamped with its clock, in one
//! [`TelemetrySink::record`] call. Two sinks ship here: [`Trace`] (an
//! ordered event log, input to the timeline decomposition) and
//! [`RegistryRecorder`] (folds every event into registry metrics).

use crate::registry::{Counter, HistogramHandle, Registry};
use marlin_types::{BatchId, Block, BlockId, Height, MsgClass, Phase, Qc, QcSeed, ReplicaId, View};
use std::collections::HashMap;

/// Which leader case of the Marlin view-change pre-prepare phase ran
/// (Section V-C of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VcCase {
    /// Case V1: a `prepareQC` plus a higher-ranked reported block — the
    /// leader proposes a normal and a virtual shadow block.
    V1,
    /// Case V2: the leader is certain its snapshot is safe — one block.
    V2,
    /// Case V3: two `pre-prepareQC`s of equal rank — two shadow blocks.
    V3,
}

impl VcCase {
    /// Stable label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            VcCase::V1 => "V1",
            VcCase::V2 => "V2",
            VcCase::V3 => "V3",
        }
    }
}

/// Structured trace events for observability; they carry no protocol
/// meaning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Note {
    /// The replica entered a view.
    EnteredView {
        /// The new view.
        view: View,
        /// Whether this replica leads it.
        leader: bool,
    },
    /// The replica timed out and started a view change.
    ViewChangeStarted {
        /// The view being abandoned.
        from_view: View,
    },
    /// The new leader took the happy path: view change in two phases.
    HappyPathVc {
        /// The new view.
        view: View,
    },
    /// The new leader ran the pre-prepare phase (three-phase view
    /// change) under the given case.
    UnhappyPathVc {
        /// The new view.
        view: View,
        /// Which leader case applied.
        case: VcCase,
    },
    /// A leader broadcast a proposal.
    Proposed {
        /// View of the proposal.
        view: View,
        /// Height of the (first) proposed block.
        height: Height,
        /// The phase the proposal drives.
        phase: Phase,
    },
    /// A leader accepted the first valid vote share toward a QC seed.
    /// Paired with the matching [`Note::QcFormed`], this measures the
    /// vote-collection time of each phase.
    FirstVote {
        /// View of the vote.
        view: View,
        /// Height of the voted block.
        height: Height,
        /// Voted phase.
        phase: Phase,
    },
    /// A quorum certificate was formed by the leader.
    QcFormed {
        /// Certified phase.
        phase: Phase,
        /// View of formation.
        view: View,
        /// Height of the certified block.
        height: Height,
    },
    /// Blocks were committed.
    Committed {
        /// Height of the newest committed block.
        height: Height,
        /// Number of transactions across the newly committed blocks.
        txs: usize,
    },
    /// A `commitQC` certified a block that conflicts with a block this
    /// replica already committed. Locally observable evidence of a
    /// safety failure somewhere in the system (e.g. replicas re-voting
    /// after amnesiac restarts); the replica keeps its original chain.
    CommitConflict {
        /// The conflicting certified block.
        block: BlockId,
    },
    /// The replica abstained from a vote because the write-ahead append
    /// to its safety journal failed (e.g. a torn write at crash time).
    VoteWithheld {
        /// The phase of the withheld vote.
        phase: Phase,
    },
    /// The safety journal performed write-ahead appends during this
    /// step (aggregated per step; `cost_ns` is the modeled append +
    /// sync latency under the journal's I/O cost model).
    JournalWrite {
        /// Records appended (no-op folds are skipped and not counted).
        appends: u64,
        /// Payload bytes written, including framing.
        bytes: u64,
        /// Modeled append + sync latency, in nanoseconds.
        cost_ns: u64,
    },
    /// A recovering replica broadcast a `CATCH-UP` request.
    CatchUpRequested {
        /// The requester's view at broadcast time.
        view: View,
    },
    /// A replica answered a peer's `CATCH-UP` request.
    CatchUpServed {
        /// The responder's current view (the attestation it serves).
        view: View,
        /// Whether the response carried a commit certificate newer than
        /// the requester's chain tip.
        newer: bool,
    },
    /// A recovering replica processed the first response to its
    /// `CATCH-UP` request — one full round trip. Paired with the
    /// matching [`Note::CatchUpRequested`], this measures recovery
    /// round-trip time.
    CatchUpCompleted {
        /// The requester's view when the response arrived.
        view: View,
    },
    /// A lagging replica started a ranged block-sync run toward a
    /// certified target tip. Paired with the matching
    /// [`Note::SyncCompleted`], this measures rejoin latency.
    SyncStarted {
        /// The replica's committed height when the run started.
        from: Height,
        /// The certified target height it is syncing toward.
        target: Height,
    },
    /// A sync run verified a peer's snapshot anchor against its commit
    /// QC and re-rooted the committed chain there.
    SyncSnapshotInstalled {
        /// The anchor's height.
        height: Height,
        /// The anchor block, now the committed tip.
        block: BlockId,
        /// Wire bytes of the transferred snapshot anchor.
        bytes: usize,
    },
    /// A sync run accepted one verified range of fetched blocks.
    SyncRangeFetched {
        /// First height of the accepted range.
        from: Height,
        /// Number of blocks in the accepted range.
        count: usize,
    },
    /// A sync peer was demoted (deadline miss, short or corrupt range,
    /// bad QC); its outstanding ranges are re-requested elsewhere.
    SyncPeerDemoted {
        /// The demoted peer.
        peer: ReplicaId,
    },
    /// A sync run reached its certified target: the replica rejoined
    /// the committed tip.
    SyncCompleted {
        /// The committed height at completion.
        height: Height,
    },
    /// A sync run gave up: every peer answered one of its chunks short
    /// (all had pruned it). The next commit certificate starts a fresh
    /// run, with a fresh snapshot decision.
    SyncAbandoned {
        /// First height of the chunk no peer could serve.
        from: Height,
    },
    /// Admission outcome of one `NewTransactions` delivery (aggregated
    /// per event, not per transaction).
    MempoolAdmission {
        /// Transactions admitted into the pool.
        admitted: usize,
        /// Rejected as duplicates (resident or below the client's
        /// sequence watermark).
        duplicates: usize,
        /// Rejected with the transient pool-full backpressure signal.
        rejected: usize,
        /// Of the admitted, how many entered the priority lane.
        priority: usize,
    },
    /// A replica sealed a mempool batch and pushed it to its peers
    /// ahead of any proposal (digest-addressed pre-dissemination).
    /// Paired with the matching [`Note::PayloadQuorum`], this measures
    /// dissemination round-trip time.
    PayloadPushed {
        /// The sealed batch's digest.
        batch: BatchId,
        /// Transactions in the batch.
        txs: usize,
        /// Wire bytes of the batch payload.
        bytes: usize,
    },
    /// A pushed batch collected `n − f` acks (self included): a quorum
    /// can now resolve the digest, so it is safe to propose.
    PayloadQuorum {
        /// The acked batch's digest.
        batch: BatchId,
    },
    /// A replica resolved a digest it was missing via the
    /// fetch-by-digest fallback (request → response → stored).
    PayloadFetched {
        /// The fetched batch's digest.
        batch: BatchId,
    },
    /// A sealed batch was abandoned after retransmissions without
    /// reaching its availability quorum; its transactions were
    /// requeued for the inline-proposal path. A nonzero rate means
    /// pushes or acks are being lost to more than `f` peers.
    PayloadExpired {
        /// The abandoned batch's digest.
        batch: BatchId,
        /// Transactions returned to the mempool.
        txs: usize,
    },
    /// The replica sent a vote to another replica (a leader's vote for
    /// its own proposal never leaves it and is not noted).
    Voted {
        /// View of the vote.
        view: View,
        /// Voted phase.
        phase: Phase,
        /// Height of the voted block.
        height: Height,
        /// The voted block.
        block: BlockId,
    },
    /// The replica raised its lock.
    Locked {
        /// The new lock.
        lock: Lock,
    },
    /// The replica restarted after a crash, in `view` holding `lock`.
    Recovered {
        /// The view it resumes in.
        view: View,
        /// The lock it resumes with.
        lock: Option<Lock>,
    },
}

impl Note {
    /// The [`Note::Voted`] for a vote on `seed`.
    pub fn voted(seed: &QcSeed) -> Note {
        Note::Voted {
            view: seed.view,
            phase: seed.phase,
            height: seed.height,
            block: seed.block,
        }
    }
}

/// A lock as notes report it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lock {
    /// The certificate's view.
    pub view: View,
    /// The locked block's height.
    pub height: Height,
    /// The locked block.
    pub block: BlockId,
}

impl Lock {
    /// The lock `qc` sets.
    pub fn of(qc: &Qc) -> Self {
        Lock {
            view: qc.view(),
            height: qc.height(),
            block: qc.block(),
        }
    }
}

/// Stable lower-case label for a phase.
pub fn phase_label(phase: Phase) -> &'static str {
    match phase {
        Phase::PrePrepare => "pre-prepare",
        Phase::Prepare => "prepare",
        Phase::PreCommit => "pre-commit",
        Phase::Commit => "commit",
    }
}

/// One observation a driver makes, borrowed for the duration of the
/// [`TelemetrySink::record`] call that reports it.
#[derive(Clone, Copy, Debug)]
pub enum Telemetry<'a> {
    /// A protocol trace note.
    Note(&'a Note),
    /// One message handed to the transport (counted per destination
    /// copy, after filters, before loss).
    Sent {
        /// The message's class.
        class: MsgClass,
        /// Its wire bytes.
        bytes: u64,
        /// The authenticators it carries.
        authenticators: u64,
    },
    /// Per-lane CPU charges of one replica step, stamped like the
    /// step's notes: `crypto_ns` ran on the crypto worker lanes,
    /// `journal_ns` on the journal/IO lane, `consensus_ns` on the
    /// consensus lane.
    Charged {
        /// Crypto worker lanes.
        crypto_ns: u64,
        /// Journal/IO lane.
        journal_ns: u64,
        /// Consensus lane.
        consensus_ns: u64,
    },
    /// Periodic crypto-cache health report: cumulative seed-memo
    /// hits/misses since replica start and the current verified-QC
    /// cache size (after the driver's bounded trim).
    CryptoCache {
        /// Seed-memo hits so far.
        seed_hits: u64,
        /// Seed-memo misses so far.
        seed_misses: u64,
        /// Verified-QC cache entries now.
        verified_qcs: u64,
    },
    /// Blocks the replica committed, in commit order.
    Committed(&'a [Block]),
}

/// A consumer of driver-timestamped observations.
///
/// A driver reports everything it observes — protocol notes, message
/// sends, lane charges, cache health, commits — through one call,
/// stamped with its clock and the replica concerned. Its own counters
/// (the simulator's notes and commit counts, say) consume the same
/// event at the same call site, so they cannot disagree with a sink.
pub trait TelemetrySink {
    /// One observation at `at_ns` by or about `replica`.
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>);

    /// Shorthand for recording a [`Telemetry::Note`].
    fn note(&mut self, at_ns: u64, replica: ReplicaId, note: &Note) {
        self.record(at_ns, replica, Telemetry::Note(note));
    }

    /// One whole step of `replica`, its records in order (the `Charged`
    /// that opens it first). A sink that shares itself takes its lock
    /// once here, so no other replica's record lands inside the step.
    fn record_step(&mut self, at_ns: u64, replica: ReplicaId, events: &[Telemetry<'_>]) {
        for &event in events {
            self.record(at_ns, replica, event);
        }
    }
}

/// No observer: every event is dropped.
impl TelemetrySink for () {
    fn record(&mut self, _at_ns: u64, _replica: ReplicaId, _event: Telemetry<'_>) {}
}

/// Fan-out: a pair of sinks both receive every event.
impl<A: TelemetrySink, B: TelemetrySink> TelemetrySink for (A, B) {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        self.0.record(at_ns, replica, event);
        self.1.record(at_ns, replica, event);
    }

    fn record_step(&mut self, at_ns: u64, replica: ReplicaId, events: &[Telemetry<'_>]) {
        self.0.record_step(at_ns, replica, events);
        self.1.record_step(at_ns, replica, events);
    }
}

/// Forwarding through a boxed sink, so an owned `Box<dyn TelemetrySink>`
/// composes into tuple fan-outs.
impl<S: TelemetrySink + ?Sized> TelemetrySink for Box<S> {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        (**self).record(at_ns, replica, event);
    }

    fn record_step(&mut self, at_ns: u64, replica: ReplicaId, events: &[Telemetry<'_>]) {
        (**self).record_step(at_ns, replica, events);
    }
}

/// One timestamped note in a [`Trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Driver timestamp.
    pub at_ns: u64,
    /// Emitting replica.
    pub replica: ReplicaId,
    /// The note.
    pub note: Note,
}

/// One per-step lane-charge record in a [`Trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChargeEvent {
    /// Time the step began executing.
    pub at_ns: u64,
    /// The charged replica.
    pub replica: ReplicaId,
    /// Nanoseconds charged to the crypto worker lanes.
    pub crypto_ns: u64,
    /// Nanoseconds charged to the journal/IO lane.
    pub journal_ns: u64,
    /// Nanoseconds charged to the consensus lane.
    pub consensus_ns: u64,
}

/// A sink that records every note in order — the input to
/// [`crate::timeline::Decomposition`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in arrival (driver-time) order.
    pub events: Vec<TraceEvent>,
    /// Per-step lane charges in arrival order (only steps that charged
    /// a nonzero amount are recorded).
    pub charges: Vec<ChargeEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TelemetrySink for Trace {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        match event {
            Telemetry::Note(note) => self.events.push(TraceEvent {
                at_ns,
                replica,
                note: note.clone(),
            }),
            Telemetry::Charged {
                crypto_ns,
                journal_ns,
                consensus_ns,
            } if crypto_ns | journal_ns | consensus_ns != 0 => self.charges.push(ChargeEvent {
                at_ns,
                replica,
                crypto_ns,
                journal_ns,
                consensus_ns,
            }),
            _ => {}
        }
    }
}

/// The one way to share a sink: drivers and observers each hold a
/// clone, a driver feeds a whole step under one lock, an observer reads
/// the wrapped sink with [`SharedSink::with`].
#[derive(Debug, Default)]
pub struct SharedSink<S>(std::sync::Arc<std::sync::Mutex<S>>);

impl<S> SharedSink<S> {
    /// Wraps `sink` for sharing.
    pub fn new(sink: S) -> Self {
        SharedSink(std::sync::Arc::new(std::sync::Mutex::new(sink)))
    }

    /// Runs `f` with the wrapped sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().expect("sink lock"))
    }

    /// The wrapped sink, once every other clone is dropped.
    pub fn into_inner(self) -> Option<S> {
        let mutex = std::sync::Arc::into_inner(self.0)?;
        Some(mutex.into_inner().expect("sink lock"))
    }
}

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(std::sync::Arc::clone(&self.0))
    }
}

impl<S: TelemetrySink> TelemetrySink for SharedSink<S> {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        self.with(|sink| sink.record(at_ns, replica, event));
    }

    fn record_step(&mut self, at_ns: u64, replica: ReplicaId, events: &[Telemetry<'_>]) {
        self.with(|sink| sink.record_step(at_ns, replica, events));
    }
}

/// A sink that folds every event into [`Registry`] metrics.
///
/// The [`Note`] match is exhaustive **without a wildcard arm**, so
/// adding a `Note` variant without deciding its metric mapping is a
/// compile error, not a silently dropped event. The mapping (all names
/// prefixed `consensus_`, network series `net_`):
///
/// | note | metric |
/// |---|---|
/// | `EnteredView` | `consensus_views_entered_total{role}` |
/// | `ViewChangeStarted` | `consensus_view_changes_started_total` |
/// | `HappyPathVc` | `consensus_view_change_path_total{path="happy"}` |
/// | `UnhappyPathVc` | `consensus_view_change_path_total{path="unhappy", case}` |
/// | `Proposed` | `consensus_proposals_total{phase}` |
/// | `FirstVote` | `consensus_first_votes_total{phase}` |
/// | `QcFormed` | `consensus_qcs_formed_total{phase}` + `consensus_vote_to_qc_ns{phase}` |
/// | `Committed` | `consensus_committed_txs_total{replica}` |
/// | `CommitConflict` | `consensus_commit_conflicts_total` |
/// | `VoteWithheld` | `consensus_votes_withheld_total{phase}` |
/// | `JournalWrite` | `consensus_journal_{appends,bytes}_total` + `consensus_journal_write_ns` |
/// | `CatchUpRequested` | `consensus_catch_up_requests_total` |
/// | `CatchUpServed` | `consensus_catch_up_served_total{newer}` |
/// | `CatchUpCompleted` | `consensus_catch_up_completed_total` + `consensus_catch_up_rtt_ns` |
/// | `SyncStarted` | `consensus_sync_started_total` |
/// | `SyncSnapshotInstalled` | `consensus_sync_snapshots_installed_total` + `consensus_sync_snapshot_bytes_total` |
/// | `SyncRangeFetched` | `consensus_sync_ranges_fetched_total` + `consensus_sync_blocks_fetched_total` |
/// | `SyncPeerDemoted` | `consensus_sync_peer_demotions_total{peer}` |
/// | `SyncCompleted` | `consensus_sync_completed_total` + `consensus_sync_rejoin_ns` |
/// | `SyncAbandoned` | `consensus_sync_abandoned_total` |
/// | `MempoolAdmission` | `consensus_mempool_{admitted,duplicates,rejected,priority}_total` |
/// | `PayloadPushed` | `consensus_payload_pushed_total` + `consensus_payload_push_bytes_total` |
/// | `PayloadQuorum` | `consensus_payload_quorum_total` + `consensus_payload_quorum_ns` |
/// | `PayloadFetched` | `consensus_payload_fetches_total` |
/// | `PayloadExpired` | `consensus_payload_expired_total` + `consensus_payload_expired_txs_total` |
/// | `Voted` | `consensus_votes_sent_total{phase}` |
/// | `Locked` | `consensus_locks_raised_total` |
/// | `Recovered` | `consensus_recoveries_total` |
/// | `Telemetry::Sent` | `net_{messages,bytes,authenticators}_total{class}` |
/// | `Telemetry::Charged` | `consensus_cpu_ns_total{lane="crypto"\|"journal"\|"consensus"}` |
/// | `Telemetry::CryptoCache` | `crypto_seed_memo_{hits,misses}_total` + `crypto_verified_qc_cache_entries` (gauge) |
/// | `Telemetry::Committed` | nothing: `Note::Committed` carries the count |
#[derive(Clone, Debug)]
pub struct RegistryRecorder {
    registry: Registry,
    /// First-vote times awaiting their QC, keyed by collector identity.
    first_votes: HashMap<(ReplicaId, View, Height, Phase), u64>,
    /// Outstanding catch-up request time per recovering replica.
    catch_up_requested: HashMap<ReplicaId, u64>,
    /// Outstanding sync-run start time per lagging replica.
    sync_started: HashMap<ReplicaId, u64>,
    /// Push times of batches awaiting their availability quorum.
    payload_pushed: HashMap<(ReplicaId, BatchId), u64>,
    /// Last cumulative seed-memo counters per replica, so the
    /// cumulative `crypto_cache` reports fold into counters as deltas.
    cache_seen: HashMap<ReplicaId, (u64, u64)>,
}

impl RegistryRecorder {
    /// A recorder feeding `registry`.
    pub fn new(registry: &Registry) -> Self {
        RegistryRecorder {
            registry: registry.clone(),
            first_votes: HashMap::new(),
            catch_up_requested: HashMap::new(),
            sync_started: HashMap::new(),
            payload_pushed: HashMap::new(),
            cache_seen: HashMap::new(),
        }
    }

    /// The registry this recorder feeds.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.registry.counter_with(name, labels)
    }

    fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        self.registry.histogram_with(name, labels)
    }
}

impl TelemetrySink for RegistryRecorder {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        match event {
            Telemetry::Note(note) => self.fold_note(at_ns, replica, note),
            Telemetry::Sent {
                class,
                bytes,
                authenticators,
            } => {
                let class = class.to_string();
                let labels: &[(&str, &str)] = &[("class", &class)];
                self.counter("net_messages_total", labels).inc();
                self.counter("net_bytes_total", labels).add(bytes);
                self.counter("net_authenticators_total", labels)
                    .add(authenticators);
            }
            Telemetry::Charged {
                crypto_ns,
                journal_ns,
                consensus_ns,
            } => {
                for (lane, ns) in [
                    ("crypto", crypto_ns),
                    ("journal", journal_ns),
                    ("consensus", consensus_ns),
                ] {
                    if ns > 0 {
                        self.counter("consensus_cpu_ns_total", &[("lane", lane)])
                            .add(ns);
                    }
                }
            }
            Telemetry::CryptoCache {
                seed_hits,
                seed_misses,
                verified_qcs,
            } => {
                let (last_hits, last_misses) = self
                    .cache_seen
                    .insert(replica, (seed_hits, seed_misses))
                    .unwrap_or((0, 0));
                self.counter("crypto_seed_memo_hits_total", &[])
                    .add(seed_hits.saturating_sub(last_hits));
                self.counter("crypto_seed_memo_misses_total", &[])
                    .add(seed_misses.saturating_sub(last_misses));
                let id = replica.0.to_string();
                self.registry
                    .gauge_with("crypto_verified_qc_cache_entries", &[("replica", &id)])
                    .set(verified_qcs as i64);
            }
            // The same commit emits `Note::Committed`, which carries the
            // count this recorder exports.
            Telemetry::Committed(_) => {}
        }
    }
}

impl RegistryRecorder {
    fn fold_note(&mut self, at_ns: u64, replica: ReplicaId, note: &Note) {
        match note {
            Note::EnteredView { leader, .. } => {
                let role = if *leader { "leader" } else { "follower" };
                self.counter("consensus_views_entered_total", &[("role", role)])
                    .inc();
            }
            Note::ViewChangeStarted { .. } => {
                self.counter("consensus_view_changes_started_total", &[])
                    .inc();
            }
            Note::HappyPathVc { .. } => {
                self.counter("consensus_view_change_path_total", &[("path", "happy")])
                    .inc();
            }
            Note::UnhappyPathVc { case, .. } => {
                self.counter(
                    "consensus_view_change_path_total",
                    &[("path", "unhappy"), ("case", case.label())],
                )
                .inc();
            }
            Note::Proposed { phase, .. } => {
                self.counter(
                    "consensus_proposals_total",
                    &[("phase", phase_label(*phase))],
                )
                .inc();
            }
            Note::FirstVote {
                view,
                height,
                phase,
            } => {
                self.first_votes
                    .insert((replica, *view, *height, *phase), at_ns);
                self.counter(
                    "consensus_first_votes_total",
                    &[("phase", phase_label(*phase))],
                )
                .inc();
            }
            Note::QcFormed {
                phase,
                view,
                height,
            } => {
                self.counter(
                    "consensus_qcs_formed_total",
                    &[("phase", phase_label(*phase))],
                )
                .inc();
                if let Some(first) = self.first_votes.remove(&(replica, *view, *height, *phase)) {
                    self.histogram("consensus_vote_to_qc_ns", &[("phase", phase_label(*phase))])
                        .record(at_ns.saturating_sub(first));
                }
            }
            Note::Committed { txs, .. } => {
                let id = replica.0.to_string();
                self.counter("consensus_committed_txs_total", &[("replica", &id)])
                    .add(*txs as u64);
            }
            Note::CommitConflict { .. } => {
                self.counter("consensus_commit_conflicts_total", &[]).inc();
            }
            Note::VoteWithheld { phase } => {
                self.counter(
                    "consensus_votes_withheld_total",
                    &[("phase", phase_label(*phase))],
                )
                .inc();
            }
            Note::JournalWrite {
                appends,
                bytes,
                cost_ns,
            } => {
                self.counter("consensus_journal_appends_total", &[])
                    .add(*appends);
                self.counter("consensus_journal_bytes_total", &[])
                    .add(*bytes);
                self.histogram("consensus_journal_write_ns", &[])
                    .record(*cost_ns);
            }
            Note::CatchUpRequested { .. } => {
                self.catch_up_requested.insert(replica, at_ns);
                self.counter("consensus_catch_up_requests_total", &[]).inc();
            }
            Note::CatchUpServed { newer, .. } => {
                let newer = if *newer { "true" } else { "false" };
                self.counter("consensus_catch_up_served_total", &[("newer", newer)])
                    .inc();
            }
            Note::CatchUpCompleted { .. } => {
                self.counter("consensus_catch_up_completed_total", &[])
                    .inc();
                if let Some(t0) = self.catch_up_requested.remove(&replica) {
                    self.histogram("consensus_catch_up_rtt_ns", &[])
                        .record(at_ns.saturating_sub(t0));
                }
            }
            Note::SyncStarted { .. } => {
                self.sync_started.insert(replica, at_ns);
                self.counter("consensus_sync_started_total", &[]).inc();
            }
            Note::SyncSnapshotInstalled { bytes, .. } => {
                self.counter("consensus_sync_snapshots_installed_total", &[])
                    .inc();
                self.counter("consensus_sync_snapshot_bytes_total", &[])
                    .add(*bytes as u64);
            }
            Note::SyncRangeFetched { count, .. } => {
                self.counter("consensus_sync_ranges_fetched_total", &[])
                    .inc();
                self.counter("consensus_sync_blocks_fetched_total", &[])
                    .add(*count as u64);
            }
            Note::SyncPeerDemoted { peer } => {
                let id = peer.0.to_string();
                self.counter("consensus_sync_peer_demotions_total", &[("peer", &id)])
                    .inc();
            }
            Note::SyncCompleted { .. } => {
                self.counter("consensus_sync_completed_total", &[]).inc();
                if let Some(t0) = self.sync_started.remove(&replica) {
                    self.histogram("consensus_sync_rejoin_ns", &[])
                        .record(at_ns.saturating_sub(t0));
                }
            }
            Note::SyncAbandoned { .. } => {
                self.counter("consensus_sync_abandoned_total", &[]).inc();
            }
            Note::MempoolAdmission {
                admitted,
                duplicates,
                rejected,
                priority,
            } => {
                self.counter("consensus_mempool_admitted_total", &[])
                    .add(*admitted as u64);
                self.counter("consensus_mempool_duplicates_total", &[])
                    .add(*duplicates as u64);
                self.counter("consensus_mempool_rejected_total", &[])
                    .add(*rejected as u64);
                self.counter("consensus_mempool_priority_total", &[])
                    .add(*priority as u64);
            }
            Note::PayloadPushed { batch, bytes, .. } => {
                self.payload_pushed.insert((replica, *batch), at_ns);
                self.counter("consensus_payload_pushed_total", &[]).inc();
                self.counter("consensus_payload_push_bytes_total", &[])
                    .add(*bytes as u64);
            }
            Note::PayloadQuorum { batch } => {
                self.counter("consensus_payload_quorum_total", &[]).inc();
                if let Some(t0) = self.payload_pushed.remove(&(replica, *batch)) {
                    self.histogram("consensus_payload_quorum_ns", &[])
                        .record(at_ns.saturating_sub(t0));
                }
            }
            Note::PayloadFetched { .. } => {
                self.counter("consensus_payload_fetches_total", &[]).inc();
            }
            Note::PayloadExpired { batch, txs } => {
                self.payload_pushed.remove(&(replica, *batch));
                self.counter("consensus_payload_expired_total", &[]).inc();
                self.counter("consensus_payload_expired_txs_total", &[])
                    .add(*txs as u64);
            }
            Note::Voted { phase, .. } => {
                self.counter(
                    "consensus_votes_sent_total",
                    &[("phase", phase_label(*phase))],
                )
                .inc();
            }
            Note::Locked { .. } => self.counter("consensus_locks_raised_total", &[]).inc(),
            Note::Recovered { .. } => self.counter("consensus_recoveries_total", &[]).inc(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn trace_records_in_order() {
        let mut t = Trace::new();
        t.note(5, ReplicaId(1), &Note::HappyPathVc { view: View(2) });
        t.note(
            9,
            ReplicaId(0),
            &Note::Committed {
                height: Height(1),
                txs: 3,
            },
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.events[0].at_ns, 5);
        assert_eq!(t.events[1].replica, ReplicaId(0));
    }

    #[test]
    fn recorder_pairs_first_vote_with_qc() {
        let reg = Registry::new();
        let mut rec = RegistryRecorder::new(&reg);
        let (v, h, p) = (View(3), Height(2), Phase::Prepare);
        rec.note(
            1_000,
            ReplicaId(1),
            &Note::FirstVote {
                view: v,
                height: h,
                phase: p,
            },
        );
        rec.note(
            51_000,
            ReplicaId(1),
            &Note::QcFormed {
                phase: p,
                view: v,
                height: h,
            },
        );
        let hist = reg
            .histogram_with("consensus_vote_to_qc_ns", &[("phase", "prepare")])
            .snapshot();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum_ns(), 50_000);
    }

    #[test]
    fn recorder_measures_catch_up_round_trip() {
        let reg = Registry::new();
        let mut rec = RegistryRecorder::new(&reg);
        rec.note(100, ReplicaId(2), &Note::CatchUpRequested { view: View(1) });
        rec.note(
            80_100,
            ReplicaId(2),
            &Note::CatchUpCompleted { view: View(4) },
        );
        let hist = reg.histogram("consensus_catch_up_rtt_ns").snapshot();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum_ns(), 80_000);
    }

    #[test]
    fn recorder_measures_sync_rejoin_latency() {
        let reg = Registry::new();
        let mut rec = RegistryRecorder::new(&reg);
        rec.note(
            500,
            ReplicaId(3),
            &Note::SyncStarted {
                from: Height(10),
                target: Height(400),
            },
        );
        rec.note(
            120_500,
            ReplicaId(3),
            &Note::SyncCompleted {
                height: Height(400),
            },
        );
        let hist = reg.histogram("consensus_sync_rejoin_ns").snapshot();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum_ns(), 120_000);
    }

    #[test]
    fn paired_sinks_both_receive() {
        let mut pair = (Trace::new(), Trace::new());
        pair.note(
            1,
            ReplicaId(0),
            &Note::ViewChangeStarted { from_view: View(1) },
        );
        assert_eq!(pair.0.len(), 1);
        assert_eq!(pair.1.len(), 1);
    }

    const LOCK: Lock = Lock {
        view: View(3),
        height: Height(2),
        block: BlockId::GENESIS,
    };

    /// One sample of every `Note` variant. The match below is
    /// exhaustive without a wildcard, so adding a variant without adding
    /// a sample here (and a mapping in `RegistryRecorder`, and a case in
    /// the flight dump's tag table) fails to compile.
    pub(crate) fn one_of_each_variant() -> Vec<Note> {
        let samples = vec![
            Note::EnteredView {
                view: View(1),
                leader: true,
            },
            Note::ViewChangeStarted { from_view: View(1) },
            Note::HappyPathVc { view: View(2) },
            Note::UnhappyPathVc {
                view: View(2),
                case: VcCase::V1,
            },
            Note::Proposed {
                view: View(1),
                height: Height(1),
                phase: Phase::Prepare,
            },
            Note::FirstVote {
                view: View(1),
                height: Height(1),
                phase: Phase::Prepare,
            },
            Note::QcFormed {
                phase: Phase::Prepare,
                view: View(1),
                height: Height(1),
            },
            Note::Committed {
                height: Height(1),
                txs: 2,
            },
            Note::CommitConflict {
                block: BlockId::GENESIS,
            },
            Note::VoteWithheld {
                phase: Phase::Commit,
            },
            Note::JournalWrite {
                appends: 1,
                bytes: 64,
                cost_ns: 9_000,
            },
            Note::CatchUpRequested { view: View(3) },
            Note::CatchUpServed {
                view: View(3),
                newer: true,
            },
            Note::CatchUpCompleted { view: View(3) },
            Note::SyncStarted {
                from: Height(10),
                target: Height(500),
            },
            Note::SyncSnapshotInstalled {
                height: Height(480),
                block: BlockId::GENESIS,
                bytes: 256,
            },
            Note::SyncRangeFetched {
                from: Height(481),
                count: 16,
            },
            Note::SyncPeerDemoted { peer: ReplicaId(3) },
            Note::SyncCompleted {
                height: Height(500),
            },
            Note::SyncAbandoned { from: Height(11) },
            Note::MempoolAdmission {
                admitted: 8,
                duplicates: 2,
                rejected: 1,
                priority: 3,
            },
            Note::PayloadPushed {
                batch: BatchId::default(),
                txs: 16,
                bytes: 4_096,
            },
            Note::PayloadQuorum {
                batch: BatchId::default(),
            },
            Note::PayloadFetched {
                batch: BatchId::default(),
            },
            Note::PayloadExpired {
                batch: BatchId::default(),
                txs: 16,
            },
            Note::Voted {
                view: View(2),
                phase: Phase::Commit,
                height: Height(3),
                block: BlockId::GENESIS,
            },
            Note::Locked { lock: LOCK },
            Note::Recovered {
                view: View(4),
                lock: Some(LOCK),
            },
        ];
        for note in &samples {
            match note {
                Note::EnteredView { .. }
                | Note::ViewChangeStarted { .. }
                | Note::HappyPathVc { .. }
                | Note::UnhappyPathVc { .. }
                | Note::Proposed { .. }
                | Note::FirstVote { .. }
                | Note::QcFormed { .. }
                | Note::Committed { .. }
                | Note::CommitConflict { .. }
                | Note::VoteWithheld { .. }
                | Note::JournalWrite { .. }
                | Note::CatchUpRequested { .. }
                | Note::CatchUpServed { .. }
                | Note::CatchUpCompleted { .. }
                | Note::SyncStarted { .. }
                | Note::SyncSnapshotInstalled { .. }
                | Note::SyncRangeFetched { .. }
                | Note::SyncPeerDemoted { .. }
                | Note::SyncCompleted { .. }
                | Note::SyncAbandoned { .. }
                | Note::MempoolAdmission { .. }
                | Note::PayloadPushed { .. }
                | Note::PayloadQuorum { .. }
                | Note::PayloadFetched { .. }
                | Note::PayloadExpired { .. }
                | Note::Voted { .. }
                | Note::Locked { .. }
                | Note::Recovered { .. } => {}
            }
        }
        samples
    }

    /// Every `Telemetry` variant, fed alone into a fresh recorder: `Sent`
    /// lands in exactly its class's `net_*` counters, `Committed` in
    /// nothing, and every other event — each note included — in at least
    /// one metric, so no event is silently dropped.
    ///
    /// Nothing needs to check that two accountings agree. The meter's
    /// `Traffic` and the registry's `net_*` consume the same `Sent`
    /// event; `Note::Committed` and `Action::Commit` are built from the
    /// same newly committed blocks in `Core::try_commit`.
    #[test]
    fn every_telemetry_variant_updates_the_registry() {
        let notes = one_of_each_variant();
        let committed = [Block::genesis()];
        let mut events: Vec<Telemetry<'_>> = notes.iter().map(Telemetry::Note).collect();
        events.extend([
            Telemetry::Sent {
                class: MsgClass::Vote(Phase::Prepare),
                bytes: 120,
                authenticators: 1,
            },
            Telemetry::Charged {
                crypto_ns: 300,
                journal_ns: 40,
                consensus_ns: 5,
            },
            Telemetry::CryptoCache {
                seed_hits: 100,
                seed_misses: 10,
                verified_qcs: 7,
            },
            Telemetry::Committed(&committed),
        ]);
        for event in events {
            let reg = Registry::new();
            RegistryRecorder::new(&reg).record(1_000, ReplicaId(0), event);
            let entries = reg.snapshot().entries;
            let touched: u64 = entries
                .iter()
                .map(|e| match &e.value {
                    crate::export::SnapshotValue::Counter(v) => *v,
                    crate::export::SnapshotValue::Gauge(v) => v.unsigned_abs(),
                    crate::export::SnapshotValue::Histogram(h) => h.count(),
                })
                .sum();
            match event {
                Telemetry::Sent { .. } => {
                    let net = |name| reg.counter_with(name, &[("class", "vote/Prepare")]).get();
                    assert_eq!(entries.len(), 3, "{entries:?}");
                    assert_eq!(net("net_messages_total"), 1);
                    assert_eq!(net("net_bytes_total"), 120);
                    assert_eq!(net("net_authenticators_total"), 1);
                }
                Telemetry::Committed(_) => assert!(entries.is_empty(), "{entries:?}"),
                Telemetry::Note(_) | Telemetry::Charged { .. } | Telemetry::CryptoCache { .. } => {
                    assert!(
                        touched > 0,
                        "{event:?} recorded nothing — extend RegistryRecorder"
                    )
                }
            }
        }
    }

    fn charged(crypto_ns: u64, journal_ns: u64, consensus_ns: u64) -> Telemetry<'static> {
        Telemetry::Charged {
            crypto_ns,
            journal_ns,
            consensus_ns,
        }
    }

    #[test]
    fn trace_records_nonzero_step_charges() {
        let mut t = Trace::new();
        t.record(10, ReplicaId(1), charged(300, 0, 5));
        t.record(20, ReplicaId(2), charged(0, 0, 0)); // all-zero: skipped
        t.record(30, ReplicaId(0), charged(0, 70, 0));
        assert_eq!(t.charges.len(), 2);
        assert_eq!(t.charges[0].crypto_ns, 300);
        assert_eq!(t.charges[1].journal_ns, 70);
    }

    #[test]
    fn recorder_folds_lane_charges_into_counters() {
        let reg = Registry::new();
        let mut rec = RegistryRecorder::new(&reg);
        rec.record(10, ReplicaId(0), charged(300, 40, 5));
        rec.record(20, ReplicaId(1), charged(100, 0, 0));
        let lane = |l: &str| {
            reg.counter_with("consensus_cpu_ns_total", &[("lane", l)])
                .get()
        };
        assert_eq!(lane("crypto"), 400);
        assert_eq!(lane("journal"), 40);
        assert_eq!(lane("consensus"), 5);
    }

    #[test]
    fn recorder_folds_cumulative_cache_reports_as_deltas() {
        let reg = Registry::new();
        let mut rec = RegistryRecorder::new(&reg);
        for (at_ns, replica, seed_hits, seed_misses, verified_qcs) in
            [(10, 0, 100, 10, 7), (20, 1, 50, 5, 3), (30, 0, 180, 12, 4)]
        {
            let report = Telemetry::CryptoCache {
                seed_hits,
                seed_misses,
                verified_qcs,
            };
            rec.record(at_ns, ReplicaId(replica), report);
        }
        assert_eq!(reg.counter("crypto_seed_memo_hits_total").get(), 230);
        assert_eq!(reg.counter("crypto_seed_memo_misses_total").get(), 17);
        assert_eq!(
            reg.gauge_with("crypto_verified_qc_cache_entries", &[("replica", "0")])
                .get(),
            4
        );
    }

    #[test]
    fn shared_sink_feeds_through_clones() {
        let shared = SharedSink::new(Trace::new());
        let mut handle = shared.clone();
        handle.note(7, ReplicaId(1), &Note::HappyPathVc { view: View(2) });
        assert_eq!(shared.with(|t| t.len()), 1);
        drop(handle);
        assert_eq!(shared.into_inner().map(|t| t.len()), Some(1));
    }
}
