//! Deterministic fault-injection scenarios.
//!
//! A [`Scenario`] is a composable fault schedule — crash/recover
//! windows, timed partitions, per-link fault phases, and per-replica
//! Byzantine [`Behavior`] assignments that can change over time — plus
//! a *quiet point* after which the schedule stops interfering and a
//! *horizon* by which liveness must have resumed. [`run_scenario`]
//! executes one (protocol, scenario, seed) cell under the safety
//! oracle ([`Invariants`], installed as a telemetry sink; the runner
//! marks the quiet point) and returns a [`ScenarioOutcome`] verdict.
//!
//! Identical `(protocol, scenario, seed)` cells are bit-for-bit
//! reproducible: outcomes carry a fingerprint the test matrix compares
//! across repeated runs.

use crate::byzantine::{Behavior, ByzantineReplica};
use crate::sim::{LinkFault, Partition, RecoveryMode, SimConfig, SimNet};
use crate::MsgClass;
use marlin_core::{build_replica, Config, Protocol, ProtocolKind, SafetyJournal};
use marlin_storage::{Disk, SharedDisk, SnapshotStore};
use marlin_telemetry::{Invariants, SharedSink, TelemetrySink, Violation};
use marlin_types::{ReplicaId, View};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A timed Byzantine behavior assignment: `replica` switches to
/// `behavior` at `at_ns` (an `at_ns` of 0 means from the start).
#[derive(Clone, Debug)]
pub struct BehaviorPhase {
    /// The replica whose behavior changes.
    pub replica: ReplicaId,
    /// When the change takes effect.
    pub at_ns: u64,
    /// The behavior from then on.
    pub behavior: Behavior,
}

/// A composable deterministic fault schedule and the cluster
/// configuration it runs on.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Schedule name (used in verdict reporting).
    pub name: &'static str,
    /// `(replica, at_ns)` crash points.
    pub crashes: Vec<(ReplicaId, u64)>,
    /// `(replica, at_ns)` recovery points.
    pub recoveries: Vec<(ReplicaId, u64)>,
    /// Timed network partitions.
    pub partitions: Vec<Partition>,
    /// Timed per-link fault phases.
    pub link_faults: Vec<LinkFault>,
    /// Timed Byzantine behavior assignments. Any replica appearing here
    /// is treated as adversary-controlled by the invariant checker.
    pub behaviors: Vec<BehaviorPhase>,
    /// How recovered replicas are reconstituted. Under anything other
    /// than [`RecoveryMode::WithMemory`] the Marlin replicas run with
    /// write-ahead safety journals on per-replica durable disks.
    pub recovery_mode: RecoveryMode,
    /// `(replica, at_ns, keep_bytes)` torn-write injections: the next
    /// journal write after `at_ns` keeps only `keep_bytes` bytes and
    /// fails (a crash-truncated record).
    pub disk_tears: Vec<(ReplicaId, u64, usize)>,
    /// Every replica's configuration, re-bound to each replica's id
    /// (sync cadence, mempool capacity and the rest live here).
    pub config: Config,
    /// Client batch interval (batches follow the current leader).
    pub batch_every_ns: u64,
    /// Transactions per client batch.
    pub batch_txs: usize,
    /// Payload bytes per transaction.
    pub payload_len: usize,
    /// When the schedule stops interfering; the liveness invariant
    /// requires commits to resume after this point. Client batches also
    /// stop here, but heartbeat-driven empty blocks keep committing.
    pub quiet_ns: u64,
    /// End of the run; post-quiet liveness is judged at this time.
    pub horizon_ns: u64,
}

impl Scenario {
    /// A fault-free schedule named `name`: a 4-replica cluster on the
    /// test configuration with a 500 ms view timeout, 20-transaction
    /// no-op batches every 250 ms until `quiet_ns`, judged at
    /// `horizon_ns`. The presets below start from it.
    pub fn new(name: &'static str, quiet_ns: u64, horizon_ns: u64) -> Self {
        Scenario {
            name,
            crashes: Vec::new(),
            recoveries: Vec::new(),
            partitions: Vec::new(),
            link_faults: Vec::new(),
            behaviors: Vec::new(),
            recovery_mode: RecoveryMode::WithMemory,
            disk_tears: Vec::new(),
            config: Config {
                base_timeout_ns: 500_000_000,
                ..Config::for_test(4, 1)
            },
            batch_every_ns: 250_000_000,
            batch_txs: 20,
            payload_len: 0,
            quiet_ns,
            horizon_ns,
        }
    }

    /// Two leaders crash in turn and recover: p1 down 0.4–1.6 s, p2
    /// down 2.0–3.2 s.
    pub fn crash_recover_leaders() -> Self {
        let mut s = Self::new("crash-recover-leaders", 4_000_000_000, 7_000_000_000);
        s.crashes = vec![(ReplicaId(1), 400_000_000), (ReplicaId(2), 2_000_000_000)];
        s.recoveries = vec![(ReplicaId(1), 1_600_000_000), (ReplicaId(2), 3_200_000_000)];
        s
    }

    /// A 2/2 split (no quorum on either side) from 0.5 s that heals at
    /// 2.0 s.
    pub fn partition_heal() -> Self {
        let mut s = Self::new("partition-heal", 3_500_000_000, 6_500_000_000);
        s.partitions = vec![Partition {
            from_ns: 500_000_000,
            until_ns: 2_000_000_000,
            groups: vec![
                vec![ReplicaId(0), ReplicaId(1)],
                vec![ReplicaId(2), ReplicaId(3)],
            ],
        }];
        s
    }

    /// A lossy, laggy window: 15 % loss on every link 0.3–2.3 s, plus
    /// 2 ms extra delay and duplication on all vote traffic into p0.
    pub fn lossy_links() -> Self {
        let mut s = Self::new("lossy-links", 3_500_000_000, 6_500_000_000);
        s.link_faults = vec![
            LinkFault {
                from_ns: 300_000_000,
                until_ns: 2_300_000_000,
                src: None,
                dst: None,
                classes: None,
                drop_prob: 0.15,
                extra_delay_ns: 0,
                duplicate: false,
            },
            LinkFault {
                from_ns: 300_000_000,
                until_ns: 2_300_000_000,
                src: None,
                dst: Some(ReplicaId(0)),
                classes: None,
                drop_prob: 0.0,
                extra_delay_ns: 2_000_000,
                duplicate: true,
            },
        ];
        s
    }

    /// The view-1 leader equivocates every proposal for the whole run.
    pub fn equivocating_leader() -> Self {
        let mut s = Self::new("equivocating-leader", 3_000_000_000, 6_000_000_000);
        s.behaviors = vec![BehaviorPhase {
            replica: ReplicaId(1),
            at_ns: 0,
            behavior: Behavior::Equivocate,
        }];
        s
    }

    /// The view-1 leader equivocates, then goes silent at 2 s —
    /// exercises runtime behavior switching.
    pub fn equivocate_then_silent() -> Self {
        let mut s = Self::new("equivocate-then-silent", 3_500_000_000, 6_500_000_000);
        s.behaviors = vec![
            BehaviorPhase {
                replica: ReplicaId(1),
                at_ns: 0,
                behavior: Behavior::Equivocate,
            },
            BehaviorPhase {
                replica: ReplicaId(1),
                at_ns: 2_000_000_000,
                behavior: Behavior::Silent,
            },
        ];
        s
    }

    /// The paper's Figure 2b attack: p1 leads until it can lock p0 on a
    /// hidden `prepareQC`, then plays dead while `VIEW-CHANGE` traffic
    /// to and from p0 is suppressed — so no later leader ever learns of
    /// p0's lock from p0 itself. Two-phase HotStuff without Marlin's
    /// pre-prepare phase wedges here; Marlin must recover.
    pub fn unsafe_snapshot() -> Self {
        let mut s = Self::new("unsafe-snapshot", 3_000_000_000, 9_000_000_000);
        s.behaviors = vec![BehaviorPhase {
            replica: ReplicaId(1),
            at_ns: 0,
            behavior: Behavior::UnsafeSnapshot {
                victim: ReplicaId(0),
            },
        }];
        s.link_faults = vec![
            LinkFault {
                src: Some(ReplicaId(0)),
                classes: Some(vec![MsgClass::ViewChange]),
                ..LinkFault::drop_all(0, u64::MAX)
            },
            LinkFault {
                dst: Some(ReplicaId(0)),
                classes: Some(vec![MsgClass::ViewChange]),
                ..LinkFault::drop_all(0, u64::MAX)
            },
        ];
        s
    }

    /// The leader equivocates its early proposals, then — still inside
    /// its first view, before anyone times out — mounts the Figure 2b
    /// snapshot attack. The insecure two-phase baseline must fail the
    /// checker under this equivocating adversary.
    pub fn equivocate_unsafe_snapshot() -> Self {
        let mut s = Self::unsafe_snapshot();
        s.name = "equivocate-unsafe-snapshot";
        s.behaviors = vec![
            BehaviorPhase {
                replica: ReplicaId(1),
                at_ns: 0,
                behavior: Behavior::Equivocate,
            },
            BehaviorPhase {
                replica: ReplicaId(1),
                at_ns: 400_000_000,
                behavior: Behavior::UnsafeSnapshot {
                    victim: ReplicaId(0),
                },
            },
        ];
        s
    }

    /// Crash-restart fork probe, parameterised only by how the crashed
    /// replicas come back. One schedule, three recovery modes:
    ///
    /// * p3 is down from the first nanosecond: it sees neither the
    ///   empty start block B1 nor the first client block B2, so it
    ///   rejoins (at 160 ms) with a genesis last-voted block.
    /// * p0 votes B1 and B2; a torn-write injection then truncates its
    ///   `LastVoted(B3)` journal append for the ~126 ms heartbeat block
    ///   B3, so p0 abstains from B3 in every mode.
    /// * The view-1 leader p1 and p0 crash at 130 ms and recover at
    ///   200/210 ms. While the pair rejoins, sync traffic into them
    ///   (catch-up and block-fetch responses) is suppressed — votes and
    ///   proposals still flow — so recovery rests on what each replica
    ///   *remembers*, not on what peers re-teach it.
    ///
    /// Under [`RecoveryMode::Amnesia`] the recovered pair forgets its
    /// view-1 votes: p1 re-proposes from genesis, re-certifies B1 (the
    /// deterministic empty block), and then proposes a conflicting B2'
    /// from the 250 ms client batch — p0 re-votes height 2 (a double
    /// vote) and the p0/p1/p3 quorum commits a fork of p2's chain.
    /// Under [`RecoveryMode::FromDisk`] the replayed journals (p0's
    /// torn tail discarded by CRC) pin both replicas to their pre-crash
    /// votes: p1 deterministically re-proposes the same B3, p0's first
    /// height-3 vote completes it, and the run stays safe and live.
    /// Under [`RecoveryMode::WithMemory`] nothing is forgotten at all.
    pub fn restart_fork(mode: RecoveryMode) -> Self {
        let name = match mode {
            RecoveryMode::WithMemory => "restart-fork/with-memory",
            RecoveryMode::FromDisk => "restart-fork/from-disk",
            RecoveryMode::Amnesia => "restart-fork/amnesia",
        };
        let mut s = Self::new(name, 3_000_000_000, 6_000_000_000);
        s.recovery_mode = mode;
        s.crashes = vec![
            (ReplicaId(3), 1),
            (ReplicaId(0), 130_000_000),
            (ReplicaId(1), 130_000_000),
        ];
        s.recoveries = vec![
            (ReplicaId(3), 160_000_000),
            (ReplicaId(0), 200_000_000),
            (ReplicaId(1), 210_000_000),
        ];
        // No catch-up or fetch responses into the rejoining pair during
        // its recovery window.
        s.link_faults = [ReplicaId(2), ReplicaId(3)]
            .into_iter()
            .flat_map(|src| {
                [ReplicaId(0), ReplicaId(1)]
                    .into_iter()
                    .map(move |dst| LinkFault {
                        src: Some(src),
                        dst: Some(dst),
                        classes: Some(vec![MsgClass::Fetch, MsgClass::CatchUp]),
                        ..LinkFault::drop_all(150_000_000, 400_000_000)
                    })
            })
            .collect();
        // The next journal write on p0 after 120 ms (its vote for the
        // ~126 ms heartbeat block B3) is torn to a 3-byte stub.
        s.disk_tears = vec![(ReplicaId(0), 120_000_000, 3)];
        s
    }

    /// The chained (pipelined) variant of [`Self::restart_fork`]: the
    /// same crash/recovery/tear/suppression schedule, renamed so the
    /// campaign can tell the grids apart. The fork mechanics transfer:
    /// under `Amnesia` the restarted leader re-certifies the
    /// deterministic empty start block from genesis and then pipelines
    /// a conflicting client block at an already-voted height, which the
    /// amnesiac voter double-votes; under `FromDisk` the replayed
    /// journals (torn tail included) pin every pre-crash vote.
    pub fn chained_restart_fork(mode: RecoveryMode) -> Self {
        let mut s = Self::restart_fork(mode);
        s.name = match mode {
            RecoveryMode::WithMemory => "chained-restart-fork/with-memory",
            RecoveryMode::FromDisk => "chained-restart-fork/from-disk",
            RecoveryMode::Amnesia => "chained-restart-fork/amnesia",
        };
        s
    }

    /// The long-lag rejoin cell: p3 crashes 50 ms in and stays down
    /// while the remaining trio commits at a 2 ms client cadence —
    /// hundreds of blocks, far past both the sync lag threshold and
    /// the snapshot interval. At 4 s p3 recovers `FromDisk` (journal
    /// replay rebuilds only its pre-crash safety state) and must
    /// rejoin the committed tip through the sync engine: snapshot
    /// anchor first, then pipelined block ranges from multiple peers.
    /// Scaled so a debug-build campaign cell stays fast; the release
    /// 10k-block version lives in the ignored soak test and drives the
    /// same schedule shape with `scaled_by`.
    pub fn long_lag_rejoin() -> Self {
        let mut s = Self::new("long-lag-rejoin", 6_000_000_000, 9_000_000_000);
        s.recovery_mode = RecoveryMode::FromDisk;
        s.config.sync_snapshot_interval = 64;
        s.config.sync_lag_threshold = 32;
        s.batch_every_ns = 2_000_000;
        s.crashes = vec![(ReplicaId(3), 50_000_000)];
        s.recoveries = vec![(ReplicaId(3), 4_000_000_000)];
        s
    }

    /// [`Self::long_lag_rejoin`] with the client cadence and downtime
    /// stretched by `factor`: `factor` ≫ 1 pushes the rejoin gap into
    /// the thousands of blocks (the 10k-block release soak uses this).
    pub fn long_lag_rejoin_scaled(factor: u64) -> Self {
        let mut s = Self::long_lag_rejoin();
        s.name = "long-lag-rejoin/scaled";
        s.recoveries = vec![(ReplicaId(3), 4_000_000_000 * factor)];
        s.quiet_ns = 4_000_000_000 * factor + 2_000_000_000;
        s.horizon_ns = s.quiet_ns + 3_000_000_000;
        s
    }

    /// The long-lag rejoin schedule with a *Byzantine sync peer*: p1
    /// plays consensus honestly but serves conflicting twins in every
    /// sync response ([`Behavior::CorruptSync`]). The rejoining p3 must
    /// catch the corruption in its certified-prefix walk, demote p1,
    /// and complete the sync from the honest peers — no stall, no
    /// safety violation.
    pub fn byzantine_sync_peer() -> Self {
        let mut s = Self::long_lag_rejoin();
        s.name = "byzantine-sync-peer";
        s.behaviors = vec![BehaviorPhase {
            replica: ReplicaId(1),
            at_ns: 0,
            behavior: Behavior::CorruptSync,
        }];
        s
    }

    /// The overload cell: clients flood the leader at several times the
    /// cluster's drain rate — every batch alone exceeds the mempool
    /// capacity — while the view-1 leader crashes mid-flood and never
    /// returns. Admission control must shed the excess (rejections, not
    /// queue growth), the cluster must keep committing through the
    /// view change, and no replica's mempool may ever exceed its
    /// configured capacity.
    pub fn overload() -> Self {
        let mut s = Self::new("overload", 4_000_000_000, 7_000_000_000);
        s.config.mempool_capacity = 600;
        s.batch_every_ns = 50_000_000;
        s.batch_txs = 2_000; // > capacity: every batch trips admission
        s.payload_len = 150;
        s.crashes = vec![(ReplicaId(1), 1_500_000_000)];
        s
    }

    /// The cold-start join cell: p3 crashes on the very first
    /// nanosecond — before voting, journaling, or storing anything — so
    /// it recovers `FromDisk` with an effectively empty disk while the
    /// trio has committed hundreds of blocks. The rejoin must go
    /// through a peer's snapshot anchor (bounded catch-up), not a
    /// genesis replay of the whole chain.
    pub fn cold_start_join() -> Self {
        let mut s = Self::long_lag_rejoin();
        s.name = "cold-start-join";
        s.crashes = vec![(ReplicaId(3), 1)];
        s
    }

    /// The crash-restart contrast cells (for the journal-backed
    /// protocols). Kept out of [`Self::all_presets`] because the
    /// amnesia cell is *expected* to violate safety.
    pub fn restart_presets() -> Vec<Scenario> {
        vec![
            Scenario::restart_fork(RecoveryMode::WithMemory),
            Scenario::restart_fork(RecoveryMode::FromDisk),
            Scenario::restart_fork(RecoveryMode::Amnesia),
        ]
    }

    /// The chained analogue of [`Self::restart_presets`].
    pub fn chained_restart_presets() -> Vec<Scenario> {
        vec![
            Scenario::chained_restart_fork(RecoveryMode::WithMemory),
            Scenario::chained_restart_fork(RecoveryMode::FromDisk),
            Scenario::chained_restart_fork(RecoveryMode::Amnesia),
        ]
    }

    /// The full preset campaign (every schedule above except the
    /// restart contrast cells).
    pub fn all_presets() -> Vec<Scenario> {
        vec![
            Scenario::crash_recover_leaders(),
            Scenario::partition_heal(),
            Scenario::lossy_links(),
            Scenario::equivocating_leader(),
            Scenario::equivocate_then_silent(),
            Scenario::unsafe_snapshot(),
            Scenario::equivocate_unsafe_snapshot(),
        ]
    }
}

/// The verdict of one `(protocol, scenario, seed)` cell.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The protocol under test (its `Debug` rendering).
    pub protocol: String,
    /// The scenario name.
    pub scenario: &'static str,
    /// The simulation seed.
    pub seed: u64,
    /// Canonical committed chain length at the horizon (incl. genesis).
    pub committed: usize,
    /// Highest view reached by any honest replica.
    pub max_view: u64,
    /// All invariant violations, including any liveness stall.
    pub violations: Vec<Violation>,
    /// Largest number of blocks resident in any honest replica's block
    /// tree at the horizon — the storage-boundedness measure for the
    /// sync/pruning cells.
    pub max_resident_blocks: usize,
    /// Lowest committed tip height among honest replicas at the
    /// horizon — a rejoin proof: a long-crashed replica that never
    /// caught up drags this far below `committed`.
    pub min_honest_tip: u64,
    /// Largest on-disk safety-journal footprint (bytes across all
    /// `safety-journal.*` generations) of any honest replica at the
    /// horizon — the journal-GC boundedness measure; 0 when the
    /// scenario runs without durable disks.
    pub max_journal_bytes: u64,
    /// Largest mempool residency of any honest replica at the horizon —
    /// the memory-boundedness measure for the overload cells.
    pub max_mempool_txs: usize,
    /// Deterministic digest of the run (chain, commits, violations).
    pub fingerprint: u64,
}

impl ScenarioOutcome {
    /// Number of *safety* violations (agreement, prefix, lock).
    pub fn safety_violations(&self) -> usize {
        self.violations.iter().filter(|v| v.is_safety()).count()
    }

    /// Whether the run ended in a post-quiet liveness stall.
    pub fn has_liveness_stall(&self) -> bool {
        self.violations
            .iter()
            .any(|v| matches!(v, Violation::LivenessStall { .. }))
    }

    /// A one-word verdict for reporting: `SAFETY` beats `STALL` beats
    /// `OK`.
    pub fn verdict(&self) -> &'static str {
        if self.safety_violations() > 0 {
            "SAFETY"
        } else if self.has_liveness_stall() {
            "STALL"
        } else {
            "OK"
        }
    }
}

/// Runs one `(protocol, scenario, seed)` cell on a LAN cluster of
/// `scenario.config.n` replicas with the safety oracle attached.
pub fn run_scenario(kind: ProtocolKind, scenario: &Scenario, seed: u64) -> ScenarioOutcome {
    run_scenario_with_telemetry(kind, scenario, seed, Box::new(()))
}

/// Like [`run_scenario`], additionally feeding every observation into
/// `sink` (use a
/// [`marlin_telemetry::SharedSink`] to keep a handle across cells).
pub fn run_scenario_with_telemetry(
    kind: ProtocolKind,
    scenario: &Scenario,
    seed: u64,
    sink: Box<dyn TelemetrySink>,
) -> ScenarioOutcome {
    let cfg = &scenario.config;
    let n = cfg.n;
    // Snapshot anchors persist on the same per-replica durable disk as
    // the safety journal.
    let sync_interval = cfg.sync_snapshot_interval;
    let snaps_for = move |disk: &SharedDisk| {
        (sync_interval > 0).then(|| SnapshotStore::open(disk.clone()).expect("snapshot store"))
    };

    // Shared behavior handles: one per replica that is ever Byzantine,
    // so the schedule can flip behaviors mid-run.
    let mut handles: BTreeMap<ReplicaId, Arc<Mutex<Behavior>>> = BTreeMap::new();
    for phase in &scenario.behaviors {
        let handle = handles
            .entry(phase.replica)
            .or_insert_with(|| Arc::new(Mutex::new(Behavior::Honest)));
        if phase.at_ns == 0 {
            *handle.lock().expect("behavior lock") = phase.behavior;
        }
    }
    let byzantine: Vec<ReplicaId> = handles.keys().copied().collect();

    // Scenarios that exercise durability hand every replica a
    // write-ahead safety journal on a per-replica durable disk (every
    // protocol journals); all other scenarios are bit-identical to the
    // journal-free setup.
    let with_disks =
        scenario.recovery_mode != RecoveryMode::WithMemory || !scenario.disk_tears.is_empty();
    let disks: Vec<SharedDisk> = (0..n).map(|_| SharedDisk::new()).collect();

    let replicas: Vec<Box<dyn Protocol>> = (0..n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            let inner = if with_disks {
                let journal = SafetyJournal::open(disks[i].clone()).expect("fresh journal");
                let snaps = snaps_for(&disks[i]);
                build_replica(kind, cfg.with_id(id), Some(journal), false, snaps)
            } else {
                build_replica(kind, cfg.with_id(id), None, false, None)
            };
            match handles.get(&id) {
                Some(h) => Box::new(ByzantineReplica::with_shared(inner, Arc::clone(h)))
                    as Box<dyn Protocol>,
                None => inner,
            }
        })
        .collect();

    let mut sim_cfg = SimConfig::lan();
    sim_cfg.seed = seed;
    let checker = SharedSink::new(Invariants::new(&byzantine));
    let mut sim = SimNet::with_replicas(replicas, sim_cfg, (checker.clone(), sink));
    for p in &scenario.partitions {
        sim.add_partition(p.clone());
    }
    for f in &scenario.link_faults {
        sim.add_link_fault(f.clone());
    }
    for &(replica, at_ns) in &scenario.crashes {
        sim.schedule_crash(replica, at_ns);
    }
    for &(replica, at_ns) in &scenario.recoveries {
        sim.schedule_recover(replica, at_ns);
    }
    if with_disks {
        let rcfg = cfg.clone();
        let mode = scenario.recovery_mode;
        sim.configure_recovery(
            mode,
            disks.clone(),
            Box::new(move |id, disk| {
                // Every protocol restarts on its journal: replayed
                // into the safety state under `FromDisk`, wiped before
                // the rebuild under `Amnesia`.
                let journal = SafetyJournal::open(disk.clone()).expect("journal replay");
                let replay = mode == RecoveryMode::FromDisk;
                build_replica(
                    kind,
                    rcfg.with_id(id),
                    Some(journal),
                    replay,
                    snaps_for(&disk),
                )
            }),
        );
        for &(replica, at_ns, keep_bytes) in &scenario.disk_tears {
            sim.schedule_disk_tear(replica, at_ns, keep_bytes);
        }
    }

    // Drive client load at the current leader until the quiet point,
    // applying any pending behavior flips along the way.
    let mut flips: Vec<&BehaviorPhase> =
        scenario.behaviors.iter().filter(|p| p.at_ns > 0).collect();
    flips.sort_by_key(|p| p.at_ns);
    let mut next_flip = 0usize;
    let apply_flips = |now: u64, next_flip: &mut usize| {
        while *next_flip < flips.len() && flips[*next_flip].at_ns <= now {
            let phase = flips[*next_flip];
            *handles[&phase.replica].lock().expect("behavior lock") = phase.behavior;
            *next_flip += 1;
        }
    };
    // Advance to the next batch point *or* behavior flip, whichever
    // comes first, so flips take effect at their exact schedule time.
    let mut next_batch = 0u64;
    let mut now = 0u64;
    // Peak mempool residency is sampled at every batch point — i.e. in
    // the middle of the flood, where an unbounded queue would show —
    // and once more at the horizon.
    let mut max_mempool_txs = 0usize;
    while now < scenario.quiet_ns {
        let next_flip_at = flips.get(next_flip).map(|p| p.at_ns).unwrap_or(u64::MAX);
        let target = next_batch.min(next_flip_at).min(scenario.quiet_ns);
        sim.run_until(target);
        now = target;
        apply_flips(now, &mut next_flip);
        if now == next_batch && now < scenario.quiet_ns {
            let mut view = View(1);
            for i in 0..n {
                view = view.max(sim.replica(ReplicaId(i as u32)).current_view());
            }
            sim.schedule_client_batch(
                ReplicaId::leader_of(view, n),
                now,
                scenario.batch_txs,
                scenario.payload_len,
            );
            next_batch += scenario.batch_every_ns;
            // Sample mempool residency a few network hops after the
            // batch lands — mid-drain, where an unbounded queue shows —
            // by stepping the simulation slightly past the batch point.
            // (A second `run_until` over the same window processes the
            // identical event sequence, so determinism is unaffected.)
            sim.run_until((now + 500_000).min(scenario.quiet_ns));
            for i in 0..n {
                max_mempool_txs =
                    max_mempool_txs.max(sim.replica(ReplicaId(i as u32)).mempool_len());
            }
        }
    }
    checker.with(Invariants::mark_quiet);
    apply_flips(scenario.quiet_ns, &mut next_flip);
    sim.run_until(scenario.horizon_ns);

    let violations = checker.with(Invariants::finish);
    let mut max_view = View(0);
    let mut max_resident_blocks = 0usize;
    let mut min_honest_tip = u64::MAX;
    let mut max_journal_bytes = 0u64;
    for (i, disk) in disks.iter().enumerate().take(n) {
        let id = ReplicaId(i as u32);
        if !byzantine.contains(&id) {
            let rep = sim.replica(id);
            max_view = max_view.max(rep.current_view());
            let store = rep.store();
            max_resident_blocks = max_resident_blocks.max(store.len());
            let tip = (store.committed_offset() + store.committed_chain().len()) as u64 - 1;
            min_honest_tip = min_honest_tip.min(tip);
            max_mempool_txs = max_mempool_txs.max(rep.mempool_len());
            if with_disks {
                max_journal_bytes = max_journal_bytes.max(journal_bytes(disk));
            }
        }
    }
    ScenarioOutcome {
        protocol: format!("{kind:?}"),
        scenario: scenario.name,
        seed,
        committed: checker.with(Invariants::committed_len),
        max_view: max_view.0,
        violations,
        max_resident_blocks,
        min_honest_tip: if min_honest_tip == u64::MAX {
            0
        } else {
            min_honest_tip
        },
        max_journal_bytes,
        max_mempool_txs,
        fingerprint: checker.with(Invariants::fingerprint),
    }
}

/// Total bytes across every safety-journal generation on `disk`.
fn journal_bytes(disk: &SharedDisk) -> u64 {
    let Ok(names) = disk.list() else { return 0 };
    names
        .iter()
        .filter(|name| name.starts_with(marlin_core::journal::JOURNAL_FILE))
        .map(|name| disk.read_file(name).map(|b| b.len() as u64).unwrap_or(0))
        .sum()
}
