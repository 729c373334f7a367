//! The deterministic fault-injection matrix: every preset fault
//! schedule × {Marlin, MarlinFourPhase, HotStuff, Jolteon} × 3 seeds,
//! under the global invariant checker — plus the chained (pipelined)
//! protocols across the same presets and their own restart-fork
//! durability contrast.
//!
//! Requirements proved here:
//!
//! * **safety** — zero safety violations (conflicting commits, prefix
//!   divergence, contradicting locks) for every honest-quorum config
//!   in every schedule;
//! * **bounded recovery** — Marlin resumes committing after every
//!   schedule goes quiet (no post-quiet liveness stall);
//! * **determinism** — identical `(protocol, scenario, seed)` cells
//!   produce identical verdicts and fingerprints across repeated runs;
//! * **teeth** — the insecure two-phase strawman *fails* the checker
//!   (a detected post-quiet stall) under the Figure 2b equivocating
//!   snapshot adversary, on every seed.

use marlin_bft::core::ProtocolKind;
use marlin_bft::crypto::Digest;
use marlin_bft::simnet::{
    run_scenario, run_scenario_with_telemetry, LinkFault, MsgClass, RecoveryMode, Scenario,
    ScenarioOutcome,
};
use marlin_bft::telemetry::meter::TABLE1_AUTHS_PER_REPLICA;
use marlin_bft::telemetry::{
    Note, Registry, RegistryRecorder, SharedSink, Telemetry, TelemetrySink, ViewChanges, Violation,
};
use marlin_bft::types::{BatchId, BlockId, Justify, Message, MsgBody, Phase, Qc, ReplicaId, View};

const SEEDS: [u64; 3] = [7, 42, 2022];
const HONEST_QUORUM_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Marlin,
    ProtocolKind::MarlinFourPhase,
    ProtocolKind::HotStuff,
    ProtocolKind::Jolteon,
];
const CHAINED_PROTOCOLS: [ProtocolKind; 2] =
    [ProtocolKind::ChainedMarlin, ProtocolKind::ChainedHotStuff];

/// Runs one schedule across the protocol × seed grid and asserts the
/// safety and Marlin-liveness requirements on every cell.
fn check_schedule(scenario: &Scenario) -> Vec<ScenarioOutcome> {
    let mut outcomes = Vec::new();
    for kind in HONEST_QUORUM_PROTOCOLS {
        for seed in SEEDS {
            let out = run_scenario(kind, scenario, seed);
            assert_eq!(
                out.safety_violations(),
                0,
                "{kind:?} under {} (seed {seed}): safety violations {:?}",
                scenario.name,
                out.violations
            );
            if kind == ProtocolKind::Marlin {
                assert!(
                    !out.has_liveness_stall(),
                    "Marlin failed to recover after {} went quiet (seed {seed}): {:?}",
                    scenario.name,
                    out.violations
                );
                // Recovery is bounded: the view counter must not have
                // run away while the cluster healed.
                assert!(
                    out.max_view <= 16,
                    "Marlin consumed {} views recovering from {}",
                    out.max_view,
                    scenario.name
                );
            }
            assert!(
                out.committed > 1,
                "{kind:?} under {} (seed {seed}) never committed anything",
                scenario.name
            );
            outcomes.push(out);
        }
    }
    outcomes
}

#[test]
fn matrix_crash_recover_leaders() {
    check_schedule(&Scenario::crash_recover_leaders());
}

#[test]
fn matrix_partition_heal() {
    check_schedule(&Scenario::partition_heal());
}

#[test]
fn matrix_lossy_links() {
    check_schedule(&Scenario::lossy_links());
}

#[test]
fn matrix_equivocating_leader() {
    check_schedule(&Scenario::equivocating_leader());
}

#[test]
fn matrix_equivocate_then_silent() {
    check_schedule(&Scenario::equivocate_then_silent());
}

#[test]
fn matrix_unsafe_snapshot() {
    // The Figure 2b schedule: Marlin, the four-phase ablation, and
    // three-phase HotStuff recover. (Jolteon legitimately wedges: its
    // lock report rides only in suppressed VIEW-CHANGE messages, while
    // Marlin's travels in Case R2 votes — the linearity argument.)
    let scenario = Scenario::unsafe_snapshot();
    for kind in [
        ProtocolKind::Marlin,
        ProtocolKind::MarlinFourPhase,
        ProtocolKind::HotStuff,
    ] {
        for seed in SEEDS {
            let out = run_scenario(kind, &scenario, seed);
            assert_eq!(out.safety_violations(), 0, "{kind:?} seed {seed}");
            assert!(
                !out.has_liveness_stall(),
                "{kind:?} wedged under unsafe-snapshot (seed {seed}): {:?}",
                out.violations
            );
        }
    }
}

#[test]
fn matrix_equivocate_unsafe_snapshot() {
    let scenario = Scenario::equivocate_unsafe_snapshot();
    for kind in [
        ProtocolKind::Marlin,
        ProtocolKind::MarlinFourPhase,
        ProtocolKind::HotStuff,
    ] {
        for seed in SEEDS {
            let out = run_scenario(kind, &scenario, seed);
            assert_eq!(out.safety_violations(), 0, "{kind:?} seed {seed}");
            assert!(
                !out.has_liveness_stall(),
                "{kind:?} wedged under equivocate-unsafe-snapshot (seed {seed}): {:?}",
                out.violations
            );
        }
    }
}

#[test]
fn insecure_two_phase_fails_the_checker_under_equivocation() {
    // The checker has teeth: the Section IV-B strawman visibly fails
    // under the equivocating Figure 2b adversary — every seed detects
    // the post-quiet wedge — while Marlin passes the identical
    // schedule.
    for scenario in [
        Scenario::equivocate_unsafe_snapshot(),
        Scenario::unsafe_snapshot(),
    ] {
        for seed in SEEDS {
            let bad = run_scenario(ProtocolKind::TwoPhaseInsecure, &scenario, seed);
            assert!(
                !bad.violations.is_empty(),
                "checker detected nothing for TwoPhaseInsecure under {} (seed {seed})",
                scenario.name
            );
            assert!(
                bad.has_liveness_stall(),
                "expected the Figure 2b wedge under {} (seed {seed}), got {:?}",
                scenario.name,
                bad.violations
            );
            let good = run_scenario(ProtocolKind::Marlin, &scenario, seed);
            assert!(
                good.violations.is_empty(),
                "Marlin should pass {} (seed {seed}): {:?}",
                scenario.name,
                good.violations
            );
        }
    }
}

#[test]
fn matrix_chained_protocols_all_presets() {
    // The pipelined protocols run the full preset campaign: every
    // schedule, both commit rules, every seed — zero safety violations,
    // no post-quiet stall, bounded view consumption, and real progress.
    // (Note this includes the Figure 2b snapshot schedules, whose
    // adversary understands one-broadcast-per-round pipelines.)
    for scenario in Scenario::all_presets() {
        for kind in CHAINED_PROTOCOLS {
            for seed in SEEDS {
                let out = run_scenario(kind, &scenario, seed);
                assert_eq!(
                    out.safety_violations(),
                    0,
                    "{kind:?} under {} (seed {seed}): safety violations {:?}",
                    scenario.name,
                    out.violations
                );
                assert!(
                    !out.has_liveness_stall(),
                    "{kind:?} failed to recover after {} went quiet (seed {seed}): {:?}",
                    scenario.name,
                    out.violations
                );
                assert!(
                    out.max_view <= 16,
                    "{kind:?} consumed {} views recovering from {}",
                    out.max_view,
                    scenario.name
                );
                assert!(
                    out.committed > 1,
                    "{kind:?} under {} (seed {seed}) never committed anything",
                    scenario.name
                );
            }
        }
    }
}

/// Safe, live, a deep lag actually created, and the crashed replica
/// back at (or within a pipeline's reach of) the committed tip.
fn assert_caught_up(out: &ScenarioOutcome, scenario: &Scenario, seed: u64) {
    assert_eq!(
        out.safety_violations(),
        0,
        "{} {} (seed {seed}): safety violations {:?}",
        scenario.name,
        out.protocol,
        out.violations
    );
    assert!(
        !out.has_liveness_stall(),
        "{} {} (seed {seed}): stalled {:?}",
        scenario.name,
        out.protocol,
        out.violations
    );
    // The trio must have committed far past the lag threshold while p3
    // was down, or the cell is not exercising sync at all.
    assert!(
        out.committed > 300,
        "{} {} (seed {seed}): only {} blocks committed — the schedule no longer \
         creates a deep lag",
        scenario.name,
        out.protocol,
        out.committed
    );
    // Rejoin: the worst honest tip (p3's) is within one sync pipeline
    // of the canonical tip, not thousands of blocks behind it.
    let canonical_tip = out.committed as u64 - 1;
    assert!(
        out.min_honest_tip + scenario.config.sync_lag_threshold + 16 >= canonical_tip,
        "{} {} (seed {seed}): a replica is wedged at height {} with the tip at {}",
        scenario.name,
        out.protocol,
        out.min_honest_tip,
        canonical_tip
    );
}

/// Asserts the long-lag rejoin contract on one outcome: caught up
/// ([`assert_caught_up`]), and every honest replica's resident block
/// tree bounded by the snapshot horizon instead of the chain length.
fn assert_rejoined(out: &ScenarioOutcome, scenario: &Scenario, seed: u64) {
    assert_caught_up(out, scenario, seed);
    // Storage boundedness: the snapshot horizon keeps about two
    // intervals of committed blocks resident (plus uncommitted
    // in-flight forks); the chain itself is several times longer.
    let bound = (3 * scenario.config.sync_snapshot_interval + 64) as usize;
    assert!(
        out.max_resident_blocks < bound,
        "{} {} (seed {seed}): {} resident blocks exceeds the horizon bound {bound} \
         (chain length {})",
        scenario.name,
        out.protocol,
        out.max_resident_blocks,
        out.committed
    );
    // Journal boundedness: generation GC is keyed to the same snapshot
    // horizon, so journal disk must stay flat in chain length — a
    // generous absolute cap (one generation holds < SNAPSHOT_EVERY + 1
    // records of ≤ ~200 framed bytes) that unbounded growth at
    // thousands of committed blocks would blow through immediately.
    assert!(
        out.max_journal_bytes > 0,
        "{} {} (seed {seed}): journaled scenario reported no journal bytes",
        scenario.name,
        out.protocol
    );
    assert!(
        out.max_journal_bytes < 64 * 1024,
        "{} {} (seed {seed}): journal footprint {} bytes is unbounded in chain \
         length {}",
        scenario.name,
        out.protocol,
        out.max_journal_bytes,
        out.committed
    );
}

/// The rejoin cells' grid: every kind syncs. Marlin runs every seed,
/// the other six the first only (a seven-kind long-lag cell takes
/// about 30 s in a debug build).
fn rejoin_grid() -> impl Iterator<Item = (ProtocolKind, u64)> {
    ALL_PROTOCOLS.into_iter().flat_map(|kind| {
        let seeds = if kind == ProtocolKind::Marlin {
            &SEEDS[..]
        } else {
            &SEEDS[..1]
        };
        seeds.iter().map(move |&seed| (kind, seed))
    })
}

/// Runs one rejoin cell with a registry attached and asserts the
/// rejoin contract ([`assert_rejoined`]) and that the sync engine did
/// it: a snapshot anchor installed (no genesis replay) and a run
/// completed. Returns the registry for cell-specific checks.
fn assert_rejoin_cell(kind: ProtocolKind, scenario: &Scenario, seed: u64) -> Registry {
    let registry = Registry::new();
    let recorder = SharedSink::new(RegistryRecorder::new(&registry));
    let out = run_scenario_with_telemetry(kind, scenario, seed, Box::new(recorder));
    assert_rejoined(&out, scenario, seed);
    let count = |name| registry.counter_with(name, &[]).get();
    assert!(
        count("consensus_sync_snapshots_installed_total") >= 1,
        "{} {kind:?} (seed {seed}) never installed a snapshot anchor",
        scenario.name
    );
    assert!(
        count("consensus_sync_completed_total") >= 1,
        "{} {kind:?} (seed {seed}): sync never completed",
        scenario.name
    );
    registry
}

#[test]
fn long_lag_rejoin_via_snapshot_and_ranged_sync() {
    // The sync tentpole: p3 is down while thousands of blocks commit,
    // recovers FromDisk, and must rejoin via snapshot + pipelined
    // ranges with bounded storage on every replica, for every kind.
    let scenario = Scenario::long_lag_rejoin();
    for (kind, seed) in rejoin_grid() {
        assert_rejoin_cell(kind, &scenario, seed);
    }
}

#[test]
fn byzantine_sync_peer_cannot_block_rejoin() {
    // Same schedule, but p1 serves conflicting twins in every sync
    // response. The anchor check and the certified-prefix walk must
    // reject them, demote p1, and complete the rejoin from honest peers.
    let scenario = Scenario::byzantine_sync_peer();
    for (kind, seed) in rejoin_grid() {
        let registry = assert_rejoin_cell(kind, &scenario, seed);
        assert!(
            registry
                .counter_with("consensus_sync_peer_demotions_total", &[("peer", "1")])
                .get()
                >= 1,
            "{kind:?} (seed {seed}): the corrupt sync peer p1 was never demoted"
        );
    }
}

#[test]
fn sync_run_abandons_a_chunk_every_peer_pruned() {
    // The long-lag schedule, but every sync answer into p3 (snapshot
    // and range responses) is lost for its first half second back. Its
    // snapshot phase times out and falls back to ranges from its tip of
    // 4 s ago, while the trio commits many snapshot intervals past it
    // inside each 4-tick chunk deadline, pruning as it goes. Once
    // answers flow, every peer serves those chunks short: the run must
    // give up, and the next commit certificate restart sync with a
    // fresh snapshot decision. A run that re-requests such a chunk
    // forever never rejoins. The proposals p3 stores while it waits sit
    // below the anchor it then installs, which drops them, so the
    // storage bound holds too.
    let mut scenario = Scenario::long_lag_rejoin();
    scenario.name = "unservable-sync-chunk";
    scenario.link_faults = vec![LinkFault {
        dst: Some(ReplicaId(3)),
        classes: Some(vec![MsgClass::Sync]),
        ..LinkFault::drop_all(4_000_000_000, 4_500_000_000)
    }];
    for seed in SEEDS {
        let out = run_scenario(ProtocolKind::Marlin, &scenario, seed);
        assert_rejoined(&out, &scenario, seed);
    }
}

#[test]
fn sync_telemetry_proves_the_engine_ran() {
    // Guard against the rejoin silently happening through some other
    // path: the telemetry stream must show a sync run starting, a
    // snapshot anchor installing, ranges arriving, completion — and,
    // with the corrupt peer, at least one demotion of p1 specifically.
    let registry = Registry::new();
    let recorder = SharedSink::new(RegistryRecorder::new(&registry));
    let scenario = Scenario::byzantine_sync_peer();
    let out = run_scenario_with_telemetry(
        ProtocolKind::Marlin,
        &scenario,
        SEEDS[0],
        Box::new(recorder),
    );
    assert_rejoined(&out, &scenario, SEEDS[0]);
    let count = |name| registry.counter_with(name, &[]).get();
    assert!(
        count("consensus_sync_started_total") >= 1,
        "no sync run started"
    );
    assert!(
        count("consensus_sync_snapshots_installed_total") >= 1,
        "the rejoin never installed a snapshot anchor"
    );
    assert!(
        count("consensus_sync_ranges_fetched_total") >= 2,
        "ranged fetch barely ran: {} ranges",
        count("consensus_sync_ranges_fetched_total")
    );
    assert!(
        count("consensus_sync_completed_total") >= 1,
        "no sync run completed"
    );
    assert!(
        registry
            .counter_with("consensus_sync_peer_demotions_total", &[("peer", "1")])
            .get()
            >= 1,
        "the corrupt sync peer p1 was never demoted"
    );
}

#[test]
#[ignore = "release soak: a >10k-block rejoin; run with --release --ignored (CI sync job)"]
fn long_lag_rejoin_10k_blocks() {
    // The headline cell at full scale: p3 is down while >10k blocks
    // commit, then rejoins via snapshot + ranged sync with bounded
    // storage everywhere. (~1.5 s wall in release; far slower in
    // debug, hence the ignore gate.)
    let scenario = Scenario::long_lag_rejoin_scaled(5);
    let out = run_scenario(ProtocolKind::Marlin, &scenario, SEEDS[0]);
    assert_rejoined(&out, &scenario, SEEDS[0]);
    assert!(
        out.committed > 10_000,
        "only {} blocks committed before the rejoin window",
        out.committed
    );
}

#[test]
fn sync_cells_are_deterministic() {
    for scenario in [Scenario::long_lag_rejoin(), Scenario::byzantine_sync_peer()] {
        for kind in ALL_PROTOCOLS {
            let a = run_scenario(kind, &scenario, SEEDS[0]);
            let b = run_scenario(kind, &scenario, SEEDS[0]);
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{} {kind:?} is nondeterministic",
                scenario.name
            );
            assert_eq!(a.committed, b.committed);
            assert_eq!(a.max_resident_blocks, b.max_resident_blocks);
            assert_eq!(a.max_journal_bytes, b.max_journal_bytes);
            assert_eq!(a.violations, b.violations);
        }
    }
}

#[test]
fn restart_amnesia_forks_but_journal_replay_does_not() {
    // The durability contrast (Issue 3's payoff): one crash-restart
    // schedule, three recovery modes. An amnesiac restart of the voter
    // p0 and the leader p1 re-runs view 1 and commits a conflicting
    // height-1 block — the checker pins the cause on p0's double vote.
    // Replaying the on-disk safety journals instead (including p0's
    // crash-truncated final record, discarded by CRC) blocks every
    // re-vote, and the identical schedule stays safe and live.
    for seed in SEEDS {
        let amnesia = run_scenario(
            ProtocolKind::Marlin,
            &Scenario::restart_fork(RecoveryMode::Amnesia),
            seed,
        );
        assert_eq!(
            amnesia.verdict(),
            "SAFETY",
            "amnesiac restart should fork (seed {seed}): {:?}",
            amnesia.violations
        );
        assert!(
            amnesia
                .violations
                .iter()
                .any(|v| matches!(v, Violation::DoubleVote { .. })),
            "the fork should be pinned on a double vote (seed {seed}): {:?}",
            amnesia.violations
        );

        let from_disk = run_scenario(
            ProtocolKind::Marlin,
            &Scenario::restart_fork(RecoveryMode::FromDisk),
            seed,
        );
        assert_eq!(
            from_disk.safety_violations(),
            0,
            "journal replay must keep the identical schedule safe (seed {seed}): {:?}",
            from_disk.violations
        );
        assert!(
            !from_disk.has_liveness_stall(),
            "journal replay must also stay live (seed {seed}): {:?}",
            from_disk.violations
        );

        let with_memory = run_scenario(
            ProtocolKind::Marlin,
            &Scenario::restart_fork(RecoveryMode::WithMemory),
            seed,
        );
        assert_eq!(
            with_memory.verdict(),
            "OK",
            "in-memory recovery baseline must be clean (seed {seed}): {:?}",
            with_memory.violations
        );
    }
}

#[test]
fn chained_restart_amnesia_forks_but_journal_replay_does_not() {
    // The same durability contrast for the pipelined protocols: an
    // amnesiac restart of voter p0 and leader p1 re-runs the pipeline
    // from genesis — p1 re-certifies the deterministic empty start
    // block, then pipelines a conflicting client block at an
    // already-voted height, which p0 double-votes into a committed
    // fork. Journal replay (p0's crash-truncated final record
    // discarded by CRC) pins every pre-crash vote and the identical
    // schedule stays safe and live, for both commit rules.
    for kind in CHAINED_PROTOCOLS {
        for seed in SEEDS {
            let amnesia = run_scenario(
                kind,
                &Scenario::chained_restart_fork(RecoveryMode::Amnesia),
                seed,
            );
            assert_eq!(
                amnesia.verdict(),
                "SAFETY",
                "{kind:?}: amnesiac restart should fork (seed {seed}): {:?}",
                amnesia.violations
            );
            assert!(
                amnesia
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::DoubleVote { .. })),
                "{kind:?}: the fork should be pinned on a double vote (seed {seed}): {:?}",
                amnesia.violations
            );

            let from_disk = run_scenario(
                kind,
                &Scenario::chained_restart_fork(RecoveryMode::FromDisk),
                seed,
            );
            assert_eq!(
                from_disk.safety_violations(),
                0,
                "{kind:?}: journal replay must keep the identical schedule safe \
                 (seed {seed}): {:?}",
                from_disk.violations
            );
            assert!(
                !from_disk.has_liveness_stall(),
                "{kind:?}: journal replay must also stay live (seed {seed}): {:?}",
                from_disk.violations
            );

            let with_memory = run_scenario(
                kind,
                &Scenario::chained_restart_fork(RecoveryMode::WithMemory),
                seed,
            );
            assert_eq!(
                with_memory.verdict(),
                "OK",
                "{kind:?}: in-memory recovery baseline must be clean (seed {seed}): {:?}",
                with_memory.violations
            );
        }
    }
}

#[test]
fn journaled_restart_never_forks_for_any_protocol() {
    // Every protocol journals, so the durability contrast is not a
    // Marlin (or chained) privilege: on the restart schedule whose
    // amnesiac variant forks, no replay-from-disk and no in-memory
    // recovery cell of any kind may record a safety violation.
    for mode in [RecoveryMode::FromDisk, RecoveryMode::WithMemory] {
        let scenario = Scenario::restart_fork(mode);
        for kind in ALL_PROTOCOLS {
            for seed in SEEDS {
                let out = run_scenario(kind, &scenario, seed);
                assert_ne!(
                    out.verdict(),
                    "SAFETY",
                    "{kind:?} under {} (seed {seed}): {:?}",
                    scenario.name,
                    out.violations
                );
            }
        }
    }
}

#[test]
fn identical_seeds_give_identical_verdicts() {
    // Determinism across repeated runs: same cell, same fingerprint,
    // same verdict — for a safety-clean cell and for a wedged one.
    let cells = [
        (ProtocolKind::Marlin, Scenario::lossy_links()),
        (ProtocolKind::Jolteon, Scenario::crash_recover_leaders()),
        (
            ProtocolKind::TwoPhaseInsecure,
            Scenario::equivocate_unsafe_snapshot(),
        ),
        (
            ProtocolKind::ChainedMarlin,
            Scenario::chained_restart_fork(RecoveryMode::Amnesia),
        ),
        (ProtocolKind::ChainedHotStuff, Scenario::lossy_links()),
    ];
    for (kind, scenario) in cells {
        for seed in SEEDS {
            let a = run_scenario(kind, &scenario, seed);
            let b = run_scenario(kind, &scenario, seed);
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{kind:?} under {} (seed {seed}) is nondeterministic",
                scenario.name
            );
            assert_eq!(a.verdict(), b.verdict());
            assert_eq!(a.committed, b.committed);
            assert_eq!(a.violations, b.violations);
        }
    }
}

#[test]
fn overload_sheds_load_without_losing_liveness_or_memory() {
    // The admission-control cell: every client batch alone exceeds the
    // mempool capacity, and the view-1 leader crashes mid-flood. The
    // cluster must shed the excess through explicit rejections (not
    // queue growth), keep committing through the view change, and no
    // honest replica's mempool may ever exceed its configured bound.
    let scenario = Scenario::overload();
    for seed in SEEDS {
        let registry = Registry::new();
        let recorder = SharedSink::new(RegistryRecorder::new(&registry));
        let out =
            run_scenario_with_telemetry(ProtocolKind::Marlin, &scenario, seed, Box::new(recorder));
        assert_eq!(
            out.safety_violations(),
            0,
            "overload (seed {seed}): safety violations {:?}",
            out.violations
        );
        assert!(
            !out.has_liveness_stall(),
            "overload (seed {seed}): cluster wedged under backpressure {:?}",
            out.violations
        );
        // Goodput plateaus instead of collapsing: real blocks keep
        // committing through the crash and the sustained 2×+ flood.
        assert!(
            out.committed > 50,
            "overload (seed {seed}): only {} blocks committed",
            out.committed
        );
        // Memory boundedness, sampled mid-flood at every batch point:
        // residency never exceeds the configured admission capacity.
        assert!(
            out.max_mempool_txs <= scenario.config.mempool_capacity,
            "overload (seed {seed}): mempool grew to {} txs past the {} cap",
            out.max_mempool_txs,
            scenario.config.mempool_capacity
        );
        assert!(
            out.max_mempool_txs > 0,
            "overload (seed {seed}): the flood never reached a mempool"
        );
        // Backpressure engaged: the telemetry stream shows real
        // admissions *and* real rejections.
        let count = |name| registry.counter_with(name, &[]).get();
        assert!(
            count("consensus_mempool_admitted_total") > 0,
            "overload (seed {seed}): nothing admitted"
        );
        assert!(
            count("consensus_mempool_rejected_total") > 0,
            "overload (seed {seed}): admission control never rejected — \
             the flood is not exceeding capacity"
        );
    }
}

/// What the payload plane put on the record in one cell: batches
/// pushed, availability quorums reached, and `DIGEST-PROPOSAL` frames
/// sent (counted per destination copy).
#[derive(Default)]
struct DigestPlane {
    pushed: usize,
    quorums: usize,
    digest_frames: usize,
}

impl TelemetrySink for DigestPlane {
    fn record(&mut self, _at_ns: u64, _replica: ReplicaId, event: Telemetry<'_>) {
        match event {
            Telemetry::Note(Note::PayloadPushed { .. }) => self.pushed += 1,
            Telemetry::Note(Note::PayloadQuorum { .. }) => self.quorums += 1,
            // A digest proposal classifies as a prepare proposal; it is
            // the one such frame of its fixed length (a full proposal
            // carries a block, and the block its own justify).
            Telemetry::Sent { class, bytes, .. }
                if class == MsgClass::Proposal(Phase::Prepare)
                    && bytes == digest_proposal_len() =>
            {
                self.digest_frames += 1
            }
            _ => {}
        }
    }
}

/// The wire length of a `DIGEST-PROPOSAL` under threshold QCs (every
/// field is fixed-width, so any digest, view and QC give the same).
fn digest_proposal_len() -> u64 {
    let body = MsgBody::DigestProposal {
        digest: BatchId::from_digest(Digest::ZERO),
        justify: Justify::One(Qc::genesis(BlockId::GENESIS)),
    };
    Message::new(ReplicaId(0), View(1), body).wire_len(false) as u64
}

#[test]
fn overload_with_dissemination_proposes_digests_for_every_kind() {
    // The overload cell with the payload plane on: admitted
    // transactions are sealed and pushed ahead of consensus, and the
    // leader proposes quorum-acked digests. Dissemination is the
    // replica's, not one rule set's: every kind must stay safe and
    // live, keep its mempool bounded, and show the digest path ran.
    let mut scenario = Scenario::overload();
    scenario.config.dissemination = true;
    for kind in ALL_PROTOCOLS {
        for seed in SEEDS {
            let plane = SharedSink::new(DigestPlane::default());
            let out = run_scenario_with_telemetry(kind, &scenario, seed, Box::new(plane.clone()));
            let cell = format!("{kind:?} overload+dissemination (seed {seed})");
            assert_eq!(out.verdict(), "OK", "{cell}: {:?}", out.violations);
            assert!(
                out.committed > 50,
                "{cell}: only {} blocks committed",
                out.committed
            );
            assert!(
                out.max_mempool_txs <= scenario.config.mempool_capacity,
                "{cell}: mempool grew to {} txs past the {} cap",
                out.max_mempool_txs,
                scenario.config.mempool_capacity
            );
            plane.with(|p| {
                assert!(p.pushed > 0, "{cell}: no batch was pushed");
                assert!(p.quorums > 0, "{cell}: no availability quorum");
                assert!(p.digest_frames > 0, "{cell}: no digest proposal sent");
            });
        }
    }
}

#[test]
fn cold_start_joins_from_snapshot_anchor_not_genesis() {
    // The cold-start cell: p3 crashes on the first nanosecond with an
    // empty disk and recovers FromDisk after the trio has committed
    // hundreds of blocks. The rejoin must install a peer's snapshot
    // anchor (bounded catch-up) rather than replaying the chain from
    // genesis, and every replica's resident block tree stays bounded
    // by the snapshot horizon, for every kind.
    let scenario = Scenario::cold_start_join();
    for (kind, seed) in rejoin_grid() {
        assert_rejoin_cell(kind, &scenario, seed);
    }
}

/// Every protocol, in the column order of `tests/golden/campaign.tsv`.
const ALL_PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::Marlin,
    ProtocolKind::MarlinFourPhase,
    ProtocolKind::HotStuff,
    ProtocolKind::Jolteon,
    ProtocolKind::TwoPhaseInsecure,
    ProtocolKind::ChainedMarlin,
    ProtocolKind::ChainedHotStuff,
];

/// Recomputes the campaign table: one `(preset, protocol, seed)` row
/// per cell with its verdict, fingerprint and committed chain length.
/// Every cell also runs under the view-change meter, and each window
/// that reached a commit is held to the Table I bound
/// (`TABLE1_AUTHS_PER_REPLICA · n` authenticators). Jolteon is measured
/// but not bounded: its O(n²) term only shows as n grows, which
/// `paper_claims.rs` pins from n = 4 to 16. The per-kind coverage
/// (windows, windows that committed, the largest count and its cell) is
/// printed.
fn campaign_table() -> String {
    // Every kind runs the restart cells; they are two groups only
    // because the table grows by appending (the second group is the
    // kinds that got a journal later).
    let journaled_first = [
        ProtocolKind::Marlin,
        ProtocolKind::ChainedMarlin,
        ProtocolKind::ChainedHotStuff,
    ];
    let mut journaled_since = ALL_PROTOCOLS.to_vec();
    journaled_since.retain(|k| !journaled_first.contains(k));
    let mut grids: Vec<(Scenario, &[ProtocolKind])> = Vec::new();
    for s in Scenario::all_presets() {
        grids.push((s, &ALL_PROTOCOLS));
    }
    for s in Scenario::restart_presets() {
        grids.push((s, &journaled_first));
    }
    for s in Scenario::chained_restart_presets() {
        grids.push((s, &CHAINED_PROTOCOLS));
    }
    for s in Scenario::restart_presets() {
        grids.push((s, &journaled_since));
    }
    let mut table = String::from("preset\tprotocol\tseed\tverdict\tfingerprint\tcommitted\n");
    // Per kind: windows, windows that committed, (max auths, its cell).
    let mut coverage: Vec<(usize, usize, u64, String)> =
        vec![Default::default(); ALL_PROTOCOLS.len()];
    let mut over_bound = Vec::new();
    for (scenario, kinds) in &grids {
        for &kind in *kinds {
            for seed in SEEDS {
                let meter = SharedSink::new(ViewChanges::new());
                let out =
                    run_scenario_with_telemetry(kind, scenario, seed, Box::new(meter.clone()));
                let bound = TABLE1_AUTHS_PER_REPLICA * scenario.config.n as u64;
                let row = &mut coverage[ALL_PROTOCOLS.iter().position(|k| *k == kind).unwrap()];
                let meter = meter.into_inner().expect("the run dropped its sink");
                for window in meter.windows() {
                    row.0 += 1;
                    let Some(traffic) = &window.at_first_commit else {
                        continue;
                    };
                    row.1 += 1;
                    let auths = traffic.protocol_total().authenticators;
                    let path = if window.happy { "happy" } else { "unhappy" };
                    let cell = format!("{} seed {seed} {path}", scenario.name);
                    if auths > row.2 {
                        (row.2, row.3) = (auths, cell.clone());
                    }
                    if auths > bound && kind != ProtocolKind::Jolteon {
                        over_bound
                            .push(format!("{kind:?} {cell}: {auths} > {bound} ({traffic:?})"));
                    }
                }
                table.push_str(&format!(
                    "{}\t{kind:?}\t{seed}\t{}\t{:016x}\t{}\n",
                    scenario.name,
                    out.verdict(),
                    out.fingerprint,
                    out.committed
                ));
            }
        }
    }
    println!("kind\twindows\tcommitted\tmax auths to first commit\tcell");
    for (kind, (windows, committed, max, cell)) in ALL_PROTOCOLS.iter().zip(&coverage) {
        println!("{kind:?}\t{windows}\t{committed}\t{max}\t{cell}");
    }
    assert_eq!(
        over_bound,
        Vec::<String>::new(),
        "view changes over Table I's bound"
    );
    table
}

#[test]
fn campaign_matches_golden_table() {
    // The equivalence oracle for refactors of the protocol cores: every
    // preset × all seven protocols × three seeds, plus the restart
    // cells (every protocol journals), must reproduce the committed
    // table byte for byte. A deliberate behaviour change re-blesses it
    // by copying the recomputed table (path printed below) over
    // `tests/golden/campaign.tsv`.
    let golden = include_str!("golden/campaign.tsv");
    let actual = campaign_table();
    if actual == golden {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("campaign.actual.tsv");
    std::fs::write(&path, &actual).expect("write recomputed table");
    let key = |row: &str| row.splitn(4, '\t').take(3).collect::<Vec<_>>().join("\t");
    let golden_rows: std::collections::BTreeMap<String, &str> =
        golden.lines().map(|r| (key(r), r)).collect();
    let mut differing = 0usize;
    for row in actual.lines().skip(1) {
        match golden_rows.get(&key(row)) {
            Some(g) if *g == row => {}
            Some(g) => {
                differing += 1;
                eprintln!("cell differs:\n  golden {g}\n  actual {row}");
            }
            None => {
                differing += 1;
                eprintln!("cell missing from golden table:\n  actual {row}");
            }
        }
    }
    panic!(
        "{differing} of {} campaign cells differ from tests/golden/campaign.tsv \
         ({} golden rows); recomputed table written to {}",
        actual.lines().count() - 1,
        golden.lines().count().saturating_sub(1),
        path.display()
    );
}
