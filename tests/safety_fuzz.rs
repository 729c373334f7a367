//! Randomized safety fuzz (Theorem 1): under pseudo-random message
//! drops, crashes of up to `f` replicas, and adversarial timer firings,
//! no two correct replicas ever commit conflicting chains — for Marlin
//! and every baseline. After the network heals, the cluster must resume
//! committing (liveness after GST, Theorem 2).

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use marlin_bft::core::{Config, ProtocolKind};
use marlin_bft::simnet::{
    run_scenario, Behavior, BehaviorPhase, LinkFault, Partition, RecoveryMode, Scenario, SimNet,
};
use marlin_bft::telemetry::{Invariants, SharedSink};
use marlin_bft::types::{Message, ReplicaId, View};
use proptest::prelude::*;
use support::{assert_safe, instant, max_view, submit};

/// Deterministic per-message drop decision derived from the fuzz seed
/// and the message identity (stateless, so the filter stays `Fn`).
fn drops(seed: u64, from: ReplicaId, to: ReplicaId, msg: &Message, rate_pct: u64) -> bool {
    let mut h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((from.0 as u64) << 32)
        .wrapping_add((to.0 as u64) << 16)
        .wrapping_add(msg.view.0)
        .wrapping_add(msg.wire_len(false) as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h % 100 < rate_pct
}

fn fuzz_one(
    kind: ProtocolKind,
    seed: u64,
    drop_pct: u64,
    crash_one: bool,
    n: usize,
    f: usize,
) -> SharedSink<Invariants> {
    // The checker sees every vote before the drop filter does: no
    // replica may vote twice in one slot, whatever the network loses.
    let (mut sim, _, inv) = instant(kind, Config::for_test(n, f), &[]);
    sim.set_filter(Box::new(move |from, to, msg: &Message| {
        !drops(seed, from, to, msg, drop_pct)
    }));

    // Chaos phase: traffic, timer fires, and an optional crash.
    for round in 0..6u64 {
        let view = max_view(&sim);
        let leader = ReplicaId::leader_of(view, n);
        submit(&mut sim, leader, 10, 50);
        sim.run_until_idle();
        // Adversarial scheduling: fire a seed-dependent number of timers.
        for _ in 0..(seed.wrapping_add(round) % 4) {
            sim.fire_next_timer();
        }
        assert_safe(&inv);
        if crash_one && round == 2 {
            // Crash one replica (≤ f) that is not the next few leaders.
            let victim = ReplicaId(((view.0 as u32) + n as u32 - 1) % n as u32);
            sim.crash(victim);
        }
    }
    assert_safe(&inv);

    // Healing phase: no more drops; liveness must return (Theorem 2).
    sim.clear_filter();
    let before = sim.committed_blocks(healthy_replica(&sim, n));
    let target_view = max_view(&sim);
    let leader = ReplicaId::leader_of(target_view, n);
    submit(&mut sim, leader, 10, 50);
    sim.run_until_idle();
    let mut fires = 0;
    while sim.committed_blocks(healthy_replica(&sim, n)) <= before {
        assert!(
            sim.fire_next_timer(),
            "{kind:?} seed={seed}: no timers left while stalled"
        );
        sim.run_until_idle();
        fires += 1;
        assert!(
            fires < 300,
            "{kind:?} seed={seed}: liveness lost after healing"
        );
        // Keep the current leader supplied with transactions.
        let v = max_view(&sim);
        submit(&mut sim, ReplicaId::leader_of(v, n), 5, 0);
        sim.run_until_idle();
    }
    assert_safe(&inv);
    inv
}

/// Builds a random-but-healing fault schedule: one fault family
/// (crash/recover, a 2/2 partition, or a lossy window) plus an optional
/// Byzantine replica, with everything healed before the quiet point so
/// post-quiet liveness is a fair demand.
fn random_schedule(
    fault_kind: u8,
    victim: u32,
    start_ms: u64,
    dur_ms: u64,
    drop_pct: u64,
    byz_kind: u8,
    byz: u32,
) -> Scenario {
    let mut s = Scenario::new("fuzz-random", 3_000_000_000, 6_000_000_000);
    let from_ns = start_ms * 1_000_000;
    let until_ns = from_ns + dur_ms * 1_000_000;
    match fault_kind % 3 {
        0 => {
            s.crashes = vec![(ReplicaId(victim % 4), from_ns)];
            s.recoveries = vec![(ReplicaId(victim % 4), until_ns)];
        }
        1 => {
            // A 2/2 split through the victim: no side has a quorum.
            let a = victim % 4;
            let b = (victim + 1) % 4;
            let rest: Vec<ReplicaId> = (0..4u32)
                .filter(|i| *i != a && *i != b)
                .map(ReplicaId)
                .collect();
            s.partitions = vec![Partition {
                from_ns,
                until_ns,
                groups: vec![vec![ReplicaId(a), ReplicaId(b)], rest],
            }];
        }
        _ => {
            s.link_faults = vec![LinkFault {
                from_ns,
                until_ns,
                src: None,
                dst: None,
                classes: None,
                drop_prob: (drop_pct % 40) as f64 / 100.0,
                extra_delay_ns: (drop_pct % 5) * 1_000_000,
                duplicate: drop_pct.is_multiple_of(2),
            }];
        }
    }
    let behavior = match byz_kind % 5 {
        0 => None,
        1 => Some(Behavior::Silent),
        2 => Some(Behavior::HideQc),
        3 => Some(Behavior::Equivocate),
        _ => Some(Behavior::Duplicate),
    };
    if let Some(behavior) = behavior {
        s.behaviors = vec![BehaviorPhase {
            replica: ReplicaId(byz % 4),
            at_ns: 0,
            behavior,
        }];
    }
    s
}

/// Unpacks one `knobs` draw into the remaining schedule parameters
/// (victim, fault window, loss rate, Byzantine replica) via independent
/// moduli, keeping the proptest strategy tuple small.
fn schedule_from_knobs(fault_kind: u8, knobs: u64, byz_kind: u8) -> Scenario {
    let victim = (knobs % 4) as u32;
    let start_ms = 100 + (knobs / 4) % 1_400;
    let dur_ms = 200 + (knobs / 5_600) % 1_000;
    let drop_pct = (knobs / 7) % 40;
    let byz = ((knobs / 11) % 4) as u32;
    random_schedule(
        fault_kind, victim, start_ms, dur_ms, drop_pct, byz_kind, byz,
    )
}

/// Runs one random schedule through the scenario runner with the global
/// invariant checker attached; safety must hold unconditionally and
/// (for the healing schedules generated here) commits must resume after
/// the quiet point.
fn fuzz_schedule(kind: ProtocolKind, scenario: &Scenario, seed: u64, demand_liveness: bool) {
    let out = run_scenario(kind, scenario, seed);
    assert_eq!(
        out.safety_violations(),
        0,
        "{kind:?} seed={seed}: {:?}",
        out.violations
    );
    if demand_liveness {
        assert!(
            !out.has_liveness_stall(),
            "{kind:?} seed={seed}: no commits after the schedule went quiet: {:?}",
            out.violations
        );
    }
}

/// The first replica that is never crashed in this run (we only
/// crash at most one, chosen away from low ids indirectly; fall back to
/// scanning by view activity).
fn healthy_replica(sim: &SimNet, n: usize) -> ReplicaId {
    for i in 0..n as u32 {
        let id = ReplicaId(i);
        if sim.replica(id).current_view() >= View(1) && !sim.is_crashed(id) {
            return id;
        }
    }
    ReplicaId(0)
}

/// Every kind the fuzz runs.
const KINDS: [ProtocolKind; 7] = [
    ProtocolKind::Marlin,
    ProtocolKind::HotStuff,
    ProtocolKind::ChainedMarlin,
    ProtocolKind::ChainedHotStuff,
    ProtocolKind::Jolteon,
    ProtocolKind::TwoPhaseInsecure,
    ProtocolKind::MarlinFourPhase,
];

/// Fixed seeds through [`fuzz_one`]: the checker's fingerprint and
/// violations of every `(kind, seed, crash)` run, one row each, must
/// equal `tests/golden/fuzz_fingerprints.tsv` byte for byte (the
/// proptests below draw random seeds, so nothing else pins them). A
/// deliberate change re-blesses it by copying the recomputed table
/// (path printed on failure) over the golden file.
#[test]
fn fixed_seeds_match_the_golden_fingerprints() {
    let mut actual = String::from("protocol\tseed\tcrash\tfingerprint\tviolations\n");
    for kind in KINDS {
        for seed in 0..8u64 {
            for crash in [false, true] {
                let (fingerprint, violations) = fuzz_one(kind, seed, seed * 4 % 30, crash, 4, 1)
                    .with(|inv| (inv.fingerprint(), inv.violations()));
                actual.push_str(&format!(
                    "{kind:?}\t{seed}\t{crash}\t{fingerprint:016x}\t{violations:?}\n"
                ));
            }
        }
    }
    let golden = include_str!("golden/fuzz_fingerprints.tsv");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fuzz_fingerprints.tsv");
        std::fs::write(&path, &actual).expect("write recomputed table");
        let rows = actual.lines().count().abs_diff(golden.lines().count());
        let differing = rows
            + golden
                .lines()
                .zip(actual.lines())
                .filter(|(g, a)| g != a)
                .inspect(|(g, a)| eprintln!("row differs:\n  golden {g}\n  actual {a}"))
                .count();
        panic!(
            "{differing} fuzz rows differ from tests/golden/fuzz_fingerprints.tsv; \
             recomputed table written to {}",
            path.display()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn marlin_is_safe_and_recovers(seed in 0u64..1_000_000, drop_pct in 0u64..30, crash in any::<bool>()) {
        fuzz_one(ProtocolKind::Marlin, seed, drop_pct, crash, 4, 1);
    }

    #[test]
    fn marlin_seven_replicas(seed in 0u64..1_000_000, drop_pct in 0u64..25) {
        fuzz_one(ProtocolKind::Marlin, seed, drop_pct, true, 7, 2);
    }

    #[test]
    fn hotstuff_is_safe_and_recovers(seed in 0u64..1_000_000, drop_pct in 0u64..30, crash in any::<bool>()) {
        fuzz_one(ProtocolKind::HotStuff, seed, drop_pct, crash, 4, 1);
    }

    #[test]
    fn jolteon_is_safe_and_recovers(seed in 0u64..1_000_000, drop_pct in 0u64..30, crash in any::<bool>()) {
        fuzz_one(ProtocolKind::Jolteon, seed, drop_pct, crash, 4, 1);
    }

    #[test]
    fn chained_marlin_is_safe_and_recovers(seed in 0u64..1_000_000, drop_pct in 0u64..30, crash in any::<bool>()) {
        fuzz_one(ProtocolKind::ChainedMarlin, seed, drop_pct, crash, 4, 1);
    }

    #[test]
    fn chained_hotstuff_is_safe_and_recovers(seed in 0u64..1_000_000, drop_pct in 0u64..30, crash in any::<bool>()) {
        fuzz_one(ProtocolKind::ChainedHotStuff, seed, drop_pct, crash, 4, 1);
    }

    #[test]
    fn four_phase_is_safe_and_recovers(seed in 0u64..1_000_000, drop_pct in 0u64..30, crash in any::<bool>()) {
        fuzz_one(ProtocolKind::MarlinFourPhase, seed, drop_pct, crash, 4, 1);
    }

    /// Random fault schedules (crash/recover, partitions, lossy links,
    /// optional Byzantine replica) through the scenario runner and the
    /// global invariant checker: Marlin stays safe under every draw and
    /// resumes committing once the schedule heals.
    #[test]
    fn marlin_survives_random_fault_schedules(
        seed in 0u64..1_000_000,
        fault_kind in 0u8..3,
        knobs in 0u64..1_000_000_000,
        byz_kind in 0u8..5,
    ) {
        let s = schedule_from_knobs(fault_kind, knobs, byz_kind);
        fuzz_schedule(ProtocolKind::Marlin, &s, seed, true);
    }

    /// Chained (pipelined) protocols under the same random schedules —
    /// crucially including the crash+recover family, which the
    /// per-message fuzz above cannot express (`fuzz_one` crashes a
    /// replica but never restarts it). A recovery-mode knob alternates
    /// plain in-memory restarts with journal replay from disk; Amnesia
    /// is deliberately excluded because forgetting the journal is
    /// *expected* to fork the pipeline (see `tests/fault_matrix.rs`).
    #[test]
    fn chained_protocols_survive_random_fault_schedules(
        seed in 0u64..1_000_000,
        fault_kind in 0u8..3,
        knobs in 0u64..1_000_000_000,
        byz_kind in 0u8..5,
        which in 0u8..2,
        from_disk in any::<bool>(),
    ) {
        let kind = if which == 0 {
            ProtocolKind::ChainedMarlin
        } else {
            ProtocolKind::ChainedHotStuff
        };
        let mut s = schedule_from_knobs(fault_kind, knobs, byz_kind);
        if from_disk {
            s.recovery_mode = RecoveryMode::FromDisk;
        }
        fuzz_schedule(kind, &s, seed, true);
    }

    /// The same random schedules against the baselines: safety must
    /// hold unconditionally (liveness is only demanded of Marlin — the
    /// paper's claim under test).
    #[test]
    fn baselines_stay_safe_under_random_schedules(
        seed in 0u64..1_000_000,
        fault_kind in 0u8..3,
        knobs in 0u64..1_000_000_000,
        byz_kind in 0u8..5,
        which in 0u8..3,
    ) {
        let kind = match which {
            0 => ProtocolKind::MarlinFourPhase,
            1 => ProtocolKind::HotStuff,
            _ => ProtocolKind::Jolteon,
        };
        let s = schedule_from_knobs(fault_kind, knobs, byz_kind);
        fuzz_schedule(kind, &s, seed, false);
    }
}
