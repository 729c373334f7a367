//! Property test: a *chained* (pipelined) replica driven through random
//! traffic, torn writes, and crash/restart points keeps its journaled
//! safety state bracketed — the pipelined analogue of
//! `journal_props.rs`, but with the journal fed by a live replica
//! instead of a synthetic append schedule.
//!
//! The victim replica runs journal-backed inside a 4-replica cluster on
//! the simulator's zero-latency profile. At random points its disk tears the next write (so the
//! write-ahead rule withholds a vote), and at random points it crashes:
//! the disk drops its unsynced tail, the journal reopens, and the
//! replayed [`SafetySnapshot`] must satisfy
//!
//! * **no invention** — the replayed view and `last_voted` never exceed
//!   any view the cluster actually reached;
//! * **no regression** — each successive replay ranks at least as high
//!   as the previous one (everything acknowledged between two crashes
//!   can only push the fold upward), for the view, `last_voted`, the
//!   lock, and the `highQC`;
//! * **faithful adoption** — `recover()` seeds the fresh replica with
//!   exactly the replayed snapshot (`lb`, lock, `highQC`), so the
//!   restarted voter cannot re-vote a journaled height.
//!
//! The restarted replica rejoins the pipeline (with uncommitted
//! in-flight ancestors still live on the other three) and the cluster
//! must stay consistent and keep committing — and the restarted voter
//! must never vote twice in one slot (the invariant checker's
//! `DoubleVote`, the property the write-ahead journal exists for).

mod support;

use std::cmp::Ordering;

use marlin_core::chained::{ChainedHotStuff, ChainedMarlin};
use marlin_core::{Config, Protocol, SafetyJournal, SafetySnapshot};
use marlin_simnet::SimNet;
use marlin_storage::SharedDisk;
use marlin_types::rank::{block_rank_gt, qc_rank_cmp};
use marlin_types::{Justify, ReplicaId, View};
use proptest::prelude::*;
use support::{assert_safe, instant_with, max_view, submit};

/// SplitMix64, as in `journal_props.rs`: one `u64` seed drives the
/// whole schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn boxed_fresh(hotstuff: bool, cfg: Config) -> Box<dyn Protocol> {
    if hotstuff {
        Box::new(ChainedHotStuff::new(cfg))
    } else {
        Box::new(ChainedMarlin::new(cfg))
    }
}

/// Crashes the victim, reopens its journal from the (possibly torn)
/// disk, asserts the bracketing invariants against the previous replay,
/// and restarts the victim from the replayed snapshot.
fn crash_restart_check(
    sim: &mut SimNet,
    disk: &SharedDisk,
    victim: ReplicaId,
    hotstuff: bool,
    last_replayed: &mut Option<SafetySnapshot>,
) {
    sim.crash(victim);
    disk.crash();
    let journal = SafetyJournal::open(disk.clone()).expect("reopen journal after crash");
    let replayed = *journal.state();

    // No invention: the journal only ever saw state the replica acted
    // on, so replay cannot exceed any view the cluster reached.
    let max_view = max_view(sim);
    assert!(
        replayed.view <= max_view,
        "replayed view {:?} exceeds the cluster's max view {max_view:?}",
        replayed.view
    );
    assert!(
        replayed.last_voted.view <= max_view,
        "replayed last_voted {:?} exceeds the cluster's max view {max_view:?}",
        replayed.last_voted
    );

    // No regression: acknowledged appends between two crashes only push
    // the fold upward, so each replay ranks at least as high as the
    // previous one.
    if let Some(prev) = last_replayed {
        assert!(
            replayed.view >= prev.view,
            "replayed view {:?} regressed below the previous replay {:?}",
            replayed.view,
            prev.view
        );
        assert!(
            !block_rank_gt(&prev.last_voted, &replayed.last_voted),
            "replayed last_voted regressed: {:?} vs previous {:?}",
            replayed.last_voted,
            prev.last_voted
        );
        match (&prev.locked_qc, &replayed.locked_qc) {
            (Some(_), None) => panic!("replay lost an acknowledged lock: {replayed:?}"),
            (Some(p), Some(r)) => assert_ne!(
                qc_rank_cmp(p, r),
                Ordering::Greater,
                "replayed lock regressed: {r:?} vs previous {p:?}"
            ),
            _ => {}
        }
        match (prev.high_qc.qc(), replayed.high_qc.qc()) {
            (Some(_), None) => panic!("replay lost an acknowledged highQC: {replayed:?}"),
            (Some(p), Some(r)) => assert_ne!(
                qc_rank_cmp(p, r),
                Ordering::Greater,
                "replayed highQC regressed: {r:?} vs previous {p:?}"
            ),
            _ => {}
        }
    }

    // Faithful adoption: the recovered replica's in-memory safety state
    // is exactly the replayed snapshot, so journaled heights cannot be
    // re-voted after the restart.
    let cfg = Config::for_test(4, 1).with_id(victim);
    let rebuilt: Box<dyn Protocol> = if hotstuff {
        let rep = ChainedHotStuff::recover(cfg, journal);
        assert_eq!(*rep.last_voted(), replayed.last_voted);
        assert_eq!(rep.locked_qc().copied(), replayed.locked_qc);
        if !matches!(replayed.high_qc, Justify::None) {
            assert_eq!(*rep.high_qc(), replayed.high_qc);
        }
        Box::new(rep)
    } else {
        let rep = ChainedMarlin::recover(cfg, journal);
        assert_eq!(*rep.last_voted(), replayed.last_voted);
        assert_eq!(rep.locked_qc().copied(), replayed.locked_qc);
        if !matches!(replayed.high_qc, Justify::None) {
            assert_eq!(*rep.high_qc(), replayed.high_qc);
        }
        Box::new(rep)
    };
    sim.restart(victim, rebuilt);
    *last_replayed = Some(replayed);
}

/// One random schedule: traffic rounds with adversarial timer firings,
/// randomly armed torn writes on the victim's disk, and random
/// crash/replay/restart points, ending in a final crash + replay check
/// and a healing phase that demands renewed commit progress.
fn run_schedule(seed: u64, rounds: usize, hotstuff: bool) {
    let mut rng = Rng(seed);
    let n = 4usize;
    let victim = ReplicaId(3);
    let disk = SharedDisk::new();
    let mut seed_journal = Some(SafetyJournal::open(disk.clone()).expect("open fresh journal"));
    let config = Config::for_test(n, 1);
    let replicas = (0..n as u32)
        .map(ReplicaId)
        .map(|id| -> Box<dyn Protocol> {
            let cfg = config.with_id(id);
            if id == victim {
                let journal = seed_journal.take().expect("victim built once");
                if hotstuff {
                    Box::new(ChainedHotStuff::with_journal(cfg, journal))
                } else {
                    Box::new(ChainedMarlin::with_journal(cfg, journal))
                }
            } else {
                boxed_fresh(hotstuff, cfg)
            }
        })
        .collect();
    let (mut sim, _, inv) = instant_with(replicas, &[]);
    let mut last_replayed: Option<SafetySnapshot> = None;

    for _ in 0..rounds {
        let view = max_view(&sim);
        let leader = ReplicaId::leader_of(view, n);
        submit(&mut sim, leader, 1 + (rng.next() % 5) as usize, 32);
        sim.run_until_idle();
        for _ in 0..rng.next() % 3 {
            sim.fire_next_timer();
            sim.run_until_idle();
        }
        match rng.next() % 8 {
            // Arm a torn write: the victim's next append keeps only a
            // prefix and errors, so the write-ahead rule withholds that
            // vote (the other three keep the pipeline moving).
            0 | 1 => disk.tear_next_write_after((rng.next() % 48) as usize),
            2 if !sim.is_crashed(victim) => {
                crash_restart_check(&mut sim, &disk, victim, hotstuff, &mut last_replayed);
            }
            _ => {}
        }
        assert_safe(&inv);
    }
    crash_restart_check(&mut sim, &disk, victim, hotstuff, &mut last_replayed);
    assert_safe(&inv);

    // Healing: with all four replicas live again, commits must resume.
    let probe = ReplicaId(0);
    let before = sim.committed_blocks(probe);
    let mut fires = 0;
    while sim.committed_blocks(probe) <= before {
        let v = max_view(&sim);
        submit(&mut sim, ReplicaId::leader_of(v, n), 3, 16);
        sim.run_until_idle();
        if sim.committed_blocks(probe) > before {
            break;
        }
        assert!(
            sim.fire_next_timer(),
            "seed={seed}: no timers left while stalled"
        );
        sim.run_until_idle();
        fires += 1;
        assert!(fires < 300, "seed={seed}: liveness lost after healing");
    }
    assert_safe(&inv);
    assert!(max_view(&sim) >= View(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chained Marlin (two-chain): random torn writes and restart
    /// points; replayed safety state stays bracketed and the restarted
    /// voter rejoins the pipeline without forking it.
    #[test]
    fn chained_marlin_replay_brackets_durable_state(
        seed in 0u64..1_000_000_000,
        rounds in 6usize..24,
    ) {
        run_schedule(seed, rounds, false);
    }

    /// Chained HotStuff (three-chain): same schedule, deeper pipeline —
    /// a restart lands with up to two uncommitted in-flight ancestors.
    #[test]
    fn chained_hotstuff_replay_brackets_durable_state(
        seed in 0u64..1_000_000_000,
        rounds in 6usize..24,
    ) {
        run_schedule(seed, rounds, true);
    }
}
