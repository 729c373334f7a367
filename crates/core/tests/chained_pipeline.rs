//! Chained (pipelined) Marlin and HotStuff end to end: the pipeline
//! commits from message delivery alone, its tail closes without timers,
//! idle heartbeats trickle instead of spamming, a leader crash is
//! survived, and the three-chain rule trails the two-chain rule by one
//! block.

mod support;

use marlin_core::{Config, Note, ProtocolKind};
use marlin_simnet::{Invariants, SimNet};
use marlin_types::{ReplicaId, View};
use support::{assert_safe, instant, min_view, submit};

const P0: ReplicaId = ReplicaId(0);
const P1: ReplicaId = ReplicaId(1);
const P2: ReplicaId = ReplicaId(2);

fn run_pipeline(kind: ProtocolKind) -> (SimNet, Invariants) {
    let (mut sim, _, inv) = instant(kind, Config::for_test(4, 1), &[]);
    // Several batches' worth. No timer scaffolding: the leader itself
    // closes the pipeline tail with empty blocks once the mempool
    // drains (see `on_vote`), so message delivery alone commits
    // everything.
    submit(&mut sim, P1, 250, 0);
    sim.run_until_idle();
    (sim, inv)
}

#[test]
fn chained_marlin_commits_pipeline() {
    let (sim, inv) = run_pipeline(ProtocolKind::ChainedMarlin);
    assert_safe(&inv);
    assert_eq!(sim.committed_txs(P0), 250);
}

#[test]
fn chained_hotstuff_commits_pipeline() {
    let (sim, inv) = run_pipeline(ProtocolKind::ChainedHotStuff);
    assert_safe(&inv);
    assert_eq!(sim.committed_txs(P0), 250);
}

#[test]
fn chained_marlin_commits_with_two_chain_latency() {
    // A single batch needs exactly one successor QC to commit: the
    // leader's own tail-closing block finalizes it without any
    // timer firing.
    let (mut sim, _, inv) = instant(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), &[]);
    submit(&mut sim, P1, 10, 0);
    sim.run_until_idle();
    assert_safe(&inv);
    assert_eq!(sim.committed_txs(P0), 10);
}

/// Regression (pipeline-tail liveness gap): an idle chained cluster
/// must commit the tail of a burst from message delivery alone.
/// Before the fix the leader parked the last in-flight blocks
/// behind a heartbeat, so `run_until_idle()` (which never fires
/// timers) left the burst partially uncommitted and tests had to
/// close the pipeline with manual heartbeats.
#[test]
fn chained_pipeline_tail_closes_without_timers() {
    for kind in [ProtocolKind::ChainedMarlin, ProtocolKind::ChainedHotStuff] {
        let (mut sim, _, inv) = instant(kind, Config::for_test(4, 1), &[]);
        submit(&mut sim, P1, 120, 0);
        sim.run_until_idle();
        assert_safe(&inv);
        assert_eq!(
            sim.committed_txs(P0),
            120,
            "{kind:?}: pipeline tail not closed without timers"
        );
    }
}

/// Regression (idle empty-block spam): once the pipeline has closed
/// and the mempool is empty, the leader used to propose a fresh
/// empty block on *every* heartbeat — four keep-alive blocks per
/// base timeout, forever. Now it re-arms the heartbeat cheaply and
/// emits a keep-alive block only every `IDLE_BEATS_PER_BLOCK`th
/// beat, so a sustained quiet period produces a bounded trickle.
#[test]
fn idle_heartbeats_do_not_spam_empty_blocks() {
    for kind in [ProtocolKind::ChainedMarlin, ProtocolKind::ChainedHotStuff] {
        let (mut sim, _, _) = instant(kind, Config::for_test(4, 1), &[]);
        submit(&mut sim, P1, 40, 0);
        sim.run_until_idle();
        assert_eq!(sim.committed_txs(P0), 40);

        // A long quiet period: every fired timer is a leader
        // heartbeat (payload commits keep re-arming the view timers
        // before they can expire).
        let before = sim.committed_blocks(P0);
        let fires = 32;
        for _ in 0..fires {
            assert!(sim.fire_next_timer(), "{kind:?}: heartbeat chain broke");
        }
        sim.run_until_idle();
        let idle_blocks = sim.committed_blocks(P0) - before;
        // Before the fix every beat proposed, committing ~one empty
        // block per fire (~32 here). Gated, at most every 4th idle
        // beat proposes; the commit rule trails by a block or two.
        assert!(
            idle_blocks <= fires / 4 + 2,
            "{kind:?}: {idle_blocks} empty blocks from {fires} idle heartbeats"
        );
        // ...but the trickle must not dry up entirely: keep-alive
        // blocks still flow, so view timers stay quenched.
        assert!(
            idle_blocks >= 2,
            "{kind:?}: idle keep-alive stalled ({idle_blocks} blocks)"
        );
        assert_eq!(
            min_view(&sim),
            View(1),
            "{kind:?}: idle period lost the view"
        );
    }
}

/// Regression (post-quiet liveness): a burst arriving after a long
/// idle stretch must commit from message delivery alone — the
/// heartbeat gating above must not strand fresh transactions behind
/// the idle-beat counter.
#[test]
fn load_after_quiet_period_commits_without_timers() {
    for kind in [ProtocolKind::ChainedMarlin, ProtocolKind::ChainedHotStuff] {
        let (mut sim, _, inv) = instant(kind, Config::for_test(4, 1), &[]);
        submit(&mut sim, P1, 30, 0);
        sim.run_until_idle();
        for _ in 0..13 {
            assert!(sim.fire_next_timer());
        }
        sim.run_until_idle();
        // New load lands while the leader sits in the gated-idle
        // state: `NewTransactions` proposes immediately.
        submit(&mut sim, P1, 30, 0);
        sim.run_until_idle();
        assert_safe(&inv);
        assert_eq!(
            sim.committed_txs(P0),
            60,
            "{kind:?}: post-quiet burst stranded"
        );
    }
}

#[test]
fn chained_marlin_view_change_recovers() {
    let (mut sim, _, inv) = instant(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), &[]);
    submit(&mut sim, P1, 50, 0);
    sim.run_until_idle();
    sim.crash(P1);
    while min_view(&sim) < View(2) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    submit(&mut sim, P2, 50, 0);
    sim.run_until_idle();
    for _ in 0..8 {
        sim.fire_next_timer();
    }
    sim.run_until_idle();
    assert_safe(&inv);
    assert_eq!(sim.committed_txs(P0), 100);
}

#[test]
fn chained_hotstuff_view_change_recovers() {
    let (mut sim, _, inv) = instant(ProtocolKind::ChainedHotStuff, Config::for_test(4, 1), &[]);
    submit(&mut sim, P1, 50, 0);
    sim.run_until_idle();
    // Close the pipeline before crashing: an uncertified tip block
    // would otherwise be orphaned by HotStuff's new-view (its QC
    // never traveled), which is faithful but not what this test is
    // about.
    while sim.committed_txs(P0) < 50 {
        assert!(sim.fire_next_timer());
        sim.run_until_idle();
    }
    sim.crash(P1);
    while min_view(&sim) < View(2) {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    submit(&mut sim, P2, 50, 0);
    sim.run_until_idle();
    for _ in 0..10 {
        sim.fire_next_timer();
    }
    sim.run_until_idle();
    assert_safe(&inv);
    assert_eq!(sim.committed_txs(P0), 100);
}

#[test]
fn three_chain_commits_one_block_later_than_two_chain() {
    // Both rules commit the whole burst (the leader closes its own
    // tail), but the three-chain rule needs exactly one more
    // tail-closing block to do it.
    let (mut marlin, _, _) = instant(ProtocolKind::ChainedMarlin, Config::for_test(4, 1), &[]);
    let (mut hotstuff, _, _) = instant(ProtocolKind::ChainedHotStuff, Config::for_test(4, 1), &[]);
    submit(&mut marlin, P1, 30, 0);
    submit(&mut hotstuff, P1, 30, 0);
    marlin.run_until_idle();
    hotstuff.run_until_idle();
    assert_eq!(marlin.committed_txs(P0), 30);
    assert_eq!(hotstuff.committed_txs(P0), 30);
    let proposals = |sim: &SimNet| {
        sim.notes()
            .iter()
            .filter(|(_, _, n)| matches!(n, Note::Proposed { .. }))
            .count()
    };
    assert_eq!(proposals(&hotstuff), proposals(&marlin) + 1);
}
