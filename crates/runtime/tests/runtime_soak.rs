//! End-to-end soaks for the threaded runtime: real threads, real
//! clocks, channel and TCP meshes, kill/recover — all driving the
//! unchanged `marlin-core` state machines.

use marlin_core::ProtocolKind;
use marlin_runtime::{ClusterConfig, JournalMode, RuntimeCluster, TransportKind};
use marlin_telemetry::meter::TABLE1_AUTHS_PER_REPLICA;
use marlin_telemetry::Note;
use marlin_types::ReplicaId;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Keeps submitting load until `pred` holds or `deadline` elapses.
fn drive_until(
    cluster: &mut RuntimeCluster,
    deadline: Duration,
    pred: impl Fn(&RuntimeCluster) -> bool,
) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        cluster.submit(100, 8);
        if cluster.wait(Duration::from_millis(25), &pred) {
            return true;
        }
    }
    false
}

/// Keeps submitting load until every live replica has committed at
/// least `target_blocks` blocks or `deadline` elapses.
fn drive(cluster: &mut RuntimeCluster, target_blocks: u64, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        cluster.submit(100, 8);
        if cluster.wait_for_blocks(target_blocks, Duration::from_millis(25)) {
            return true;
        }
    }
    false
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marlin-runtime-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn channel_soak_commits_and_agrees() {
    let cfg = ClusterConfig::new(ProtocolKind::Marlin, 4, 1);
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch");
    assert!(
        drive(&mut cluster, 150, Duration::from_secs(30)),
        "cluster failed to commit 150 blocks in time"
    );
    let prefix = cluster.check_prefix_consistency().expect("no divergence");
    assert!(prefix >= 150, "shortest commit log only {prefix} blocks");
    for i in 0..4 {
        assert_eq!(cluster.status(i).decode_errors(), 0, "replica {i}");
        assert!(cluster.status(i).committed_txs() > 0, "replica {i}");
    }
    let report = cluster.shutdown();
    assert!(
        !report.trace.events.is_empty(),
        "telemetry sink saw no notes on a wall-clock run"
    );
}

#[test]
fn tcp_soak_five_hundred_blocks_identical_prefixes() {
    let mut cfg = ClusterConfig::new(ProtocolKind::ChainedMarlin, 4, 1);
    cfg.transport = TransportKind::Tcp;
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch tcp cluster");
    assert!(
        drive(&mut cluster, 500, Duration::from_secs(55)),
        "tcp cluster failed to commit 500 blocks in time"
    );
    let prefix = cluster
        .check_prefix_consistency()
        .expect("no safety violation");
    assert!(prefix >= 500, "shortest commit log only {prefix} blocks");
    for i in 0..4 {
        assert_eq!(
            cluster.status(i).decode_errors(),
            0,
            "replica {i} saw undecodable frames over TCP"
        );
    }
    cluster.shutdown();
}

/// A journaled follower killed mid-run and recovered from disk asks its
/// peers for what it missed: the shutdown trace must hold its
/// `CatchUpCompleted`. Catch-up is the replica skeleton's, so HotStuff
/// rejoins through it as Marlin does.
#[test]
fn kill_and_recover_from_disk_rejoins_via_catch_up() {
    for kind in [ProtocolKind::Marlin, ProtocolKind::HotStuff] {
        kill_and_recover_from_disk(kind);
    }
}

fn kill_and_recover_from_disk(kind: ProtocolKind) {
    let dir = scratch_dir(&format!("recovery-{}", kind.name()));
    let mut cfg = ClusterConfig::new(kind, 4, 1);
    cfg.journal = JournalMode::Files(dir.clone());
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch journaled cluster");

    assert!(
        drive(&mut cluster, 30, Duration::from_secs(20)),
        "{kind:?}: no progress before the kill"
    );

    // Kill a follower mid-run; n=4 f=1 keeps quorum with 3 live nodes.
    cluster.kill(2);
    let before = cluster.status(0).committed_blocks();
    assert!(
        drive(&mut cluster, before + 30, Duration::from_secs(20)),
        "{kind:?}: cluster stalled after losing one replica"
    );

    // FromDisk: the replica replays its journal, rejoins the mesh, and
    // catches up to the live chain.
    cluster.recover_from_disk(2).expect("recovery");
    let target = cluster.status(0).committed_blocks() + 30;
    assert!(
        drive_until(&mut cluster, Duration::from_secs(30), |c| {
            c.status(0).committed_blocks() >= target && c.status(2).committed_blocks() >= 10
        }),
        "{kind:?}: recovered replica never caught up"
    );
    cluster
        .check_prefix_consistency()
        .expect("no divergence across recovery");
    let report = cluster.shutdown();
    assert!(
        report
            .trace
            .events
            .iter()
            .any(|e| e.replica.0 == 2 && matches!(e.note, Note::CatchUpCompleted { .. })),
        "{kind:?}: the recovered replica never completed a catch-up"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wall-clock twin of the simnet rejoin cells: a journaled cluster
/// over real TCP with block sync enabled, one replica killed long
/// enough to fall past the lag threshold, then recovered from disk.
/// The transport's dial backoff absorbs the dead peer, and the
/// recovered replica must rejoin through the sync engine (snapshot or
/// ranged fetch over real sockets), not just timeout-driven fetch. It
/// runs for Marlin and for chained HotStuff, whose three-chain is the
/// deepest commit evidence a pipeline's anchor must carry.
#[test]
fn tcp_kill_and_reconnect_rejoins_via_sync() {
    for kind in [ProtocolKind::Marlin, ProtocolKind::ChainedHotStuff] {
        kill_and_reconnect_rejoins_via_sync(kind);
    }
}

fn kill_and_reconnect_rejoins_via_sync(kind: ProtocolKind) {
    let dir = scratch_dir(&format!("tcp-rejoin-{}", kind.name()));
    let mut cfg = ClusterConfig::new(kind, 4, 1);
    cfg.transport = TransportKind::Tcp;
    cfg.journal = JournalMode::Files(dir.clone());
    cfg.sync_snapshot_interval = 16;
    cfg.sync_lag_threshold = 8;
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch tcp sync cluster");

    assert!(
        drive(&mut cluster, 30, Duration::from_secs(20)),
        "{kind:?}: no progress before the kill"
    );

    // Kill a follower and commit well past the lag threshold while it
    // is gone; peers' sends to it back off instead of redialing per
    // frame.
    cluster.kill(2);
    let before = cluster.status(0).committed_blocks();
    assert!(
        drive(&mut cluster, before + 60, Duration::from_secs(25)),
        "{kind:?}: cluster stalled after losing one replica"
    );

    cluster.recover_from_disk(2).expect("recovery");
    let target = cluster.status(0).committed_blocks() + 30;
    assert!(
        drive_until(&mut cluster, Duration::from_secs(30), |c| {
            c.status(0).committed_blocks() >= target && c.status(2).committed_blocks() >= 10
        }),
        "{kind:?}: recovered replica never caught back up over TCP"
    );
    cluster
        .check_prefix_consistency()
        .expect("no divergence across TCP recovery");
    let report = cluster.shutdown();
    assert!(
        report
            .trace
            .events
            .iter()
            .any(|e| matches!(e.note, Note::SyncCompleted { .. })),
        "{kind:?}: rejoin never went through the sync engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Table I on the wall clock: the current leader is killed, and the
/// view change the survivors run is metered from the first timeout to
/// the first commit after it. Marlin's and HotStuff's stay within
/// `TABLE1_AUTHS_PER_REPLICA · n` authenticators; Jolteon's quadratic
/// view change is printed, not bounded.
#[test]
fn leader_kill_view_change_is_linear_on_the_wall_clock() {
    for n in [4, 7] {
        for kind in [
            ProtocolKind::Marlin,
            ProtocolKind::HotStuff,
            ProtocolKind::Jolteon,
        ] {
            leader_kill_view_change(kind, n, TransportKind::Channel);
        }
    }
}

/// [`leader_kill_view_change_is_linear_on_the_wall_clock`] over real
/// sockets, at n = 4.
#[test]
fn tcp_leader_kill_view_change_is_linear_on_the_wall_clock() {
    for kind in [
        ProtocolKind::Marlin,
        ProtocolKind::HotStuff,
        ProtocolKind::Jolteon,
    ] {
        leader_kill_view_change(kind, 4, TransportKind::Tcp);
    }
}

fn leader_kill_view_change(kind: ProtocolKind, n: usize, transport: TransportKind) {
    let mut cfg = ClusterConfig::new(kind, n, (n - 1) / 3);
    cfg.transport = transport;
    cfg.base_timeout = Duration::from_millis(200);
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch");
    assert!(
        drive(&mut cluster, 20, Duration::from_secs(20)),
        "{kind:?} n={n}: no progress before the kill"
    );
    let view = cluster.max_view();
    let leader = ReplicaId::leader_of(view, n).index();
    cluster.kill(leader);
    let survivors: Vec<usize> = (0..n).filter(|&i| i != leader).collect();
    let target = survivors
        .iter()
        .map(|&i| cluster.status(i).committed_blocks() + 5)
        .max()
        .unwrap_or_default();
    assert!(
        drive_until(&mut cluster, Duration::from_secs(30), |c| {
            survivors
                .iter()
                .all(|&i| c.status(i).committed_blocks() >= target)
        }),
        "{kind:?} n={n} {transport:?}: no commits after the leader was killed"
    );
    cluster.check_prefix_consistency().expect("no divergence");
    let report = cluster.shutdown();

    let windows = report.view_changes.windows();
    let window = windows
        .iter()
        .find(|w| w.view == Some(view) && w.at_first_commit.is_some())
        .unwrap_or_else(|| panic!("{kind:?} n={n}: no view change from {view:?} committed"));
    let traffic = window.at_first_commit.as_ref().expect("found committed");
    let auths = traffic.protocol_total().authenticators;
    let bound = TABLE1_AUTHS_PER_REPLICA * n as u64;
    let latencies: Vec<Option<u64>> = (survivors.iter())
        .map(|&i| window.latency_ns(ReplicaId(i as u32)))
        .collect();
    println!("{kind:?}\tn={n}\t{transport:?}\t{auths} auths (bound {bound})\t{latencies:?} ns");
    assert!(
        latencies.iter().all(Option::is_some),
        "{kind:?} n={n}: a survivor has no view-change latency: {latencies:?}"
    );
    if kind != ProtocolKind::Jolteon {
        assert!(
            auths <= bound,
            "{kind:?} n={n} {transport:?}: {auths} > {bound} authenticators: {traffic:?}"
        );
    }
}

#[test]
fn hotstuff_runs_without_journal_support() {
    let mut cfg = ClusterConfig::new(ProtocolKind::HotStuff, 4, 1);
    cfg.journal = JournalMode::None;
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch hotstuff");
    assert!(
        drive(&mut cluster, 50, Duration::from_secs(20)),
        "hotstuff cluster made no progress"
    );
    cluster.check_prefix_consistency().expect("no divergence");
    cluster.shutdown();
}

#[test]
fn dissemination_soak_commits_with_bounded_mempool() {
    // The client path end-to-end on real threads: bounded admission in
    // front of the core, batches pushed ahead of proposals as
    // digest-addressed payloads, digest proposals on the wire. The
    // cluster must commit and agree exactly as with inline batches,
    // and the observability plane must show the payload plane working
    // (pushes, ack quorums) and admission accounting for every
    // submitted transaction. The payload plane is the replica
    // skeleton's, so a pipelined kind runs it as well as Marlin.
    for kind in [ProtocolKind::Marlin, ProtocolKind::ChainedHotStuff] {
        dissemination_soak(kind);
    }
}

fn dissemination_soak(kind: ProtocolKind) {
    use marlin_runtime::ObservabilityConfig;

    let mut cfg = ClusterConfig::new(kind, 4, 1);
    cfg.mempool_capacity = 4096;
    cfg.dissemination = true;
    cfg.observability = Some(ObservabilityConfig {
        scrape: false,
        ..ObservabilityConfig::default()
    });
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch");
    assert!(
        drive(&mut cluster, 120, Duration::from_secs(30)),
        "{kind:?}: dissemination cluster failed to commit 120 blocks in time"
    );
    let prefix = cluster.check_prefix_consistency().expect("no divergence");
    assert!(
        prefix >= 120,
        "{kind:?}: shortest commit log only {prefix} blocks"
    );
    for i in 0..4 {
        assert_eq!(cluster.status(i).decode_errors(), 0, "{kind:?} replica {i}");
        assert!(
            cluster.status(i).committed_txs() > 0,
            "{kind:?} replica {i}"
        );
    }
    let count = |i: usize, name: &str| {
        cluster
            .registry(i)
            .expect("registry")
            .counter_with(name, &[])
            .get()
    };
    // Some leader pushed payloads and saw them reach an ack quorum.
    let pushed: u64 = (0..4)
        .map(|i| count(i, "consensus_payload_pushed_total"))
        .sum();
    let quorums: u64 = (0..4)
        .map(|i| count(i, "consensus_payload_quorum_total"))
        .sum();
    assert!(pushed > 0, "{kind:?}: no payload batches were pushed");
    assert!(
        quorums > 0,
        "{kind:?}: no payload batch reached an ack quorum"
    );
    // Every submitted transaction went through admission accounting.
    let admitted: u64 = (0..4)
        .map(|i| count(i, "consensus_mempool_admitted_total"))
        .sum();
    assert!(admitted > 0, "{kind:?}: admission counters never moved");
    cluster.shutdown();
}
