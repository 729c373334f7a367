//! Write-before-vote under a failing disk, on real threads: a replica
//! whose journal append tears abstains from that vote, heals its
//! journal, votes again — and nobody's committed chain is the worse.

use bytes::Bytes;
use marlin_core::{Config, ProtocolKind, SafetyJournal};
use marlin_runtime::{spawn_node, ChannelMesh, Clock, NodeConfig, NodeHandle, NodeStatus};
use marlin_storage::SharedDisk;
use marlin_telemetry::{Note, SharedSink, Trace};
use marlin_types::{ReplicaId, Transaction, View};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Feeds the view-1 leader until every replica committed `target`
/// blocks.
fn drive(nodes: &[NodeHandle], statuses: &[Arc<NodeStatus>], target: u64, next_tx: &mut u64) {
    let leader = &nodes[ReplicaId::leader_of(View(1), nodes.len()).index()];
    let deadline = Instant::now() + Duration::from_secs(30);
    while statuses.iter().any(|s| s.committed_blocks() < target) {
        assert!(
            Instant::now() < deadline,
            "stalled short of {target} blocks"
        );
        let txs = (0..100).map(|_| {
            *next_tx += 1;
            Transaction::new(
                *next_tx,
                Transaction::LOCAL_CLIENT,
                Bytes::from_static(&[0; 8]),
                0,
            )
        });
        leader.submit(txs.collect());
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn torn_journal_append_withholds_one_vote_and_the_replica_recovers() {
    const TORN: usize = 3;
    let (_mesh, ends) = ChannelMesh::new(4);
    let clock = Clock::start();
    let trace = SharedSink::new(Trace::new());
    let disks: Vec<SharedDisk> = (0..4).map(|_| SharedDisk::new()).collect();
    let nodes: Vec<NodeHandle> = ends
        .into_iter()
        .zip(&disks)
        .enumerate()
        .map(|(i, (end, disk))| {
            let mut cfg = NodeConfig::new(
                Config::for_test(4, 1).with_id(ReplicaId(i as u32)),
                ProtocolKind::Marlin,
            );
            cfg.journal_disk = Some(disk.clone());
            let sink = Box::new(trace.clone());
            spawn_node(cfg, Arc::new(end), clock, Some(sink), None)
        })
        .collect();
    let statuses: Vec<Arc<NodeStatus>> = nodes.iter().map(NodeHandle::status).collect();

    let mut next_tx = 0;
    drive(&nodes, &statuses, 20, &mut next_tx);
    // Replica 3's next journal write keeps three bytes and fails.
    disks[TORN].tear_next_write_after(3);
    let torn_at = statuses[TORN].committed_blocks();
    // Thirty more blocks everywhere: replica 3's chain keeps growing.
    drive(&nodes, &statuses, torn_at + 30, &mut next_tx);
    for node in nodes {
        node.stop();
    }

    let events = trace.with(|t| std::mem::take(&mut t.events));
    let withheld: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.note, Note::VoteWithheld { .. }))
        .collect();
    assert!(!withheld.is_empty(), "the torn append withheld no vote");
    assert!(
        withheld.iter().all(|e| e.replica.index() == TORN),
        "a healthy replica withheld a vote: {withheld:?}"
    );
    // It voted again afterwards: what survives a power cut now is a
    // journal whose last vote is far past the tear. Records appended
    // behind the torn tail would be lost to replay; the journal has to
    // have compacted past it.
    disks[TORN].crash();
    let journal = SafetyJournal::open(disks[TORN].clone()).expect("journal reopens");
    let last_voted = journal.state().last_voted.height.0;
    assert!(
        last_voted >= torn_at + 20,
        "tore at {torn_at}, durable last vote only at {last_voted}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.note, Note::CommitConflict { .. })),
        "commit conflict"
    );
    // All four chains agree wherever they overlap.
    let mut chain = HashMap::new();
    for (i, status) in statuses.iter().enumerate() {
        for (height, id) in status.commit_log() {
            let agreed = *chain.entry(height).or_insert(id);
            assert_eq!(agreed, id, "replica {i} diverges at height {height}");
        }
    }
}
