//! Thread census: which threads a running cluster actually has. Its
//! own test binary, so no other test's cluster shares the process.
#![cfg(target_os = "linux")]

use marlin_core::ProtocolKind;
use marlin_runtime::{ClusterConfig, JournalMode, RuntimeCluster, TransportKind};
use std::time::{Duration, Instant};

/// Names of this process's threads starting with `prefix`.
fn threads_named(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with(prefix))
        .collect()
}

fn drive_until(cluster: &mut RuntimeCluster, pred: impl Fn(&RuntimeCluster) -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        cluster.submit(100, 8);
        if cluster.wait(Duration::from_millis(25), &pred) {
            return true;
        }
    }
    false
}

/// Beside the transport's acceptor and readers, a replica is an ingress
/// thread and a consensus thread — with a file journal too, and across
/// a kill and a recovery from that journal. A `timer-*` or `journal-*`
/// thread is a relay growing back: the consensus thread only ever
/// blocked on the one and was only ever woken by the other.
#[test]
fn a_replica_is_ingress_plus_consensus_even_with_a_file_journal() {
    let dir = std::env::temp_dir().join(format!("marlin-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ClusterConfig::new(ProtocolKind::Marlin, 4, 1);
    cfg.transport = TransportKind::Tcp;
    cfg.journal = JournalMode::Files(dir.clone());
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch");
    assert!(
        drive_until(&mut cluster, |c| c.wait_for_blocks(50, Duration::ZERO)),
        "no progress"
    );

    let no_relays = || {
        for gone in ["timer-", "journal-"] {
            let found = threads_named(gone);
            assert!(found.is_empty(), "relay threads are back: {found:?}");
        }
    };
    no_relays();
    for per_replica in ["consensus-", "ingress-", "accept-"] {
        assert_eq!(threads_named(per_replica).len(), 4, "{per_replica}*");
    }
    // One reader per inbound connection: each of 4 endpoints hears from
    // at most 3 peers.
    let readers = threads_named("read-").len();
    assert!(readers <= 12, "{readers} reader threads");

    // Recovery reopens the same on-disk journal through the slot's
    // `SharedDisk`, on the new consensus thread. (The old endpoint's
    // acceptor and readers exit on their own time: not counted here.)
    cluster.kill(2);
    cluster.recover_from_disk(2).expect("recovery");
    assert!(
        drive_until(&mut cluster, |c| c.status(2).committed_blocks() > 0),
        "recovered replica never committed again"
    );
    no_relays();
    for per_replica in ["consensus-", "ingress-"] {
        assert_eq!(threads_named(per_replica).len(), 4, "{per_replica}*");
    }
    cluster
        .check_prefix_consistency()
        .expect("no divergence across recovery");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
