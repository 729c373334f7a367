//! Thread census: which threads a running cluster actually has. Its
//! own test binary, so no other test's cluster shares the process.
#![cfg(target_os = "linux")]

use marlin_core::ProtocolKind;
use marlin_runtime::{ClusterConfig, JournalMode, RuntimeCluster, TransportKind};
use std::time::{Duration, Instant};

const N: usize = 4;

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

/// What is wrong with the census, if anything: per replica exactly one
/// timer thread and one acceptor, at most n − 1 readers (one per inbound
/// connection), and no thread that steps on another's behalf.
fn census() -> Result<(), String> {
    for gone in ["ingress-", "consensus-", "journal-"] {
        let found = threads_named(gone);
        if !found.is_empty() {
            return Err(format!("relay threads are back: {found:?}"));
        }
    }
    for i in 0..N {
        let timers = threads_named(&format!("timer-{i}")).len();
        let acceptors = threads_named(&format!("accept-{i}")).len();
        let readers = threads_named(&format!("read-{i}")).len();
        if timers != 1 || acceptors != 1 || readers > N - 1 {
            return Err(format!(
                "replica {i}: {timers} timer, {acceptors} accept, {readers} read threads"
            ));
        }
    }
    Ok(())
}

/// A replica has no thread of its own beside its timer: the transport's
/// readers decode and step what they deliver, with a file journal too,
/// and across a kill and a recovery from that journal. An `ingress-`,
/// `consensus-` or `journal-` thread is a relay growing back: a hop every
/// message pays a wake-up for.
#[test]
fn a_replica_is_a_timer_thread_beside_the_transports_own() {
    let dir = std::env::temp_dir().join(format!("marlin-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ClusterConfig::new(ProtocolKind::Marlin, N, 1);
    cfg.transport = TransportKind::Tcp;
    cfg.journal = JournalMode::Files(dir.clone());
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch");
    assert!(
        drive_until(&mut cluster, |c| c.wait_for_blocks(50, Duration::ZERO)),
        "no progress"
    );
    census().unwrap();

    // Recovery reopens the same on-disk journal through the slot's
    // `SharedDisk`. The old endpoint's acceptor and readers exit on their
    // own time (a reader at the next frame it is sent), so the census
    // is taken once the recovered replica commits again and traffic has
    // flowed past them.
    cluster.kill(2);
    cluster.recover_from_disk(2).expect("recovery");
    let rejoined = |c: &RuntimeCluster| c.status(2).committed_blocks() > 0 && census().is_ok();
    assert!(
        drive_until(&mut cluster, rejoined),
        "after recovery: {:?}",
        census()
    );
    cluster
        .check_prefix_consistency()
        .expect("no divergence across recovery");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
