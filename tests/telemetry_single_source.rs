//! Integration: the telemetry registry, the simulator's traffic
//! accounting, and the node-level stats observer are fed from the same
//! call sites, so for one shared scenario all three must report
//! identical totals — the single-source-of-truth invariant.

use marlin_bft::core::{Config, ProtocolKind};
use marlin_bft::simnet::{CommitObserver, SimConfig, SimNet, Stats};
use marlin_bft::telemetry::{Registry, RegistryRecorder, SnapshotValue};
use marlin_bft::types::{Block, ReplicaId};
use std::sync::{Arc, Mutex};

struct SharedStats(Arc<Mutex<Stats>>);

impl CommitObserver for SharedStats {
    fn on_commit(&mut self, replica: ReplicaId, now_ns: u64, blocks: &[Block]) {
        self.0
            .lock()
            .expect("single-threaded")
            .on_commit(replica, now_ns, blocks);
    }
}

fn counter_sum(registry: &Registry, name: &str, label: Option<(&str, &str)>) -> u64 {
    registry
        .snapshot()
        .entries
        .iter()
        .filter(|e| e.name == name)
        .filter(|e| match label {
            Some((k, v)) => e.labels.iter().any(|(lk, lv)| lk == k && lv == v),
            None => true,
        })
        .map(|e| match e.value {
            SnapshotValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

#[test]
fn registry_accounting_and_stats_report_identical_totals() {
    let cfg = Config::for_test(4, 1);
    let mut sim = SimNet::new(ProtocolKind::Marlin, cfg, SimConfig::lan());
    let registry = Registry::new();
    sim.set_telemetry(Box::new(RegistryRecorder::new(&registry)));
    // Replica start-up messages are transmitted during construction,
    // before any sink can be installed; open the measurement window now
    // so accounting and telemetry cover the same events.
    sim.reset_accounting();
    let stats = Arc::new(Mutex::new(Stats::new(ReplicaId(0), 0, 0)));
    sim.set_observer(Box::new(SharedStats(Arc::clone(&stats))));

    for round in 0u64..3 {
        sim.schedule_client_batch(ReplicaId(1), round * 200_000_000, 50, 100);
    }
    sim.run_until(5_000_000_000);

    // Network totals: the registry's net_* counters are recorded at the
    // exact call site where simnet accounting charges each message, so
    // they must match to the message, byte, and authenticator.
    let acc = sim.accounting().total();
    assert!(acc.messages > 0, "scenario produced no traffic");
    assert_eq!(
        counter_sum(&registry, "net_messages_total", None),
        acc.messages
    );
    assert_eq!(counter_sum(&registry, "net_bytes_total", None), acc.bytes);
    assert_eq!(
        counter_sum(&registry, "net_authenticators_total", None),
        acc.authenticators
    );

    // Committed-transaction totals: the simulator's ledger view, the
    // node stats observer, and the registry counter for the reference
    // replica all agree.
    let committed = sim.committed_txs(ReplicaId(0));
    assert_eq!(committed, 150, "all three batches should commit");
    assert_eq!(
        stats.lock().expect("single-threaded").committed_txs(),
        committed
    );
    assert_eq!(
        counter_sum(
            &registry,
            "consensus_committed_txs_total",
            Some(("replica", "0"))
        ),
        committed
    );
}
