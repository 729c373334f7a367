//! The simulator's notes and a runtime replica's flight dump are one
//! record type: a run's ring, dumped and parsed back, is its notes.

use marlin_core::{Config, Note, ProtocolKind};
use marlin_simnet::{SimConfig, SimNet};
use marlin_telemetry::{parse_dump, Record};
use marlin_types::ReplicaId;

#[test]
fn a_runs_notes_survive_a_dump_of_its_ring() {
    let mut sim = SimNet::new(
        ProtocolKind::Marlin,
        Config::for_test(4, 1),
        SimConfig::lan(),
        (),
    );
    sim.schedule_client_batch(ReplicaId(1), 0, 20, 150);
    sim.schedule_crash(ReplicaId(1), 50_000_000);
    sim.schedule_client_batch(ReplicaId(2), 400_000_000, 20, 150);
    sim.run_until(3_000_000_000);

    let live: Vec<(u64, ReplicaId, Note)> =
        sim.notes().map(|(t, r, n)| (t, r, n.clone())).collect();
    let dumped: Vec<(u64, ReplicaId, Note)> = parse_dump(&sim.ring().encode_dump())
        .expect("dump parses")
        .into_iter()
        .map(|e| match e.record {
            Record::Note(note) => (e.at_ns, e.replica, note),
            other => panic!("the simulator records notes only, got {other:?}"),
        })
        .collect();
    assert_eq!(dumped, live);
    // The run is worth the comparison: a view change and commits.
    assert!(live
        .iter()
        .any(|(_, _, n)| matches!(n, Note::HappyPathVc { .. } | Note::UnhappyPathVc { .. })));
    assert!(live
        .iter()
        .any(|(_, _, n)| matches!(n, Note::Committed { txs, .. } if *txs > 0)));
}
