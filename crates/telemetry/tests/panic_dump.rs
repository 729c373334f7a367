//! A panic dumps every registered flight ring, and the fatal entry it
//! ends in names the replica whose recorder it is. In its own file, so
//! the process-wide panic hook is this test binary's alone.

use marlin_telemetry::{
    install_panic_dump, parse_dump, register_panic_dump, FlightRecorder, Note, Record,
    TelemetrySink,
};
use marlin_types::{ReplicaId, View};
use std::sync::Arc;

#[test]
fn a_panic_dump_ends_in_a_fatal_entry_stamped_with_the_recorders_replica() {
    let dir = std::env::temp_dir().join(format!("marlin-panic-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    install_panic_dump(&dir);
    let mut recorders: Vec<FlightRecorder> = [3u32, 5]
        .map(|id| FlightRecorder::new(format!("node-{id}"), ReplicaId(id), Arc::new(|| 99)))
        .into();
    for rec in &mut recorders {
        rec.note(1, ReplicaId(0), &Note::HappyPathVc { view: View(2) });
        register_panic_dump(rec);
    }

    let outcome = std::panic::catch_unwind(|| panic!("replica wedged"));
    assert!(outcome.is_err());

    for id in [3u32, 5] {
        let bytes = std::fs::read(dir.join(format!("node-{id}.flight"))).expect("dump written");
        let entries = parse_dump(&bytes).expect("dump parses");
        assert_eq!(entries.len(), 2, "the note, then the fatal entry");
        let last = entries.last().expect("non-empty");
        assert_eq!(last.replica, ReplicaId(id));
        assert_eq!(last.at_ns, 99);
        assert!(
            matches!(&last.record, Record::Fatal(why) if why.contains("replica wedged")),
            "{last:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
