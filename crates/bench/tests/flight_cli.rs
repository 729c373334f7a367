//! `marlin-flight` over files it did not write: dumps from two
//! recorders merge into one timeline that ends in the fatal entry, and a
//! scraped exposition validates.

use marlin_telemetry::{FlightRecorder, Note, Record, Registry, TelemetrySink};
use marlin_types::{ReplicaId, View};
use std::path::Path;
use std::process::{Command, Output};
use std::sync::Arc;

fn marlin_flight(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_marlin-flight"))
        .args(args)
        .output()
        .expect("run marlin-flight")
}

#[test]
fn print_merges_dumps_into_a_timeline_that_ends_fatal() {
    let dir = std::env::temp_dir().join(format!("marlin-flight-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut paths = Vec::new();
    for (id, stopped_at) in [(0u32, 30), (2, 40)] {
        let mut rec = FlightRecorder::new(
            format!("node-{id}"),
            ReplicaId(id),
            Arc::new(move || stopped_at),
        );
        rec.note(
            10 + u64::from(id),
            ReplicaId(id),
            &Note::HappyPathVc { view: View(2) },
        );
        rec.record_now(Record::Transport(format!("accepted peer {}", 3 - id)));
        if id == 2 {
            rec.record_now(Record::Fatal("node stopped".into()));
        }
        paths.push(rec.dump_to_dir(&dir).expect("dump written"));
    }
    let print = Path::new("print");
    let out = marlin_flight(&[print, &paths[0], &paths[1]]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 timeline");
    let kinds: Vec<&str> = stdout
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().nth(2))
        .collect();
    assert_eq!(
        kinds[..5],
        ["note", "note", "transport", "transport", "FATAL"],
        "{stdout}"
    );
    assert!(stdout.contains("HappyPathVc { view: v2 }"), "{stdout}");
    let last_entry = stdout.lines().nth(5).expect("five entries");
    assert!(last_entry.contains("node stopped"), "{stdout}");
    assert!(
        stdout.ends_with("-- 5 entries across 2 dump(s), 1 fatal\n"),
        "{stdout}"
    );

    // A file that is not a dump fails the command.
    let junk = dir.join("junk.flight");
    std::fs::write(&junk, b"MARFLT1\n").expect("write junk");
    assert!(!marlin_flight(&[print, &junk]).status.success());

    let metrics = dir.join("metrics.txt");
    let registry = Registry::new();
    registry.counter("consensus_commits_total").add(3);
    std::fs::write(&metrics, registry.snapshot().to_prometheus()).expect("write exposition");
    let out = marlin_flight(&[Path::new("check-prom"), &metrics]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
