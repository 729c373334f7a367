//! Post-mortem tooling for the runtime observability plane.
//!
//! ```text
//! marlin-flight print <dump.flight>...   merge dumps into one timeline
//! marlin-flight check-prom <file>        validate a Prometheus exposition
//! ```
//!
//! `print` reads any number of per-node `.flight` dumps (written on
//! panic, invariant violation, or node stop — or fetched live from
//! `/debug/flight`), merges them into a single timeline ordered by the
//! run clock, and pretty-prints it. Torn tails are tolerated: a dump
//! truncated mid-frame still yields every complete frame before the
//! tear. `check-prom` runs the strict exposition-format validator over
//! a scraped `/metrics` body and reports the sample count.

use marlin_telemetry::{check_prometheus_text, merge_dumps, parse_dump, Entry, Record};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, paths)) if cmd == "print" && !paths.is_empty() => print_dumps(paths),
        Some((cmd, rest)) if cmd == "check-prom" && rest.len() == 1 => check_prom(&rest[0]),
        _ => {
            eprintln!("usage: marlin-flight print <dump.flight>...");
            eprintln!("       marlin-flight check-prom <metrics.txt>");
            ExitCode::from(2)
        }
    }
}

fn print_dumps(paths: &[String]) -> ExitCode {
    let mut dumps: Vec<Vec<Entry>> = Vec::new();
    let mut failed = false;
    for path in paths {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        match parse_dump(&bytes) {
            Ok(entries) => {
                eprintln!("{path}: {} entries", entries.len());
                dumps.push(entries);
            }
            Err(why) => {
                eprintln!("{path}: not a flight dump: {why}");
                failed = true;
            }
        }
    }
    if dumps.is_empty() {
        return ExitCode::FAILURE;
    }

    let timeline = merge_dumps(dumps);
    let base = timeline.first().map_or(0, |e| e.at_ns);
    let mut fatals = 0;
    println!("{:>14}  {:>7}  {:<9}  detail", "t+", "replica", "kind");
    for e in &timeline {
        let (kind, detail) = match &e.record {
            Record::Note(note) => ("note", format!("{note:?}")),
            Record::Transport(text) => ("transport", text.clone()),
            Record::Fatal(text) => {
                fatals += 1;
                ("FATAL", text.clone())
            }
        };
        println!(
            "{:>12.3}ms  {:>7}  {:<9}  {detail}",
            (e.at_ns.saturating_sub(base)) as f64 / 1e6,
            e.replica.0,
            kind,
        );
    }
    println!(
        "-- {} entries across {} dump(s), {} fatal",
        timeline.len(),
        paths.len(),
        fatals
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn check_prom(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_prometheus_text(&text) {
        Ok(samples) => {
            println!("{path}: ok ({samples} samples)");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{path}: INVALID: {why}");
            ExitCode::FAILURE
        }
    }
}
