//! Side-by-side comparison of every protocol in the workspace on the
//! simulated paper testbed (identical workload, network, and seed).
//!
//! ```text
//! cargo run --release --example protocol_race [-- --telemetry PATH]
//! ```
//!
//! With `--telemetry PATH`, every run additionally records the full
//! consensus trace; the example prints each protocol's commit-latency
//! decomposition (propose → vote → QC per phase, measured from the
//! trace — 2 QC phases for Marlin, 3 for HotStuff) and writes the
//! machine-readable report to `PATH`.

use marlin_bft::core::ProtocolKind;
use marlin_bft::simnet::{run_experiment, run_experiment_with_telemetry, ExperimentConfig};
use marlin_bft::telemetry::{json_str, Decomposition, SharedSink, Trace};
use std::fmt::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--telemetry")
        .map(|i| args.get(i + 1).expect("--telemetry needs a path").into());

    let protocols = [
        ProtocolKind::Marlin,
        ProtocolKind::HotStuff,
        ProtocolKind::Jolteon,
        ProtocolKind::TwoPhaseInsecure,
    ];
    println!(
        "f = 1 (n = 4), 200 Mbps links with 40 ms latency, 150-byte txs, \
20 ktx/s offered, database persistence on\n"
    );
    println!(
        "{:<20} {:>12} {:>12} {:>10}",
        "protocol", "ktx/s", "mean (ms)", "p99 (ms)"
    );
    let mut decompositions: Vec<(ProtocolKind, Decomposition)> = Vec::new();
    for protocol in protocols {
        let mut cfg = ExperimentConfig::paper(protocol, 1);
        cfg.rate_tps = 20_000;
        cfg.duration_ns = 4_000_000_000;
        cfg.warmup_ns = 1_000_000_000;
        let m = if telemetry_path.is_some() {
            let shared = SharedSink::new(Trace::new());
            let m = run_experiment_with_telemetry(&cfg, Box::new(shared.clone()));
            let d = shared.with(|trace| Decomposition::from_trace(trace));
            decompositions.push((protocol, d));
            m
        } else {
            run_experiment(&cfg)
        };
        println!(
            "{:<20} {:>12.2} {:>12.1} {:>10.1}",
            protocol.name(),
            m.ktps(),
            m.latency.mean_ms,
            m.latency.p99_ms
        );
    }

    if let Some(path) = telemetry_path {
        println!("\ncommit-latency decomposition (mean per segment, measured from the trace):");
        for (protocol, d) in &decompositions {
            print!("  {:<20} {} QC phases:", protocol.name(), d.phase_count());
            for seg in d.segments() {
                print!(" {} {:.1}ms", seg.label, seg.hist.mean_ns() as f64 / 1e6);
            }
            println!();
        }
        let mut json = String::from("{\"protocols\":[");
        for (i, (protocol, d)) in decompositions.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"protocol\":{},\"decomposition\":{}}}",
                json_str(protocol.name()),
                d.to_json()
            );
        }
        json.push_str("]}");
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create telemetry output directory");
        }
        std::fs::write(&path, json).expect("write telemetry report");
        println!("\nwrote per-protocol decomposition to {}", path.display());
    }

    println!(
        "\nAll two-phase protocols share the same failure-free latency; they \
differ in what a\nview change costs (run `cargo run -p marlin-bench --bin eval \
-- table1 fig10i`)."
    );
}
