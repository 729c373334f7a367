//! Marlin vs HotStuff on real hardware: n = 4 replicas, each a
//! multi-threaded process-local node, racing over loopback TCP.
//!
//! ```text
//! cargo run --release --example runtime_race [-- OPTIONS]
//!   --telemetry PATH   write the measured decomposition as JSON
//!   --scrape           start each node's observability plane and
//!                      print the per-node scrape addresses
//!   --addr-file PATH   write the scrape addresses (one host:port per
//!                      line, rewritten per race) for external pollers
//!   --flight-dir PATH  dump per-node flight rings under PATH/<protocol>/
//!   --kill-one         kill replica 3 after the measure window, so the
//!                      stop path leaves a real flight dump to autopsy
//! ```
//!
//! Unlike `protocol_race` (which *models* the paper testbed on the
//! deterministic simulator), this example *measures*: the same
//! `marlin-core` state machines run on real threads with real sockets,
//! real clocks, and the telemetry decomposition computed from
//! wall-clock timestamps. The per-phase table at the end puts the
//! measured segments side by side with the simnet-modeled ones — two
//! QC phases for Marlin against three for HotStuff, on both clocks —
//! and splits each measured segment across the CPU lanes (crypto,
//! journal, consensus logic, wire/queue). Committed prefixes across
//! all four replicas are checked for agreement at the end of each run.

use marlin_bft::core::ProtocolKind;
use marlin_bft::runtime::{
    ClusterConfig, CommitObserverFn, ObservabilityConfig, RuntimeCluster, TransportKind,
};
use marlin_bft::simnet::{run_experiment_with_telemetry, ExperimentConfig, SimConfig, Stats};
use marlin_bft::telemetry::{json_str, Decomposition, SharedSink, Telemetry, TelemetrySink, Trace};
use marlin_bft::types::ReplicaId;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(750);
const MEASURE: Duration = Duration::from_secs(3);
const TX_BYTES: usize = 150;
const TXS_PER_TICK: usize = 100;
const TICK: Duration = Duration::from_millis(5);

#[derive(Default)]
struct Opts {
    telemetry: Option<PathBuf>,
    scrape: bool,
    addr_file: Option<PathBuf>,
    flight_dir: Option<PathBuf>,
    kill_one: bool,
}

impl Opts {
    fn parse() -> Opts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let path_after = |flag: &str| -> Option<PathBuf> {
            args.iter().position(|a| a == flag).map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("{flag} needs a path"))
                    .into()
            })
        };
        Opts {
            telemetry: path_after("--telemetry"),
            scrape: args.iter().any(|a| a == "--scrape"),
            addr_file: path_after("--addr-file"),
            flight_dir: path_after("--flight-dir"),
            kill_one: args.iter().any(|a| a == "--kill-one"),
        }
    }

    /// Any flag that needs the per-node registries/recorders running.
    fn observe(&self) -> bool {
        self.scrape || self.addr_file.is_some() || self.flight_dir.is_some() || self.kill_one
    }
}

struct RaceResult {
    protocol: ProtocolKind,
    metrics: marlin_bft::simnet::Metrics,
    decomposition: Decomposition,
    modeled: Decomposition,
    shortest_prefix: usize,
}

fn race(protocol: ProtocolKind, opts: &Opts) -> RaceResult {
    let mut cfg = ClusterConfig::new(protocol, 4, 1);
    cfg.transport = TransportKind::Tcp;
    cfg.batch_size = 400;
    if opts.observe() {
        cfg.observability = Some(ObservabilityConfig {
            flight_dir: opts.flight_dir.as_ref().map(|d| d.join(protocol.name())),
            ..ObservabilityConfig::default()
        });
    }

    let stats = SharedSink::new(Stats::new(ReplicaId(0), 0, WARMUP.as_nanos() as u64));
    let observer: CommitObserverFn = {
        let mut stats = stats.clone();
        Box::new(move |replica, now_ns, blocks| {
            stats.record(now_ns, replica, Telemetry::Committed(blocks));
        })
    };

    let mut cluster =
        RuntimeCluster::launch(cfg, Some(observer)).expect("launch loopback-TCP cluster");

    if opts.observe() {
        let addrs: Vec<String> = (0..4)
            .filter_map(|i| cluster.scrape_addr(i))
            .map(|a| a.to_string())
            .collect();
        if opts.scrape {
            for (i, a) in addrs.iter().enumerate() {
                println!("  node-{i}: http://{a}/metrics");
            }
        }
        if let Some(path) = &opts.addr_file {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).expect("create addr-file directory");
            }
            std::fs::write(path, addrs.join("\n") + "\n").expect("write addr file");
        }
    }

    // Open-loop load at ~20 ktx/s of 150-byte transactions, submitted
    // locally at the current leader.
    let start = Instant::now();
    while start.elapsed() < WARMUP + MEASURE {
        cluster.submit(TXS_PER_TICK, TX_BYTES);
        std::thread::sleep(TICK);
    }
    let end_ns = cluster.clock().now_ns();
    // Let in-flight blocks drain before the safety check.
    std::thread::sleep(Duration::from_millis(200));

    if opts.kill_one {
        // Stop a follower abruptly once measurement is over: its stop
        // path stamps the FATAL marker and (with --flight-dir) dumps
        // the ring for `marlin-flight print` to autopsy.
        cluster.kill(3);
    }

    let shortest_prefix = cluster
        .check_prefix_consistency()
        .expect("committed prefixes diverged");
    let report = cluster.shutdown();

    let mut stats = stats
        .into_inner()
        .expect("all observer clones dropped at shutdown");
    for e in &report.trace.events {
        stats.note(e.at_ns, e.replica, &e.note);
    }
    let duration_ns = end_ns.saturating_sub(WARMUP.as_nanos() as u64);
    let metrics = stats.into_metrics(duration_ns);
    let decomposition = Decomposition::from_trace(&report.trace);

    RaceResult {
        protocol,
        metrics,
        decomposition,
        modeled: modeled_decomposition(protocol),
        shortest_prefix,
    }
}

/// The simnet-modeled counterpart of the same load point: the identical
/// state machines on the deterministic simulator's network/CPU model —
/// over the simulated fast LAN, since the measured side runs loopback
/// TCP, not the paper's 40 ms WAN — traced through the same telemetry
/// pipeline.
fn modeled_decomposition(protocol: ProtocolKind) -> Decomposition {
    let mut cfg = ExperimentConfig::paper(protocol, 1);
    cfg.net = SimConfig::lan();
    cfg.payload_len = TX_BYTES;
    cfg.rate_tps = (TXS_PER_TICK as f64 / TICK.as_secs_f64()) as u64;
    cfg.duration_ns = 3_000_000_000;
    cfg.warmup_ns = 750_000_000;
    let shared = SharedSink::new(Trace::new());
    let _ = run_experiment_with_telemetry(&cfg, Box::new(shared.clone()));
    shared.with(|trace| Decomposition::from_trace(trace))
}

fn mean_ms(d: &Decomposition, label: &str) -> Option<f64> {
    d.segments()
        .into_iter()
        .find(|s| s.label == label)
        .map(|s| s.hist.mean_ns() as f64 / 1e6)
}

fn main() {
    let opts = Opts::parse();

    println!(
        "n = 4 (f = 1) over loopback TCP, {TX_BYTES}-byte txs, ~{:.0} ktx/s offered, \
{}s measured after {}ms warmup — real threads, real sockets, real clocks, sha256 backend {}\n",
        TXS_PER_TICK as f64 / TICK.as_secs_f64() / 1e3,
        MEASURE.as_secs(),
        WARMUP.as_millis(),
        marlin_bft::crypto::sha256_backend(),
    );
    println!(
        "{:<20} {:>10} {:>11} {:>10} {:>8} {:>8}",
        "protocol", "ktx/s", "mean (ms)", "p99 (ms)", "prefix", "skewed"
    );

    let mut results = Vec::new();
    for protocol in [ProtocolKind::Marlin, ProtocolKind::HotStuff] {
        let r = race(protocol, &opts);
        println!(
            "{:<20} {:>10.2} {:>11.2} {:>10.2} {:>8} {:>8}",
            r.protocol.name(),
            r.metrics.ktps(),
            r.metrics.latency.mean_ms,
            r.metrics.latency.p99_ms,
            r.shortest_prefix,
            r.metrics.skew_clamped,
        );
        results.push(r);
    }

    println!(
        "\ncommit-latency decomposition (mean ms per segment) — measured on TCP \
vs simnet-modeled:"
    );
    for r in &results {
        println!(
            "  {} — {} QC phases measured, {} modeled",
            r.protocol.name(),
            r.decomposition.phase_count(),
            r.modeled.phase_count()
        );
        println!("    {:<18} {:>10} {:>10}", "segment", "measured", "modeled");
        for seg in r.decomposition.segments() {
            let measured = seg.hist.mean_ns() as f64 / 1e6;
            match mean_ms(&r.modeled, &seg.label) {
                Some(m) => println!("    {:<18} {:>10.2} {:>10.2}", seg.label, measured, m),
                None => println!("    {:<18} {:>10.2} {:>10}", seg.label, measured, "-"),
            }
        }
        let end_to_end = r.decomposition.commit_latency().mean_ns() as f64 / 1e6;
        let modeled_e2e = r.modeled.commit_latency().mean_ns() as f64 / 1e6;
        println!(
            "    {:<18} {:>10.2} {:>10.2}",
            "propose→commit", end_to_end, modeled_e2e
        );
    }

    println!("\nmeasured lane split per segment (share of wall-clock window):");
    for r in &results {
        println!("  {}", r.protocol.name());
        for lane in r.decomposition.lane_breakdown() {
            let pct = |ns: u64| {
                if lane.window_ns == 0 {
                    0.0
                } else {
                    ns as f64 / lane.window_ns as f64 * 100.0
                }
            };
            println!(
                "    {:<18} crypto {:>5.1}%  journal {:>5.1}%  consensus {:>5.1}%  wire/queue {:>5.1}%",
                lane.label,
                pct(lane.crypto_ns),
                pct(lane.journal_ns),
                pct(lane.consensus_ns),
                pct(lane.wire_ns),
            );
        }
    }

    if let Some(path) = &opts.telemetry {
        let mut json = String::from("{\"mode\":\"measured\",\"protocols\":[");
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"protocol\":{},\"ktps\":{:.3},\"mean_ms\":{:.3},\"p99_ms\":{:.3},\
\"skew_clamped\":{},\"decomposition\":{},\"modeled\":{}}}",
                json_str(r.protocol.name()),
                r.metrics.ktps(),
                r.metrics.latency.mean_ms,
                r.metrics.latency.p99_ms,
                r.metrics.skew_clamped,
                r.decomposition.to_json(),
                r.modeled.to_json()
            );
        }
        json.push_str("]}");
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create telemetry output directory");
        }
        std::fs::write(path, json).expect("write telemetry report");
        println!("\nwrote measured decomposition to {}", path.display());
    }

    println!(
        "\nBoth runs drive the identical sans-io state machines the simulator uses; \
compare against\n`cargo run --release --example protocol_race` for the modeled numbers \
(see EXPERIMENTS.md)."
    );
}
