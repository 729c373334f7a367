//! Live-observability integration: a cluster under real load with the
//! scrape plane on, hammered by concurrent scrapers; backpressure
//! attribution through the lane meters; and flight-recorder autopsies
//! from killed nodes — over HTTP and from on-disk dumps.

use marlin_core::ProtocolKind;
use marlin_runtime::{ClusterConfig, JournalMode, ObservabilityConfig, RuntimeCluster};
use marlin_telemetry::{check_prometheus_text, parse_dump, FlightKind};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimal scrape client: one GET, returns (status, body bytes).
fn http_get(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape server");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = String::from_utf8_lossy(&raw[..split]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, raw[split + 4..].to_vec())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marlin-observe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn observed_config(kind: ProtocolKind) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(kind, 4, 1);
    cfg.observability = Some(ObservabilityConfig::default());
    cfg
}

/// Disk calls replica `i`'s journal lane has metered so far.
fn journal_ops(cluster: &RuntimeCluster, i: usize) -> u64 {
    cluster
        .registry(i)
        .expect("registry")
        .counter_with("runtime_channel_enqueued_total", &[("lane", "journal")])
        .get()
}

/// Satellite (c): the cluster runs at saturation while scraper threads
/// hammer every node's endpoint. Every `/metrics` response must be
/// validator-clean (the server itself 500s on malformed exposition, so
/// status 200 *is* the validation), `/health` must parse, and the run
/// must still commit with agreeing prefixes.
#[test]
fn scrape_under_load_is_valid_and_consensus_agrees() {
    let mut cluster = RuntimeCluster::launch(observed_config(ProtocolKind::Marlin), None)
        .expect("launch observed cluster");
    let addrs: Vec<SocketAddr> = (0..4)
        .map(|i| cluster.scrape_addr(i).expect("scrape endpoint up"))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let scrapers: Vec<_> = addrs
        .iter()
        .map(|&addr| {
            let stop = Arc::clone(&stop);
            let scrapes = Arc::clone(&scrapes);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let (status, body) = http_get(addr, "/metrics");
                    assert_eq!(
                        status,
                        200,
                        "scrape failed: {}",
                        String::from_utf8_lossy(&body)
                    );
                    let text = String::from_utf8(body).expect("utf8 exposition");
                    check_prometheus_text(&text).expect("served text validates");
                    let (status, body) = http_get(addr, "/health");
                    assert_eq!(status, 200);
                    let health = String::from_utf8_lossy(&body).into_owned();
                    assert!(health.contains("\"view\":"), "{health}");
                    assert!(health.contains("\"sync_state\":\""), "{health}");
                    let (status, _) = http_get(addr, "/metrics.json");
                    assert_eq!(status, 200);
                    scrapes.fetch_add(1, Ordering::AcqRel);
                }
            })
        })
        .collect();

    // Saturate: keep the mempools full until every replica committed
    // 150 blocks while the scrapers run.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut reached = false;
    while Instant::now() < deadline {
        cluster.submit(200, 8);
        if cluster.wait_for_blocks(150, Duration::from_millis(20)) {
            reached = true;
            break;
        }
    }
    stop.store(true, Ordering::Release);
    for s in scrapers {
        s.join()
            .expect("scraper thread panicked (assertion failed)");
    }
    assert!(reached, "observed cluster failed to commit 150 blocks");
    assert!(
        scrapes.load(Ordering::Acquire) >= 20,
        "scrapers barely ran: {} rounds",
        scrapes.load(Ordering::Acquire)
    );

    let prefix = cluster.check_prefix_consistency().expect("no divergence");
    assert!(prefix >= 150, "shortest commit log only {prefix} blocks");

    // The registry carries the consensus fold and the lane meters.
    let snapshot = cluster.registry(0).expect("registry").snapshot();
    let text = snapshot.to_prometheus();
    for needle in [
        "runtime_channel_enqueued_total{lane=\"consensus\"}",
        "runtime_channel_depth{lane=\"consensus\"}",
        "consensus_current_view",
        "consensus_commit_height",
        "consensus_committed_txs_total",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    // Ingress decodes on its own thread and feeds the consensus lane
    // directly, and the consensus thread keeps its own timers: there is
    // no ingress queue and no timer queue to meter.
    for gone in ["lane=\"ingress\"", "lane=\"timer\""] {
        assert!(!text.contains(gone), "{gone} in:\n{text}");
    }
    // The default `JournalMode::Memory` journal is metered like a file
    // one: the lane is the voter's time in disk calls, whatever disk.
    assert!(journal_ops(&cluster, 0) > 0, "memory journal never metered");
    // QC formation is leader-side; it must show up on *some* replica.
    assert!(
        (0..4).any(|i| {
            cluster.registry(i).is_some_and(|r| {
                r.snapshot()
                    .to_prometheus()
                    .contains("consensus_qcs_formed_total")
            })
        }),
        "no replica exported consensus_qcs_formed_total"
    );
    cluster.shutdown();
}

/// Satellite (c), attribution half: with a deliberately tiny event
/// queue the ingress→consensus lane must be the one reporting stalls —
/// the backpressure shows up *named*, not as a silent throughput dip.
#[test]
fn consensus_lane_stalls_attribute_backpressure() {
    let mut cfg = observed_config(ProtocolKind::Marlin);
    cfg.event_queue_depth = 2;
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch");
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        cluster.submit(200, 8);
        if cluster.wait_for_blocks(60, Duration::from_millis(10)) {
            break;
        }
    }
    assert!(
        cluster.wait_for_blocks(60, Duration::from_secs(1)),
        "tiny-queue cluster failed to commit"
    );
    let stalled: u64 = (0..4)
        .map(|i| {
            cluster
                .registry(i)
                .expect("registry")
                .counter_with("runtime_channel_stalls_total", &[("lane", "consensus")])
                .get()
        })
        .sum();
    assert!(
        stalled > 0,
        "no consensus-lane stalls recorded despite a depth-2 event queue at saturation"
    );
    // The stall histogram must carry matching samples.
    let samples: u64 = (0..4)
        .map(|i| {
            cluster
                .registry(i)
                .expect("registry")
                .histogram_with("runtime_channel_stall_ns", &[("lane", "consensus")])
                .snapshot()
                .count()
        })
        .sum();
    assert_eq!(samples, stalled, "every stall records one duration sample");
    cluster.check_prefix_consistency().expect("no divergence");
    cluster.shutdown();
}

/// Tentpole (3): killing a node dumps its flight ring — CRC-framed,
/// parseable, ending in the FATAL stop marker with real history before
/// it — and `/debug/flight` serves the live ring of a running node.
#[test]
fn killed_node_leaves_a_parseable_flight_dump() {
    let dir = scratch_dir("flight");
    let mut cfg = observed_config(ProtocolKind::Marlin);
    cfg.journal = JournalMode::Files(dir.join("journals"));
    cfg.observability = Some(ObservabilityConfig {
        flight_dir: Some(dir.join("flight")),
        ..ObservabilityConfig::default()
    });
    let mut cluster = RuntimeCluster::launch(cfg, None).expect("launch");
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        cluster.submit(100, 8);
        if cluster.wait_for_blocks(40, Duration::from_millis(20)) {
            break;
        }
    }
    assert!(
        cluster.wait_for_blocks(40, Duration::from_secs(1)),
        "cluster failed to commit before the kill"
    );

    // A live node serves its ring over HTTP.
    let addr = cluster.scrape_addr(0).expect("scrape endpoint");
    let (status, body) = http_get(addr, "/debug/flight");
    assert_eq!(status, 200);
    let live_events = parse_dump(&body).expect("live ring parses");
    assert!(!live_events.is_empty(), "live ring is empty under load");

    // Kill replica 2: the stop path must leave an autopsy on disk.
    cluster.kill(2);
    let dump_path = dir.join("flight").join("node-2.flight");
    let bytes = std::fs::read(&dump_path).expect("flight dump written on kill");
    let events = parse_dump(&bytes).expect("dump parses");
    let last = events.last().expect("dump has events");
    assert_eq!(
        last.kind,
        FlightKind::Fatal,
        "dump ends in the fatal marker"
    );
    assert!(last.detail.contains("node stopped"), "{}", last.detail);
    assert!(
        events.len() > 1,
        "fatal marker has no preceding ring history"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == FlightKind::Journal || e.kind == FlightKind::Note),
        "ring carries no consensus history"
    );
    // The journal lane metered the replica's disk calls while it ran.
    assert!(journal_ops(&cluster, 2) > 0, "journal lane never metered");

    cluster.check_prefix_consistency().expect("no divergence");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
