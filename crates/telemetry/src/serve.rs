//! Dependency-free HTTP/1.1 scrape endpoint.
//!
//! One [`ScrapeServer`] per node: a `std::net::TcpListener` on its own
//! thread serving
//!
//! * `GET /metrics` — Prometheus text exposition 0.0.4 of the node's
//!   registry, run through [`check_prometheus_text`] before every
//!   response (a response that fails the validator is a bug, served as
//!   500 so scrapers and CI catch it);
//! * `GET /metrics.json` — the same snapshot as JSON;
//! * `GET /health` — a compact liveness document ([`Health`]): current
//!   view, committed height, sync state, journal lag, peer
//!   connectivity;
//! * `GET /debug/flight` — the node's flight-recorder ring as a binary
//!   dump (see [`crate::flight`]).
//!
//! Scraping never blocks the consensus driver: `/metrics` calls
//! [`Registry::snapshot`], which holds the registry lock only for the
//! copy; rendering, validation, and socket writes all happen on the
//! scrape thread. Requests are read with a bounded buffer and a socket
//! timeout so a stalled scraper cannot pin the thread forever.

use crate::export::check_prometheus_text;
use crate::flight::FlightRecorder;
use crate::registry::Registry;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request head the server will buffer before answering 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// The `/health` document: a point-in-time liveness summary assembled
/// by the runtime (the server just renders it).
#[derive(Clone, Debug, Default)]
pub struct Health {
    /// Replica id.
    pub replica: u32,
    /// Current consensus view.
    pub view: u64,
    /// Committed chain height (blocks).
    pub committed_blocks: u64,
    /// Committed transactions.
    pub committed_txs: u64,
    /// `"idle"` or `"syncing"`.
    pub sync_state: &'static str,
    /// Journal operations in progress: 1 while the stepping thread is
    /// inside a disk call, 0 otherwise.
    pub journal_lag: u64,
    /// Peers with a live connection right now.
    pub peers_connected: u64,
    /// Peers in the static mesh (n - 1).
    pub peers_total: u64,
    /// Undecodable frames seen by the transport's readers.
    pub decode_errors: u64,
    /// Sends dropped at the transport.
    pub send_drops: u64,
    /// Nanoseconds since the run's clock epoch.
    pub uptime_ns: u64,
}

impl Health {
    /// Renders the document as JSON.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"replica\":{},\"view\":{},\"committed_blocks\":{},",
                "\"committed_txs\":{},\"sync_state\":\"{}\",\"journal_lag\":{},",
                "\"peers_connected\":{},\"peers_total\":{},\"decode_errors\":{},",
                "\"send_drops\":{},\"uptime_ns\":{}}}"
            ),
            self.replica,
            self.view,
            self.committed_blocks,
            self.committed_txs,
            self.sync_state,
            self.journal_lag,
            self.peers_connected,
            self.peers_total,
            self.decode_errors,
            self.send_drops,
            self.uptime_ns,
        )
    }
}

/// Assembles the `/health` document on demand.
pub type HealthFn = Arc<dyn Fn() -> Health + Send + Sync>;

/// A per-node HTTP scrape server (see the module docs).
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `127.0.0.1:0` (an OS-assigned port) and starts the accept
    /// loop on its own thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn start(
        registry: Registry,
        health: HealthFn,
        flight: FlightRecorder,
    ) -> io::Result<ScrapeServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let thread = std::thread::Builder::new()
            .name(format!("scrape-{}", addr.port()))
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let _ = serve_one(stream, &registry, &health, &flight);
                }
            })
            .expect("spawn scrape thread");
        Ok(ScrapeServer {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (`127.0.0.1:<port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.shutdown.store(true, Ordering::Release);
            // The acceptor is parked in accept(): poke it awake.
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_one(
    mut stream: TcpStream,
    registry: &Registry,
    health: &HealthFn,
    flight: &FlightRecorder,
) -> io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let path = match read_request_path(&mut stream) {
        Ok(path) => path,
        Err(why) => return respond(&mut stream, 400, "text/plain", why.as_bytes()),
    };
    match path.as_str() {
        "/metrics" => {
            let text = registry.snapshot().to_prometheus();
            match check_prometheus_text(&text) {
                Ok(_) => respond(
                    &mut stream,
                    200,
                    "text/plain; version=0.0.4",
                    text.as_bytes(),
                ),
                // An exporter bug must be loud, not silently scraped.
                Err(why) => respond(&mut stream, 500, "text/plain", why.as_bytes()),
            }
        }
        "/metrics.json" => {
            let json = registry.snapshot().to_json();
            respond(&mut stream, 200, "application/json", json.as_bytes())
        }
        "/health" => {
            let doc = health().to_json();
            respond(&mut stream, 200, "application/json", doc.as_bytes())
        }
        "/debug/flight" => {
            let dump = flight.encode_dump();
            respond(&mut stream, 200, "application/octet-stream", &dump)
        }
        _ => respond(&mut stream, 404, "text/plain", b"unknown path"),
    }
}

/// Reads the request head (bounded) and returns the GET path.
fn read_request_path(stream: &mut TcpStream) -> Result<String, String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head_complete(&buf) {
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err("request head too large".into());
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return Err(format!("unsupported method {method:?}"));
    }
    if path.is_empty() {
        return Err("missing request path".into());
    }
    // Scrape paths carry no query strings; strip one defensively.
    Ok(path.split('?').next().unwrap_or(path).to_string())
}

fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{parse_dump, Record};
    use marlin_types::ReplicaId;

    /// Minimal scrape client: one GET, returns (status, body bytes).
    pub(crate) fn http_get(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
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

    fn test_server() -> (ScrapeServer, Registry, FlightRecorder) {
        let registry = Registry::new();
        registry.counter("consensus_commits_total").add(7);
        registry.gauge("runtime_channel_depth").set(3);
        let flight = FlightRecorder::new("test", ReplicaId(0), Arc::new(|| 5));
        flight.record_now(Record::Transport("hello".into()));
        let health: HealthFn = Arc::new(|| Health {
            replica: 2,
            view: 9,
            committed_blocks: 7,
            sync_state: "idle",
            peers_total: 3,
            ..Health::default()
        });
        let server = ScrapeServer::start(registry.clone(), health, flight.clone()).expect("bind");
        (server, registry, flight)
    }

    #[test]
    fn metrics_and_health_round_trip_over_http() {
        let (mut server, _reg, _flight) = test_server();
        let (status, body) = http_get(server.addr(), "/metrics");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).expect("utf8 exposition");
        check_prometheus_text(&text).expect("served metrics validate");
        assert!(text.contains("consensus_commits_total 7"));

        let (status, body) = http_get(server.addr(), "/metrics.json");
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("\"consensus_commits_total\""));

        let (status, body) = http_get(server.addr(), "/health");
        assert_eq!(status, 200);
        let doc = String::from_utf8_lossy(&body).into_owned();
        assert!(doc.contains("\"view\":9"), "{doc}");
        assert!(doc.contains("\"sync_state\":\"idle\""), "{doc}");

        let (status, _) = http_get(server.addr(), "/nope");
        assert_eq!(status, 404);
        server.stop();
    }

    #[test]
    fn debug_flight_serves_a_parseable_dump() {
        let (mut server, _reg, flight) = test_server();
        let (status, body) = http_get(server.addr(), "/debug/flight");
        assert_eq!(status, 200);
        let events = parse_dump(&body).expect("parseable dump over http");
        assert_eq!(events, flight.snapshot());
        server.stop();
    }

    #[test]
    fn stop_joins_and_frees_the_port() {
        let (mut server, _reg, _flight) = test_server();
        let addr = server.addr();
        server.stop();
        // A second stop is a no-op, and the listener is gone: a fresh
        // server can bind the exact same address.
        server.stop();
        let rebound = TcpListener::bind(addr).expect("port freed after stop");
        drop(rebound);
    }
}
