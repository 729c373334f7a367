//! Length-framed replica-to-replica transports.
//!
//! A [`Transport`] moves opaque frames — wire-codec bytes produced by
//! `marlin_types::codec::encode_message` — between replicas. Frames are
//! prefixed with a little-endian `u32` length on the wire; the
//! [`FrameBuffer`] reassembles them from an arbitrary byte stream,
//! tolerating short reads, split frames, and coalesced frames, and
//! rejecting frames over [`MAX_FRAME_LEN`] before buffering them.
//!
//! Two implementations, each handing every frame to its endpoint's
//! [`Transport::route`] on a thread of its own (a replica that is
//! stepping must never step another inline). A frame that arrives before
//! the route waits in its channel or connection.
//!
//! - [`ChannelMesh`]: in-process `std::sync::mpsc` channels, one per
//!   sender with its own delivery thread. Zero syscalls, used by
//!   deterministic-ish soak tests and as the fastest baseline.
//! - [`TcpMesh`]: localhost TCP. Each node binds a listener; outbound
//!   connections are dialed lazily on first send (and re-dialed after
//!   errors, which is what lets a recovered replica rejoin), inbound
//!   connections are identified by a 4-byte hello carrying the peer's
//!   replica id and drained by per-connection reader threads.
//!
//! Delivery is best-effort: a frame to a dead or unreachable peer is
//! dropped, exactly like a lossy network. Consensus tolerates loss by
//! construction (timeouts, fetch/catch-up retries).

use bytes::Bytes;
use marlin_types::ReplicaId;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Hard ceiling on one transport frame; re-exported from the codec so
/// the reader and the decoder enforce the same bound.
pub use marlin_types::codec::MAX_FRAME_LEN;

/// Depth of a channel-mesh inbox (one per sending peer) and of
/// [`TcpTransport::recv`]'s queue. Senders block when it is full
/// (backpressure), so the bound caps memory, not correctness.
const INBOX_DEPTH: usize = 8192;

/// Observer for connection-lifecycle events (dials, accepts,
/// teardowns), fed to the node's flight recorder. Human-readable by
/// design: these are autopsy breadcrumbs, not metrics.
pub type TransportEventFn = Arc<dyn Fn(&str) + Send + Sync>;

/// Where a routed endpoint hands its frames (see [`Transport::route`]).
pub type Route = Arc<dyn Fn(Bytes) + Send + Sync>;

/// A replica's endpoint in a message mesh.
///
/// `send` may be called concurrently from any thread. The consensus
/// state machine never sees this trait — the runtime translates frames
/// to events at the boundary.
pub trait Transport: Send + Sync {
    /// This endpoint's replica id.
    fn local_id(&self) -> ReplicaId;

    /// Number of replicas in the mesh.
    fn n(&self) -> usize;

    /// Sends one frame to `to`, best-effort. An `Err` means the frame
    /// was dropped (peer dead/unreachable); callers treat it as network
    /// loss, not a fatal condition.
    fn send(&self, to: ReplicaId, frame: &[u8]) -> io::Result<()>;

    /// Hands every frame to `route` on a thread the transport owns,
    /// frames of one peer in the order it sent them; those that arrived
    /// before go first. Install at most one; on a closed endpoint it is
    /// dropped.
    fn route(&self, route: Route);

    /// Stops delivery, releases the route and tears down connections.
    /// Idempotent.
    fn close(&self);

    /// Peers this endpoint could deliver to right now. Meshes without
    /// per-peer connection state report full connectivity.
    fn peers_connected(&self) -> usize {
        self.n().saturating_sub(1)
    }

    /// Installs a connection-lifecycle observer. Default: dropped
    /// (meshes without connection state have nothing to report).
    fn set_event_hook(&self, _hook: TransportEventFn) {}
}

// ------------------------------------------------------------ framing --

/// Encodes `payload` as one wire frame (`u32` LE length + bytes).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Most bytes [`FrameBuffer::read_from`] takes into the staging buffer
/// per socket read: room for dozens of votes, yet small enough that
/// bursts regularly split across reads. A longer frame cannot arrive in
/// one read; the rest of it is read into an allocation of its own, so
/// at most this much of it is ever copied.
const READ_CHUNK: usize = 8 * 1024;

/// Writes `payload` to `out` as one wire frame without first joining
/// header and payload in a buffer of their own: a vectored write hands
/// the kernel both, and whatever a short write leaves over is retried
/// from where it stopped, so the stream carries every header and payload
/// byte exactly once, in order.
fn write_frame(out: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let header = (payload.len() as u32).to_le_bytes();
    let mut sent = 0;
    while sent < header.len() + payload.len() {
        let wrote = if sent < header.len() {
            out.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(payload)])
        } else {
            out.write(&payload[sent - header.len()..])
        };
        match wrote {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Streaming frame reassembly over an untrusted byte stream.
///
/// Feed it whatever the socket returns — a partial header, half a
/// frame, three frames glued together — and pull complete payloads out,
/// each a [`Bytes`] of its own that later reads never touch. A length
/// prefix over [`MAX_FRAME_LEN`] poisons the stream (the peer is
/// malicious or corrupt; there is no way to resynchronize a
/// length-framed stream after a bad length).
///
/// Headers and short frames pass through one contiguous staging buffer:
/// bytes arrive at `tail`, a complete frame is copied out from `head`,
/// and consumed space is reclaimed when the buffer drains, or by moving
/// the unconsumed bytes down once the consumed prefix is at least as
/// long as they are. A frame longer than [`READ_CHUNK`] leaves staging
/// once its header is known: what has arrived of it moves into an
/// allocation of exactly its length, the socket is read straight into
/// the rest, and that allocation *is* the frame handed out — a block's
/// payload is written once, by the kernel, and not copied again.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// `buf[head..tail]` is the unconsumed stream (after `own`, if
    /// any); `buf[tail..]` is initialised spare room.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// A long frame in its own allocation. It precedes everything in
    /// `buf`, and while it is incomplete `buf` is empty.
    own: Option<OwnFrame>,
    poisoned: bool,
}

/// A whole payload's allocation; `data[filled..]` is still zeroes.
#[derive(Debug)]
struct OwnFrame {
    data: Vec<u8>,
    filled: usize,
}

/// A frame length prefix exceeded [`MAX_FRAME_LEN`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The claimed payload length.
    pub len: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame length {} exceeds {}", self.len, MAX_FRAME_LEN)
    }
}

impl std::error::Error for FrameTooLarge {}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends freshly-read bytes.
    pub fn push(&mut self, mut chunk: &[u8]) {
        while !chunk.is_empty() {
            self.read_from(&mut chunk).expect("a slice reads");
        }
    }

    /// Appends whatever one `read` on `src` returns, read straight into
    /// the buffer. Returns the byte count (`0` at end of stream).
    ///
    /// # Errors
    ///
    /// Propagates the error of `src.read`; nothing is appended then.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.open_own();
        if let Some(own) = self.own.as_mut().filter(|own| own.filled < own.data.len()) {
            // Never past the frame's end: what follows it is a header.
            let n = src.read(&mut own.data[own.filled..])?;
            own.filled += n;
            return Ok(n);
        }
        let n = src.read(&mut self.spare(READ_CHUNK)[..READ_CHUNK])?;
        self.tail += n;
        Ok(n)
    }

    /// Room for at least `want` more bytes at `tail`.
    fn spare(&mut self, want: usize) -> &mut [u8] {
        if self.buf.len() - self.tail < want {
            let live = self.tail - self.head;
            if self.head >= live {
                self.buf.copy_within(self.head..self.tail, 0);
                self.head = 0;
                self.tail = live;
            }
            if self.buf.len() - self.tail < want {
                let grown = (self.tail + want).max(2 * self.buf.len());
                self.buf.resize(grown, 0);
            }
        }
        &mut self.buf[self.tail..]
    }

    /// The claimed payload length of the frame at `head`, once its
    /// header is buffered, and the payload bytes buffered after it.
    fn front(&self) -> Option<(usize, &[u8])> {
        let (header, rest) = self.buf[self.head..self.tail].split_first_chunk::<4>()?;
        Some((u32::from_le_bytes(*header) as usize, rest))
    }

    /// Gives the incomplete frame at `head` an allocation of its own if
    /// it is longer than one read (and legal, and the slot is free).
    fn open_own(&mut self) {
        let Some((len, arrived)) = self.front().filter(|_| self.own.is_none()) else {
            return;
        };
        if len <= READ_CHUNK || len > MAX_FRAME_LEN || arrived.len() >= len {
            return;
        }
        let filled = arrived.len();
        let mut data = vec![0u8; len];
        data[..filled].copy_from_slice(arrived);
        self.own = Some(OwnFrame { data, filled });
        (self.head, self.tail) = (0, 0);
    }

    /// Bytes currently buffered (for backpressure accounting).
    pub fn buffered(&self) -> usize {
        let own = self.own.as_ref().map_or(0, |own| 4 + own.filled);
        own + self.tail - self.head
    }

    /// Pops the next complete frame payload, if one is buffered.
    ///
    /// # Errors
    ///
    /// [`FrameTooLarge`] once a length prefix exceeds the ceiling; the
    /// stream is poisoned and every later call returns the same error.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameTooLarge> {
        if self.poisoned {
            return Err(FrameTooLarge { len: 0 });
        }
        if self.own.is_some() {
            let whole = self.own.take_if(|own| own.filled == own.data.len());
            return Ok(whole.map(|own| Bytes::from(own.data)));
        }
        let Some((len, arrived)) = self.front() else {
            return Ok(None);
        };
        if len > MAX_FRAME_LEN {
            self.poisoned = true;
            return Err(FrameTooLarge { len });
        }
        let Some(payload) = arrived.get(..len) else {
            return Ok(None);
        };
        let payload = Bytes::copy_from_slice(payload);
        self.head += 4 + len;
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        Ok(Some(payload))
    }
}

// ------------------------------------------------------- channel mesh --

/// Sender slots shared by a channel mesh: slot `i` holds replica `i`'s
/// inbox senders, one per sending peer by its id (`None` while replica
/// `i` is down), so a recovered replica can reinstall fresh inboxes and
/// peers pick them up on their next send.
type ChannelSlots = Arc<Vec<Mutex<Option<Vec<SyncSender<Bytes>>>>>>;

/// An in-process mesh endpoint (see [`ChannelMesh::new`]).
pub struct ChannelTransport {
    id: ReplicaId,
    slots: ChannelSlots,
    /// One inbox per sending peer, until `route` hands each to a
    /// delivery thread of its own.
    inboxes: Mutex<Vec<Receiver<Bytes>>>,
    closed: Arc<AtomicBool>,
}

/// Builder/control handle for an in-process channel mesh.
pub struct ChannelMesh {
    slots: ChannelSlots,
}

impl ChannelMesh {
    /// Creates an `n`-replica mesh, returning one endpoint per replica.
    pub fn new(n: usize) -> (ChannelMesh, Vec<ChannelTransport>) {
        let slots = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let mesh = ChannelMesh { slots };
        let transports = (0..n).map(|i| mesh.endpoint(ReplicaId(i as u32))).collect();
        (mesh, transports)
    }

    /// (Re)creates the endpoint for `id`, installing fresh inboxes in
    /// the mesh. Used at construction and when a killed replica
    /// rejoins.
    pub fn endpoint(&self, id: ReplicaId) -> ChannelTransport {
        let (senders, inboxes) = (0..self.slots.len())
            .map(|_| sync_channel(INBOX_DEPTH))
            .unzip();
        *self.slots[id.index()].lock().expect("slot lock") = Some(senders);
        ChannelTransport {
            id,
            slots: Arc::clone(&self.slots),
            inboxes: Mutex::new(inboxes),
            closed: Arc::default(),
        }
    }
}

impl Transport for ChannelTransport {
    fn local_id(&self) -> ReplicaId {
        self.id
    }

    fn n(&self) -> usize {
        self.slots.len()
    }

    fn send(&self, to: ReplicaId, frame: &[u8]) -> io::Result<()> {
        let sender = self.slots[to.index()]
            .lock()
            .expect("slot lock")
            .as_ref()
            .map(|inboxes| inboxes[self.id.index()].clone());
        match sender {
            Some(tx) => tx
                .send(Bytes::copy_from_slice(frame))
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer inbox gone")),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "peer down")),
        }
    }

    /// One delivery thread per peer, like one TCP reader per connection,
    /// so a small mailbox fills and charges its stalls to the lane.
    fn route(&self, route: Route) {
        let inboxes = std::mem::take(&mut *self.inboxes.lock().expect("inbox lock"));
        let peers = inboxes.into_iter().enumerate();
        for (_, inbox) in peers.filter(|&(from, _)| from != self.id.index()) {
            let (route, closed) = (Arc::clone(&route), Arc::clone(&self.closed));
            std::thread::Builder::new()
                .name(format!("deliver-{}", self.id.0))
                .spawn(move || {
                    for frame in inbox {
                        if closed.load(Ordering::Acquire) {
                            return;
                        }
                        route(frame);
                    }
                })
                .expect("spawn delivery thread");
        }
    }

    fn peers_connected(&self) -> usize {
        self.slots
            .iter()
            .enumerate()
            .filter(|(i, slot)| *i != self.id.index() && slot.lock().expect("slot lock").is_some())
            .count()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Peers stop sending; the delivery threads end with the senders.
        self.slots[self.id.index()]
            .lock()
            .expect("slot lock")
            .take();
    }
}

// ----------------------------------------------------------- TCP mesh --

/// First re-dial delay after a failed dial; doubles per consecutive
/// failure up to [`DIAL_BACKOFF_CAP`], resets on a successful dial.
const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Ceiling on the re-dial delay. Low enough that a rejoining peer is
/// picked up within one view timeout, high enough that a dead peer
/// costs at most a few connect attempts per second.
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(640);

/// One peer's outbound connection slot with reconnect state.
#[derive(Default)]
struct PeerConn {
    /// The live connection, if any.
    stream: Option<TcpStream>,
    /// Consecutive dial failures since the last successful dial.
    failures: u32,
    /// Earliest instant the next dial may be attempted; sends inside
    /// the window fail fast without touching the network.
    retry_at: Option<Instant>,
}

/// Shared state of one TCP endpoint.
struct TcpShared {
    id: ReplicaId,
    addrs: Vec<SocketAddr>,
    /// Outbound connection per peer, dialed lazily with capped
    /// exponential backoff after failures.
    conns: Vec<Mutex<PeerConn>>,
    /// Where readers hand their frames. A reader waits on `routed` until
    /// there is one, so frames that arrive earlier wait in their
    /// connection, each peer's in order.
    route: Mutex<Option<Route>>,
    routed: Condvar,
    closed: AtomicBool,
    /// Connection-lifecycle observer (flight recorder breadcrumbs).
    event_hook: Mutex<Option<TransportEventFn>>,
}

impl TcpShared {
    fn dial(&self, to: ReplicaId) -> io::Result<TcpStream> {
        let mut stream = TcpStream::connect(self.addrs[to.index()])?;
        stream.set_nodelay(true).ok();
        // Hello: identify ourselves so the acceptor can attribute the
        // inbound stream.
        stream.write_all(&self.id.0.to_le_bytes())?;
        Ok(stream)
    }

    fn emit(&self, detail: &str) {
        let hook = self.event_hook.lock().expect("hook lock").clone();
        if let Some(hook) = hook {
            hook(detail);
        }
    }

    /// Hands `frame` to the route, first waiting for one to be
    /// installed. `false` once the endpoint is closed.
    fn deliver(&self, frame: Bytes) -> bool {
        let mut slot = self.route.lock().expect("route lock");
        loop {
            if self.closed.load(Ordering::Acquire) {
                return false;
            }
            if let Some(route) = slot.clone() {
                drop(slot);
                route(frame);
                return true;
            }
            slot = self.routed.wait(slot).expect("route lock");
        }
    }
}

/// A localhost-TCP mesh endpoint (see [`TcpMesh::new`]).
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    /// [`TcpTransport::recv`]'s queue, routed on its first call.
    inbox: OnceLock<Mutex<Receiver<Bytes>>>,
    local_addr: SocketAddr,
}

/// Builder/control handle for a loopback TCP mesh: knows every
/// replica's listen address so killed replicas can rebind and rejoin.
pub struct TcpMesh {
    addrs: Vec<SocketAddr>,
}

impl TcpMesh {
    /// Binds `n` loopback listeners and returns one endpoint per
    /// replica.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn new(n: usize) -> io::Result<(TcpMesh, Vec<TcpTransport>)> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<_>>()?;
        let mesh = TcpMesh {
            addrs: addrs.clone(),
        };
        let transports = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| TcpTransport::start(ReplicaId(i as u32), addrs.clone(), l))
            .collect();
        Ok((mesh, transports))
    }

    /// Rebinds `id`'s original address and returns a fresh endpoint for
    /// a rejoining replica. Peers re-dial it lazily on their next send.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from rebinding (the old endpoint must
    /// have been closed first).
    pub fn rejoin(&self, id: ReplicaId) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(self.addrs[id.index()])?;
        Ok(TcpTransport::start(id, self.addrs.clone(), listener))
    }
}

impl TcpTransport {
    fn start(id: ReplicaId, addrs: Vec<SocketAddr>, listener: TcpListener) -> TcpTransport {
        let local_addr = listener.local_addr().expect("listener addr");
        let shared = Arc::new(TcpShared {
            id,
            conns: (0..addrs.len())
                .map(|_| Mutex::new(PeerConn::default()))
                .collect(),
            addrs,
            route: Mutex::new(None),
            routed: Condvar::new(),
            closed: AtomicBool::new(false),
            event_hook: Mutex::new(None),
        });
        let accept_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("accept-{}", id.0))
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        TcpTransport {
            shared,
            inbox: OnceLock::new(),
            local_addr,
        }
    }

    /// The address this endpoint listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks for the next frame from any peer, for an endpoint no
    /// replica routes: the first call routes the endpoint into a queue
    /// of 8192 frames (a reader blocks while it is full) that
    /// this and later calls read; `NotConnected` once it is closed.
    pub fn recv(&self) -> io::Result<Bytes> {
        let inbox = self.inbox.get_or_init(|| {
            let (tx, rx) = sync_channel(INBOX_DEPTH);
            self.route(Arc::new(move |frame| {
                let _ = tx.send(frame);
            }));
            Mutex::new(rx)
        });
        // Closing drops the route, and with it the queue's last sender
        // once in-flight deliveries return.
        let frame = inbox.lock().expect("inbox lock").recv().ok();
        let open = frame.filter(|_| !self.shared.closed.load(Ordering::Acquire));
        open.ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "closed"))
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<TcpShared>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => return,
        };
        if shared.closed.load(Ordering::Acquire) {
            return;
        }
        stream.set_nodelay(true).ok();
        let reader_shared = Arc::clone(&shared);
        let name = format!("read-{}", shared.id.0);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || reader_loop(stream, reader_shared))
            .expect("spawn reader thread");
    }
}

/// Drains one inbound connection: hello, then a frame stream fed
/// through [`FrameBuffer`]. Exits on EOF, socket error, poisoned
/// framing, or transport close.
fn reader_loop(mut stream: TcpStream, shared: Arc<TcpShared>) {
    let mut hello = [0u8; 4];
    if stream.read_exact(&mut hello).is_err() {
        return;
    }
    let peer = u32::from_le_bytes(hello);
    shared.emit(&format!("accepted inbound stream from replica {peer}"));
    // Report why the drain ends, whatever the exit path.
    struct ExitNote<'a>(&'a TcpShared, u32);
    impl Drop for ExitNote<'_> {
        fn drop(&mut self) {
            self.0
                .emit(&format!("inbound stream from replica {} ended", self.1));
        }
    }
    let _exit = ExitNote(&shared, peer);
    let mut frames = FrameBuffer::new();
    loop {
        match frames.read_from(&mut stream) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        loop {
            match frames.next_frame() {
                Ok(Some(payload)) => {
                    if !shared.deliver(payload) {
                        return;
                    }
                }
                Ok(None) => break,
                // Oversized length prefix: drop the connection; the
                // peer can re-dial with a well-formed stream.
                Err(_) => return,
            }
        }
    }
}

impl Transport for TcpTransport {
    fn local_id(&self) -> ReplicaId {
        self.shared.id
    }

    fn n(&self) -> usize {
        self.shared.addrs.len()
    }

    fn send(&self, to: ReplicaId, frame_payload: &[u8]) -> io::Result<()> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "closed"));
        }
        let mut slot = self.shared.conns[to.index()].lock().expect("conn lock");
        if let Some(conn) = slot.stream.as_mut() {
            if write_frame(conn, frame_payload).is_ok() {
                return Ok(());
            }
            // Stale connection (peer died and maybe came back): fall
            // through to a fresh dial.
            slot.stream = None;
            self.shared
                .emit(&format!("outbound to replica {} went stale", to.0));
        }
        // Capped exponential backoff between dial attempts: a dead peer
        // costs one connect per window, not one per send.
        if slot.retry_at.is_some_and(|at| Instant::now() < at) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "dial backoff"));
        }
        match self.shared.dial(to) {
            Ok(mut conn) => {
                slot.failures = 0;
                slot.retry_at = None;
                write_frame(&mut conn, frame_payload)?;
                slot.stream = Some(conn);
                self.shared.emit(&format!("dialed replica {}", to.0));
                Ok(())
            }
            Err(e) => {
                // Note only the first failure of a streak: a dead peer
                // would otherwise flood the flight ring at the backoff
                // cadence.
                if slot.failures == 0 {
                    self.shared
                        .emit(&format!("dial to replica {} failed: {e}", to.0));
                }
                slot.failures = slot.failures.saturating_add(1);
                let delay = DIAL_BACKOFF_BASE
                    .saturating_mul(1 << (slot.failures - 1).min(6))
                    .min(DIAL_BACKOFF_CAP);
                slot.retry_at = Some(Instant::now() + delay);
                Err(e)
            }
        }
    }

    fn route(&self, route: Route) {
        let mut slot = self.shared.route.lock().expect("route lock");
        if !self.shared.closed.load(Ordering::Acquire) {
            *slot = Some(route);
            self.shared.routed.notify_all();
        }
    }

    fn peers_connected(&self) -> usize {
        self.shared
            .conns
            .iter()
            .filter(|slot| slot.lock().expect("conn lock").stream.is_some())
            .count()
    }

    fn set_event_hook(&self, hook: TransportEventFn) {
        *self.shared.event_hook.lock().expect("hook lock") = Some(hook);
    }

    fn close(&self) {
        if self.shared.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.emit("transport closed");
        // Unblock the acceptor with a throwaway connection to ourselves;
        // release the route and wake readers still waiting for one (the
        // route lock is taken after `closed` is set, so a reader either
        // sees it or is already waiting); drop outbound conns.
        let _ = TcpStream::connect(self.local_addr);
        self.shared.route.lock().expect("route lock").take();
        self.shared.routed.notify_all();
        for slot in self.shared.conns.iter() {
            if let Some(conn) = slot.lock().expect("conn lock").stream.take() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A reader that hands out a byte stream in pieces of prescribed
    /// sizes (cycled), like a socket returning short reads.
    struct ChunkedReader<'a> {
        stream: &'a [u8],
        sizes: std::iter::Cycle<std::slice::Iter<'a, usize>>,
    }

    impl Read for ChunkedReader<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let size = *self.sizes.next().expect("cycle of a non-empty list");
            let n = size.min(out.len()).min(self.stream.len());
            let (now, later) = self.stream.split_at(n);
            out[..n].copy_from_slice(now);
            self.stream = later;
            Ok(n)
        }
    }

    /// Delivers `stream` to a fresh [`FrameBuffer`] in pieces of the
    /// given sizes (cycled), through `read_from` or through `push`, and
    /// drains complete frames after every piece. Checks `buffered()`
    /// against an independent count at every step, so a cursor that
    /// goes wrong across a compaction or a growth is caught where it
    /// happens. The frames returned are the handles `next_frame` gave
    /// out, held while every later piece reused and compacted the buffer;
    /// one that filled an allocation of its own must *be* it, not a copy.
    fn reassemble(
        stream: &[u8],
        sizes: &[usize],
        via_read: bool,
    ) -> (FrameBuffer, Vec<Bytes>, Option<FrameTooLarge>) {
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        let mut reader = ChunkedReader {
            stream,
            sizes: sizes.iter().cycle(),
        };
        let mut piece = vec![0u8; *sizes.iter().max().expect("a non-empty list")];
        let mut consumed = 0;
        while !reader.stream.is_empty() {
            if via_read {
                fb.read_from(&mut reader).expect("a slice reads");
            } else {
                let n = reader.read(&mut piece).expect("a slice reads");
                fb.push(&piece[..n]);
            }
            let fed = stream.len() - reader.stream.len();
            assert_eq!(fb.buffered(), fed - consumed);
            loop {
                let own = fb.own.as_ref().map(|own| own.data.as_ptr());
                match fb.next_frame() {
                    Ok(Some(payload)) => {
                        assert!(own.is_none_or(|own| own == payload.as_ptr()));
                        consumed += 4 + payload.len();
                        frames.push(payload);
                        assert_eq!(fb.buffered(), fed - consumed);
                    }
                    Ok(None) => break,
                    Err(e) => return (fb, frames, Some(e)),
                }
            }
        }
        (fb, frames, None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any sequence of frames (empty ones, ones larger than a socket
        /// read), cut into any sequence of reads down to single bytes,
        /// comes out frame for frame; an oversized length prefix after
        /// them poisons the stream for good.
        #[test]
        fn frame_buffer_reassembles_any_chunking(
            lens in prop::collection::vec(
                prop_oneof![Just(0usize), 1usize..=200, 200usize..=20_000, 60_000usize..=140_000],
                0..10,
            ),
            sizes in prop::collection::vec(
                prop_oneof![Just(1usize), 1usize..=16, 17usize..=5000, 60_000usize..=70_000],
                1..8,
            ),
            via_read in any::<bool>(),
            poison in any::<bool>(),
        ) {
            let payloads: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|j| (i * 131 + j) as u8).collect())
                .collect();
            let mut stream: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
            if poison {
                stream.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
                stream.extend_from_slice(b"junk");
            }
            let (mut fb, got, err) = reassemble(&stream, &sizes, via_read);
            prop_assert_eq!(got, payloads);
            if poison {
                prop_assert_eq!(err, Some(FrameTooLarge { len: MAX_FRAME_LEN + 1 }));
                // Poisoned: even a now-valid prefix cannot resynchronize.
                fb.push(&frame(b"valid"));
                prop_assert!(fb.next_frame().is_err());
            } else {
                prop_assert_eq!(err, None);
                prop_assert_eq!(fb.buffered(), 0);
            }
        }
    }

    #[test]
    fn frame_buffer_accepts_exactly_the_maximum_frame() {
        // The largest legal frame between a small and an empty one, its
        // length prefix split across 1-byte reads.
        let payloads = vec![b"first".to_vec(), vec![0xAB; MAX_FRAME_LEN], Vec::new()];
        let stream: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
        let sizes = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 65_536, 7, 1 << 20];
        for via_read in [false, true] {
            let (fb, got, err) = reassemble(&stream, &sizes, via_read);
            assert_eq!(err, None);
            assert!(got == payloads, "frames differ (via_read={via_read})");
            assert_eq!(fb.buffered(), 0);
        }
    }

    /// A writer that accepts at most `k` bytes per call, across the
    /// slices of a vectored write, and reports `Interrupted` before
    /// every other call.
    struct Trickle {
        out: Vec<u8>,
        k: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let before = self.out.len();
            for buf in bufs {
                let room = self.k - (self.out.len() - before);
                self.out.extend_from_slice(&buf[..room.min(buf.len())]);
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_survives_partial_writes_untorn() {
        // Short writes that end inside the header, at its end, and
        // inside the payload: the stream must still be exactly the
        // frames, nothing repeated and nothing missing.
        let payloads: [&[u8]; 5] = [b"", b"x", b"abc", b"hello, world", &[0x5A; 300]];
        let expected: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
        for k in 1..=12 {
            let mut sink = Trickle {
                out: Vec::new(),
                k,
                calls: 0,
            };
            for p in payloads {
                write_frame(&mut sink, p).unwrap();
            }
            assert_eq!(sink.out, expected, "{k} bytes per write");
        }
        // A writer that accepts nothing is an error, not a spin.
        let mut full: &mut [u8] = &mut [0u8; 2];
        let err = write_frame(&mut full, b"abc").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    /// Routes `t` into a queue the test reads; the queue disconnects
    /// once the transport has let go of every copy of the route.
    fn routed(t: &dyn Transport) -> Receiver<Bytes> {
        let (tx, rx) = std::sync::mpsc::channel();
        t.route(Arc::new(move |frame| {
            let _ = tx.send(frame);
        }));
        rx
    }

    #[test]
    fn channel_mesh_round_trip_and_close() {
        let (_mesh, transports) = ChannelMesh::new(3);
        // Sent before the route: they wait in their senders' inboxes.
        transports[0].send(ReplicaId(1), b"hello").unwrap();
        transports[2].send(ReplicaId(1), b"world").unwrap();
        let inbox = routed(&transports[1]);
        let mut got = vec![inbox.recv().unwrap(), inbox.recv().unwrap()];
        got.sort();
        assert_eq!(got, [b"hello".to_vec(), b"world".to_vec()]);
        // Closing ends the delivery threads, which release the route.
        transports[1].close();
        assert!(inbox.recv().is_err());
        // Peers now see the slot as down.
        assert!(transports[0].send(ReplicaId(1), b"late").is_err());
    }

    /// Endpoint 0 is routed; endpoint 1 pulls, its first `recv` routing
    /// it after the frame arrived. Closing ends both.
    #[test]
    fn tcp_mesh_round_trip() {
        let (_mesh, transports) = TcpMesh::new(2).unwrap();
        transports[0].send(ReplicaId(1), b"over tcp").unwrap();
        let inbox = routed(&transports[0]);
        assert_eq!(&transports[1].recv().unwrap()[..], b"over tcp");
        transports[1].send(ReplicaId(0), b"and back").unwrap();
        assert_eq!(&inbox.recv().unwrap()[..], b"and back");
        for t in &transports {
            t.close();
        }
        assert!(inbox.recv().is_err(), "close releases the route");
        assert!(transports[1].recv().is_err(), "close ends recv");
    }

    #[test]
    fn tcp_send_backoff_suppresses_redials_and_recovers() {
        let (mesh, transports) = TcpMesh::new(2).unwrap();
        transports[1].close();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // First send after the peer dies performs a real (failing)
        // dial and arms the backoff window.
        assert!(transports[0].send(ReplicaId(1), b"x").is_err());
        // Sends inside the window are rejected without dialing. The
        // burst can straddle one window boundary, so allow a couple of
        // real dial attempts.
        let mut would_block = 0;
        for _ in 0..10 {
            if let Err(e) = transports[0].send(ReplicaId(1), b"x") {
                if e.kind() == io::ErrorKind::WouldBlock {
                    would_block += 1;
                }
            }
        }
        assert!(
            would_block >= 5,
            "backoff never suppressed redials ({would_block}/10 fast-failed)"
        );
        // Once the peer rebinds, the next dial after the window lands.
        let revived = mesh.rejoin(ReplicaId(1)).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while transports[0].send(ReplicaId(1), b"back").is_err() {
            assert!(
                std::time::Instant::now() < deadline,
                "send never recovered after rejoin"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(&routed(&revived).recv().unwrap()[..], b"back");
        transports[0].close();
        revived.close();
    }
}
