//! Threaded replica runtime for the Marlin protocol family.
//!
//! `marlin-simnet` answers "is it correct?" with deterministic
//! single-threaded simulation; this crate answers "how fast is it,
//! really?" by running the *same* sans-io state machines from
//! `marlin-core` — byte-for-byte, no protocol logic duplicated — on
//! real threads, real clocks, and (optionally) real sockets and files.
//!
//! Beside the transport's own threads, each replica is two threads
//! and one bounded channel between them:
//!
//! - **ingress** pulls length-framed messages off the transport and
//!   deserializes them, in arrival order, into slices of the frame,
//! - **consensus** owns the protocol state machine and steps it, writes
//!   its safety journal itself (program order is write-before-vote) and
//!   keeps its own view/heartbeat deadlines (latest-wins, like simnet;
//!   a due timer fires before the next queued event);
//! - with observability on, a **sampler** copies queue depths into
//!   their gauges.
//!
//! [`transport::Transport`] abstracts the wire: an in-process channel
//! mesh for soak tests and a localhost-TCP mesh whose streaming frame
//! reader tolerates arbitrarily split reads. [`cluster::RuntimeCluster`]
//! wires n replicas together, feeds load, kills and recovers nodes, and
//! checks committed-prefix agreement. Telemetry sinks plug in unchanged,
//! so the commit-latency decomposition works on wall-clock runs exactly
//! as it does on simulated ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod cluster;
pub mod journal;
pub mod node;
pub mod transport;

pub use channel::{metered_sync_channel, LaneMeter, MeteredReceiver, MeteredSender};
pub use cluster::{
    ClusterConfig, ClusterReport, JournalMode, ObservabilityConfig, RuntimeCluster, TransportKind,
};
pub use journal::JournalWriter;
pub use node::{
    spawn_node, Bootstrap, Clock, CommitObserverFn, NodeConfig, NodeHandle, NodeObservability,
    NodeStatus, DEFAULT_QUEUE_DEPTH,
};
pub use transport::{
    frame, ChannelMesh, ChannelTransport, FrameBuffer, TcpMesh, TcpTransport, Transport,
    TransportClosed, TransportEventFn, MAX_FRAME_LEN,
};
