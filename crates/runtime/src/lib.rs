//! Threaded replica runtime for the Marlin protocol family.
//!
//! `marlin-simnet` answers "is it correct?" with deterministic
//! single-threaded simulation; this crate answers "how fast is it,
//! really?" by running the *same* sans-io state machines from
//! `marlin-core` — byte-for-byte, no protocol logic duplicated — on
//! real threads, real clocks, and (optionally) real sockets and files.
//!
//! Each replica is a bounded mailbox with no thread of its own: the
//! thread that delivers to an idle mailbox — a transport reader, a
//! caller of `submit`, or the replica's **timer** thread — decodes and
//! steps, writes the safety journal inside `step` (program order is
//! write-before-vote) and fires due view/heartbeat deadlines
//! (latest-wins, like simnet) before the next event. With observability
//! on, a **sampler** copies lane depths into their gauges.
//!
//! [`transport::Transport`] abstracts the wire: an in-process channel
//! mesh for soak tests and a localhost-TCP mesh whose streaming frame
//! reader tolerates arbitrarily split reads. [`cluster::RuntimeCluster`]
//! wires n replicas together, feeds load, kills and recovers nodes, and
//! judges the run with the simulator's safety oracle. Telemetry sinks
//! plug in unchanged, so the commit-latency decomposition works on
//! wall-clock runs exactly as it does on simulated ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod cluster;
pub mod journal;
pub mod node;
pub mod transport;

pub use channel::{metered_sync_channel, LaneMeter, Mailbox, MeteredReceiver, MeteredSender};
pub use cluster::{
    ClusterConfig, ClusterReport, CommitObserverFn, JournalMode, ObservabilityConfig,
    RuntimeCluster, TransportKind,
};
pub use journal::JournalWriter;
pub use node::{
    spawn_node, Bootstrap, Clock, NodeConfig, NodeHandle, NodeObservability, NodeStatus,
    DEFAULT_QUEUE_DEPTH,
};
pub use transport::{
    frame, ChannelMesh, ChannelTransport, FrameBuffer, Route, TcpMesh, TcpTransport, Transport,
    TransportEventFn, MAX_FRAME_LEN,
};
