//! `NodeHandle::stop` joins the replica's timer thread, so it must not
//! hold the driver lock meanwhile: a timer thread that is draining the
//! mailbox needs that lock to find the driver gone and return.

use bytes::Bytes;
use marlin_core::{Config, ProtocolKind};
use marlin_runtime::{spawn_node, ChannelMesh, Clock, NodeConfig};
use marlin_telemetry::{Telemetry, TelemetrySink};
use marlin_types::{ReplicaId, Transaction};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Holds the first step the timer thread makes until the test opens the
/// gate; later steps pass once the test stops listening.
struct Gate {
    entered: mpsc::Sender<()>,
    open: mpsc::Receiver<()>,
}

impl TelemetrySink for Gate {
    fn record(&mut self, _: u64, _: ReplicaId, _: Telemetry<'_>) {
        let on_timer = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("timer-"));
        if on_timer && self.entered.send(()).is_ok() {
            let _ = self.open.recv();
        }
    }
}

/// The timer thread's view-timeout step is held while submits queue up
/// behind it; it then drains them while `stop` runs. A `stop` that keeps
/// the driver lock through the join hangs in about two rounds of five.
#[test]
fn stop_returns_while_the_timer_thread_drains() {
    for round in 0..20 {
        let (_mesh, mut ends) = ChannelMesh::new(4);
        let mut config = Config::for_test(4, 1);
        config.base_timeout_ns = 1_000_000;
        let (entered, entered_rx) = mpsc::channel();
        let (open_tx, open) = mpsc::channel();
        let node = spawn_node(
            NodeConfig::new(config, ProtocolKind::Marlin),
            Arc::new(ends.remove(0)),
            Clock::start(),
            Box::new(Gate { entered, open }),
        );
        let fired = entered_rx.recv_timeout(Duration::from_secs(5));
        fired.expect("the view timer fires");
        drop(entered_rx);
        for i in 0..2000 {
            node.submit(vec![Transaction::new(i, 7, Bytes::new(), 0)]);
        }
        open_tx.send(()).expect("the gate is held");
        let (done, stopped) = mpsc::channel();
        std::thread::spawn(move || done.send(node.stop()));
        let wait = stopped.recv_timeout(Duration::from_secs(10));
        assert!(wait.is_ok(), "round {round}: stop hung");
    }
}
