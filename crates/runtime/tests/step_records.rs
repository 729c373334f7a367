//! A replica hands each step's records to its sink whole: four replicas
//! on real threads share one `SharedSink`, and every `record_step` it
//! forwards is one step — opened by that step's `Charged`, with no
//! other replica's `Charged` inside it. Only the periodic crypto-cache
//! report still arrives as a lone `record`.

use bytes::Bytes;
use marlin_core::{Config, ProtocolKind};
use marlin_runtime::{spawn_node, ChannelMesh, Clock, NodeConfig, NodeHandle};
use marlin_telemetry::{SharedSink, Telemetry, TelemetrySink};
use marlin_types::{ReplicaId, Transaction, View};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts what reaches the shared sink, by the method that carried it.
#[derive(Default)]
struct Counting {
    steps: u64,
    sent: u64,
    commits: u64,
    /// Steps that did not open with a `Charged` or held a second one.
    misshapen: Vec<String>,
    /// Lone records other than a crypto-cache report.
    lone: Vec<String>,
}

impl TelemetrySink for Counting {
    fn record(&mut self, _: u64, replica: ReplicaId, event: Telemetry<'_>) {
        if !matches!(event, Telemetry::CryptoCache { .. }) {
            self.lone.push(format!("{replica:?} {event:?}"));
        }
    }

    fn record_step(&mut self, _: u64, replica: ReplicaId, events: &[Telemetry<'_>]) {
        self.steps += 1;
        let charged = |e: &&Telemetry<'_>| matches!(e, Telemetry::Charged { .. });
        let opens = events.first().is_some_and(|e| charged(&e));
        if !opens || events.iter().filter(charged).count() != 1 {
            self.misshapen.push(format!("{replica:?} {events:?}"));
        }
        for event in events {
            match event {
                Telemetry::Sent { .. } => self.sent += 1,
                Telemetry::Committed(blocks) => self.commits += blocks.len() as u64,
                _ => {}
            }
        }
    }
}

#[test]
fn every_step_reaches_a_shared_sink_in_one_record_step() {
    const N: usize = 4;
    let (_mesh, ends) = ChannelMesh::new(N);
    let clock = Clock::start();
    let shared = SharedSink::new(Counting::default());
    let nodes: Vec<NodeHandle> = ends
        .into_iter()
        .enumerate()
        .map(|(i, end)| {
            let config = Config::for_test(N, 1).with_id(ReplicaId(i as u32));
            let node = NodeConfig::new(config, ProtocolKind::Marlin);
            spawn_node(node, Arc::new(end), clock, Box::new(shared.clone()))
        })
        .collect();

    let leader = &nodes[ReplicaId::leader_of(View(1), N).index()];
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut next_tx = 0;
    while nodes.iter().any(|n| n.status().committed_blocks() < 20) {
        assert!(Instant::now() < deadline, "stalled short of 20 blocks");
        let txs = (0..50).map(|_| {
            next_tx += 1;
            let payload = Bytes::from_static(&[0; 8]);
            Transaction::new(next_tx, Transaction::LOCAL_CLIENT, payload, 0)
        });
        leader.submit(txs.collect());
        std::thread::sleep(Duration::from_millis(5));
    }
    for node in nodes {
        node.stop();
    }

    let Counting {
        steps,
        sent,
        commits,
        misshapen,
        lone,
    } = shared.into_inner().expect("every node is stopped");
    let excerpt = &lone[..lone.len().min(3)];
    assert!(lone.is_empty(), "records outside a step: {excerpt:?}");
    assert!(misshapen.is_empty(), "steps split or merged: {misshapen:?}");
    assert!(commits >= 20 * N as u64 && sent > 0 && steps > commits);
}
