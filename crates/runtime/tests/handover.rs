//! Frames that reach a replica's TCP endpoint before `spawn_node` routes
//! it wait in their connection, and are handed over first: none is lost
//! and none is overtaken by a frame that arrives after the route.

use marlin_core::{Config, ProtocolKind};
use marlin_crypto::sha256;
use marlin_runtime::{spawn_node, Clock, NodeConfig, TcpMesh, TcpTransport, Transport};
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::{BatchId, Message, MsgBody, ReplicaId, View};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closes `transport` if `done` is not set within `limit`: that releases
/// its route, so a lost frame fails the test at its `recv` instead of
/// hanging it.
fn watchdog(transport: Arc<TcpTransport>, done: Arc<AtomicBool>, limit: Duration) {
    std::thread::spawn(move || {
        let deadline = Instant::now() + limit;
        while !done.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                transport.close();
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
}

/// A peer sends numbered payload requests to replica 0's endpoint before
/// the replica exists, then more once it runs. The replica answers each
/// from inside `Protocol::step` ("not here"), so the answers come back in
/// the order the requests were stepped: it must be the order they were
/// sent in, every one of them.
#[test]
fn frames_sent_before_the_route_are_stepped_first_and_in_order() {
    const BEFORE: u64 = 300;
    const AFTER: u64 = 300;
    let (_mesh, mut ends) = TcpMesh::new(4).expect("bind loopback mesh");
    let peer = Arc::new(ends.remove(1));
    let (answer, answers) = std::sync::mpsc::channel();
    peer.route(Arc::new(move |frame| {
        let _ = answer.send(frame);
    }));
    let endpoint = ends.remove(0);
    let done = Arc::new(AtomicBool::new(false));
    watchdog(
        Arc::clone(&peer),
        Arc::clone(&done),
        Duration::from_secs(60),
    );

    let numbered = |i: u64| BatchId::from_digest(sha256(&i.to_le_bytes()));
    let send = |i: u64| {
        let body = MsgBody::PayloadRequest {
            digest: numbered(i),
        };
        let wire = encode_message(&Message::new(ReplicaId(1), View(1), body), true);
        peer.send(ReplicaId(0), &wire).expect("replica 0 listens");
    };
    for i in 0..BEFORE {
        send(i);
    }
    // Give them time to arrive, unrouted.
    std::thread::sleep(Duration::from_millis(100));
    let node = spawn_node(
        NodeConfig::new(
            Config::for_test(4, 1).with_id(ReplicaId(0)),
            ProtocolKind::Marlin,
        ),
        Arc::new(endpoint),
        Clock::start(),
        None,
    );
    for i in BEFORE..BEFORE + AFTER {
        send(i);
    }

    // The replica's own protocol traffic (it is alone, so view changes)
    // arrives on the same connection; skip it.
    let mut answered = Vec::new();
    while answered.len() < (BEFORE + AFTER) as usize {
        let frame = answers.recv().expect("an answer per frame sent");
        let body = decode_message(&frame)
            .expect("replica 0 sends valid frames")
            .body;
        if let MsgBody::PayloadResponse {
            digest,
            batch: None,
        } = body
        {
            answered.push(digest);
        }
    }
    let sent: Vec<BatchId> = (0..BEFORE + AFTER).map(numbered).collect();
    assert!(answered == sent, "answers missing or out of send order");
    done.store(true, Ordering::Release);
    assert_eq!(node.stop().decode_errors(), 0);
    peer.close();
}
