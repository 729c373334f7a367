//! The receive path, socket to state machine: frames of one peer reach
//! `Protocol::step` in the order that peer sent them, and a proposal's
//! payload bytes are not copied between the TCP reader and the block
//! tree.

use bytes::Bytes;
use marlin_core::{Config, ProtocolKind};
use marlin_crypto::sha256;
use marlin_runtime::{spawn_node, Clock, NodeConfig, TcpMesh, TcpTransport, Transport};
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::{
    Batch, BatchId, Block, BlockStore, Justify, Message, MsgBody, Phase, Proposal, Qc, ReplicaId,
    Transaction, View,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's block: 400 requests of 150 bytes.
fn block_batch(first_id: u64) -> Batch {
    Batch::new(
        (0..400)
            .map(|i| Transaction::new(first_id + i, 7, Bytes::from(vec![i as u8; 150]), i))
            .collect(),
    )
}

/// Closes `transport` if `done` is not set within `limit`, so a lost
/// frame fails the test at its `recv` instead of hanging it.
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

/// One peer sends a block-sized frame and then 200 small, individually
/// numbered ones over its TCP connection to a running replica. The
/// replica answers each from inside `Protocol::step` (the payload plane
/// acknowledges a push and answers a request for an unknown digest with
/// "not here"), so the order of its answers is the order in which the
/// frames were stepped: it must be the order they were sent in. A
/// decode stage that works on several frames at once lets the small
/// ones overtake the block.
#[test]
fn frames_of_one_peer_reach_the_core_in_send_order() {
    const ROUNDS: u64 = 100;
    const SMALL: u64 = 200;
    let (_mesh, mut ends) = TcpMesh::new(4).expect("bind loopback mesh");
    let peer = Arc::new(ends.remove(1));
    let node = spawn_node(
        NodeConfig::new(
            Config::for_test(4, 1).with_id(ReplicaId(0)),
            ProtocolKind::Marlin,
        ),
        Arc::new(ends.remove(0)),
        Clock::start(),
        Box::new(()),
    );
    let done = Arc::new(AtomicBool::new(false));
    watchdog(
        Arc::clone(&peer),
        Arc::clone(&done),
        Duration::from_secs(120),
    );

    let numbered = |round: u64, i: u64| {
        BatchId::from_digest(sha256(&[round.to_le_bytes(), i.to_le_bytes()].concat()))
    };
    let send = |body: MsgBody| {
        let wire = encode_message(&Message::new(ReplicaId(1), View(1), body), true);
        peer.send(ReplicaId(0), &wire).expect("replica 0 is up");
    };
    for round in 0..ROUNDS {
        let batch = block_batch(round << 32);
        let pushed = batch.digest();
        let mut sent = vec![pushed];
        send(MsgBody::PayloadPush {
            digest: pushed,
            batch,
        });
        for i in 0..SMALL {
            sent.push(numbered(round, i));
            send(MsgBody::PayloadRequest {
                digest: numbered(round, i),
            });
        }
        // The replica's own protocol traffic (it is alone, so view
        // changes) arrives on the same connection; skip it.
        let mut answered = Vec::new();
        while answered.len() < sent.len() {
            let frame = peer.recv().expect("an answer per frame sent");
            match decode_message(&frame)
                .expect("replica 0 sends valid frames")
                .body
            {
                MsgBody::PayloadAck { digest } => answered.push(digest),
                MsgBody::PayloadResponse {
                    digest,
                    batch: None,
                } => answered.push(digest),
                _ => {}
            }
        }
        assert!(answered == sent, "round {round}: answers out of send order");
    }
    done.store(true, Ordering::Release);
    let status = node.stop();
    assert_eq!(status.decode_errors(), 0);
    peer.close();
}

fn inside(frame: &Bytes, payload: &[u8]) -> bool {
    let (frame, payload) = (frame.as_ptr_range(), payload.as_ptr_range());
    frame.start <= payload.start && payload.end <= frame.end
}

/// A proposal crosses a real socket; what `recv` returns is decoded and
/// the blocks go into a block tree. Every payload the tree then holds
/// lies inside the one allocation the TCP reader filled.
#[test]
fn payload_bytes_are_not_copied_between_the_socket_and_the_block_tree() {
    let (_mesh, mut ends) = TcpMesh::new(2).expect("bind loopback mesh");
    let b = Arc::new(ends.remove(1));
    let a = ends.remove(0);
    let done = Arc::new(AtomicBool::new(false));
    watchdog(Arc::clone(&b), Arc::clone(&done), Duration::from_secs(60));

    let g = Block::genesis();
    let justify = Justify::One(Qc::genesis(g.id()));
    let normal = Block::new_normal(
        g.id(),
        g.view(),
        View(3),
        g.height().next(),
        block_batch(0),
        justify,
    );
    let shadow = Block::new_virtual(
        g.view(),
        View(3),
        g.height().plus(2),
        normal.payload().clone(),
        justify,
    );
    // A normal-case PREPARE, and a view-change PRE-PREPARE whose second
    // (virtual) block travels as a shadow of the first.
    let proposals = [
        (Phase::Prepare, vec![normal.clone()]),
        (Phase::PrePrepare, vec![normal, shadow]),
    ];
    for (phase, blocks) in proposals {
        let msg = Message::new(
            ReplicaId(0),
            View(3),
            MsgBody::Proposal(Proposal {
                phase,
                blocks,
                justify: Justify::None,
                vc_proof: Vec::new(),
            }),
        );
        let wire = encode_message(&msg, true);
        a.send(ReplicaId(1), &wire).expect("loopback send");
        let frame = b.recv().expect("the proposal arrives");
        assert_eq!(frame, wire);
        let decoded = decode_message(&frame).expect("own frame decodes");
        assert_eq!(decoded, msg);

        let (MsgBody::Proposal(got), MsgBody::Proposal(sent)) = (decoded.body, &msg.body) else {
            unreachable!("a proposal was sent");
        };
        let mut tree = BlockStore::new();
        for (block, sent) in got.blocks.into_iter().zip(&sent.blocks) {
            assert_eq!(block.id(), sent.id());
            tree.insert(block);
            let held = tree.get(&sent.id()).expect("just inserted");
            assert_eq!(held.payload().len(), 400);
            for tx in held.payload().iter() {
                assert!(Bytes::ptr_eq(&tx.to_transaction().payload, &frame));
                assert!(inside(&frame, tx.payload));
            }
        }
    }
    done.store(true, Ordering::Release);
    a.close();
    b.close();
}
