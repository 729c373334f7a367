//! Microbenchmarks for the wire codec: proposals with realistic batches
//! in both directions, plus the structural length computation, the
//! decode of a 400-request no-op proposal, and one vote (a fixed-size
//! message: the per-field cost with no payload).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use marlin_crypto::KeyStore;
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::{
    Batch, Block, Justify, Message, MsgBody, Phase, Proposal, Qc, ReplicaId, Transaction, View,
    Vote,
};

fn proposal_message(txs: usize, payload: usize) -> Message {
    let g = Block::genesis();
    let qc = Qc::genesis(g.id());
    let batch = Batch::new(
        (0..txs as u64)
            .map(|i| Transaction::new(i, 0, Bytes::from(vec![0u8; payload]), i))
            .collect(),
    );
    let block = Block::new_normal(
        g.id(),
        g.view(),
        View(1),
        g.height().next(),
        batch,
        Justify::One(qc),
    );
    Message::new(
        ReplicaId(1),
        View(1),
        MsgBody::Proposal(Proposal {
            phase: Phase::Prepare,
            blocks: vec![block],
            justify: Justify::One(qc),
            vc_proof: Vec::new(),
        }),
    )
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    for txs in [10usize, 100, 400] {
        let msg = proposal_message(txs, 150);
        let len = msg.wire_len(false) as u64;
        g.throughput(Throughput::Bytes(len));
        g.bench_with_input(BenchmarkId::new("encode", txs), &msg, |b, msg| {
            b.iter(|| encode_message(msg, false));
        });
        let encoded = encode_message(&msg, false);
        g.bench_with_input(BenchmarkId::new("decode", txs), &encoded, |b, enc| {
            b.iter(|| decode_message(enc).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("wire_len", txs), &msg, |b, msg| {
            b.iter(|| msg.wire_len(false));
        });
    }
    // No-op requests: the decoder's walk over 400 headers, which the
    // block-id hash of 150-byte payloads otherwise hides.
    let noop = encode_message(&proposal_message(400, 0), false);
    g.throughput(Throughput::Bytes(noop.len() as u64));
    g.bench_with_input(BenchmarkId::new("decode", "400-noop"), &noop, |b, enc| {
        b.iter(|| decode_message(enc).unwrap());
    });
    let block = Block::genesis();
    let seed = block.vote_seed(Phase::Prepare, View(1));
    let vote = Message::new(
        ReplicaId(2),
        View(1),
        MsgBody::Vote(Vote {
            seed,
            parsig: KeyStore::generate(4, 1, 7)
                .signer(2)
                .sign_partial(&seed.signing_bytes()),
            locked_qc: None,
        }),
    );
    g.throughput(Throughput::Elements(1));
    g.bench_with_input(BenchmarkId::new("encode", "vote"), &vote, |b, msg| {
        b.iter(|| encode_message(msg, false));
    });
    let encoded = encode_message(&vote, false);
    g.bench_with_input(BenchmarkId::new("decode", "vote"), &encoded, |b, enc| {
        b.iter(|| decode_message(enc).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
