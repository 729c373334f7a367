//! Per-recipient broadcast fan-out cost.
//!
//! A leader's broadcast clones its proposal once per recipient and the
//! simulator charges each copy's wire length. With `Batch` being one
//! shared buffer of its wire bytes, whose length is `wire_len`, both
//! costs are flat in batch size — the `clone_per_recipient` and `wire_len` series
//! below should show the same time at 1, 100, and 1000 transactions.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use marlin_types::{
    Batch, Block, Justify, Message, MsgBody, Phase, Proposal, Qc, ReplicaId, Transaction, View,
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

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("broadcast_fanout");
    for txs in [1usize, 100, 1000] {
        let msg = proposal_message(txs, 150);
        g.throughput(Throughput::Elements(1));
        // What every recipient costs the leader: one copy of the message.
        g.bench_with_input(
            BenchmarkId::new("clone_per_recipient", txs),
            &msg,
            |b, msg| {
                b.iter(|| msg.clone());
            },
        );
        // What every broadcast costs the simulator: one length lookup.
        g.bench_with_input(BenchmarkId::new("wire_len", txs), &msg, |b, msg| {
            b.iter(|| msg.wire_len(true));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
