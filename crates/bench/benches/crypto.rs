//! Microbenchmarks for the cryptographic substrate: hashing, signing,
//! combining, and verifying in both QC formats.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use marlin_crypto::{sha256, KeyStore, QcFormat};
use marlin_types::{Batch, Block, Justify, Qc, Transaction, View};

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for len in [64usize, 1024, 65536] {
        let data = vec![0xABu8; len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &data, |b, data| {
            b.iter(|| sha256(data));
        });
    }
    g.finish();
}

/// Block identity at the paper's headline point: one id over a 400-tx
/// batch of 150-byte requests, which every replica computes once per
/// block (the leader at construction, followers inside decode). Read it
/// against `sha256/65536`: the id hashes 66 KB, so it should cost about
/// what one hash of that many contiguous bytes does.
fn bench_block_id(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_id");
    let batch = Batch::new(
        (0..400u64)
            .map(|i| Transaction::new(i, 7, Bytes::from(vec![i as u8; 150]), 0))
            .collect(),
    );
    let genesis = Block::genesis();
    let justify = Justify::One(Qc::genesis(genesis.id()));
    g.throughput(Throughput::Bytes(400 * 150));
    g.bench_with_input(
        BenchmarkId::from_parameter("400x150B"),
        &batch,
        |b, batch| {
            b.iter(|| {
                Block::new_normal(
                    genesis.id(),
                    genesis.view(),
                    View(1),
                    genesis.height().next(),
                    batch.clone(),
                    justify,
                )
            });
        },
    );
    g.finish();
}

fn bench_sign_verify(c: &mut Criterion) {
    let keys = KeyStore::generate(4, 1, 1);
    let signer = keys.signer(0);
    let msg = b"view=42 phase=PREPARE block=...";
    c.bench_function("sign_partial", |b| b.iter(|| signer.sign_partial(msg)));
    let partial = signer.sign_partial(msg);
    c.bench_function("verify_partial", |b| {
        b.iter(|| keys.verify_partial(msg, &partial))
    });
    let sig = signer.sign(msg);
    c.bench_function("verify_conventional", |b| {
        b.iter(|| keys.verify(0, msg, &sig))
    });
}

fn bench_batch_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_verify");
    for f in [1usize, 5, 10] {
        let n = 3 * f + 1;
        let keys = KeyStore::generate(n, f, 11);
        let msg = b"qc seed";
        let partials: Vec<_> = (0..n - f)
            .map(|i| keys.signer(i).sign_partial(msg))
            .collect();
        g.throughput(Throughput::Elements((n - f) as u64));
        // The amortized one-pass aggregate check over a full quorum …
        g.bench_with_input(BenchmarkId::new("batch", n), &partials, |b, partials| {
            b.iter(|| keys.verify_partial_batch(msg, partials).unwrap());
        });
        // … against the per-share loop it replaces.
        g.bench_with_input(BenchmarkId::new("serial", n), &partials, |b, partials| {
            b.iter(|| partials.iter().all(|p| keys.verify_partial(msg, p)));
        });
        // Worst case: one bad share forces the identifying fallback scan.
        let mut corrupted = partials.clone();
        corrupted[1] = keys.signer(1).sign_partial(b"wrong message");
        g.bench_with_input(
            BenchmarkId::new("batch_fallback", n),
            &corrupted,
            |b, corrupted| {
                b.iter(|| keys.verify_partial_batch(msg, corrupted).unwrap_err());
            },
        );
    }
    g.finish();
}

fn bench_combine_verify_qc(c: &mut Criterion) {
    let mut g = c.benchmark_group("qc");
    for f in [1usize, 5, 10] {
        let n = 3 * f + 1;
        let keys = KeyStore::generate(n, f, 7);
        let msg = b"qc seed";
        let partials: Vec<_> = (0..n - f)
            .map(|i| keys.signer(i).sign_partial(msg))
            .collect();
        for format in [QcFormat::SigGroup, QcFormat::Threshold] {
            g.bench_with_input(
                BenchmarkId::new(format!("combine/{format:?}"), n),
                &partials,
                |b, partials| {
                    b.iter(|| keys.combine(msg, partials, format).unwrap());
                },
            );
            let combined = keys.combine(msg, &partials, format).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("verify/{format:?}"), n),
                &combined,
                |b, combined| {
                    b.iter(|| keys.verify_combined(msg, combined));
                },
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_block_id,
    bench_sign_verify,
    bench_batch_verify,
    bench_combine_verify_qc
);
criterion_main!(benches);
