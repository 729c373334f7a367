//! Fig. 10a–f as a bench target: one throughput-vs-latency point per
//! protocol at a moderate load, timed end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use marlin_bench::{figures, Effort};
use marlin_core::ProtocolKind;
use marlin_simnet::run_experiment;

fn bench_tvl_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_tvl_point");
    g.sample_size(10);
    for protocol in [ProtocolKind::Marlin, ProtocolKind::HotStuff] {
        for f in [1usize, 2] {
            let mut cfg = figures::paper_config(protocol, f, Effort::Quick);
            cfg.rate_tps = 20_000;
            cfg.duration_ns = 1_000_000_000;
            cfg.warmup_ns = 500_000_000;
            g.bench_with_input(BenchmarkId::new(protocol.name(), f), &cfg, |b, cfg| {
                b.iter(|| {
                    let m = run_experiment(cfg);
                    assert!(m.committed_txs > 0, "no progress in {:?}", cfg.protocol);
                    m
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_tvl_point);
criterion_main!(benches);
