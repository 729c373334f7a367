//! Fig. 10g/10h as a bench target: a reduced peak-throughput sweep,
//! printing the Marlin-vs-HotStuff peaks it finds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use marlin_bench::{figures, Effort};
use marlin_core::ProtocolKind;

fn bench_peak(c: &mut Criterion) {
    // Report the measured peaks once.
    {
        let f = 1usize;
        let m = figures::peak_throughput(ProtocolKind::Marlin, f, Effort::Quick);
        let h = figures::peak_throughput(ProtocolKind::HotStuff, f, Effort::Quick);
        println!(
            "\nFig10g (quick) f={f}: Marlin {:.2} ktx/s vs HotStuff {:.2} ktx/s ({:+.1}%)",
            m.ktps(),
            h.ktps(),
            (m.throughput_tps / h.throughput_tps - 1.0) * 100.0
        );
        assert!(
            m.throughput_tps > h.throughput_tps,
            "Marlin should outperform HotStuff"
        );
    }

    // Benchmark a single near-peak experiment per protocol (the full
    // sweep above is run once; timing it repeatedly adds nothing).
    let mut g = c.benchmark_group("fig10_peak_point");
    g.sample_size(10);
    for protocol in [ProtocolKind::Marlin, ProtocolKind::HotStuff] {
        let mut cfg = figures::paper_config(protocol, 1, Effort::Quick);
        cfg.rate_tps = 32_000;
        cfg.duration_ns = 1_000_000_000;
        cfg.warmup_ns = 500_000_000;
        g.bench_with_input(
            BenchmarkId::from_parameter(protocol.name()),
            &cfg,
            |b, cfg| {
                b.iter(|| marlin_simnet::run_experiment(cfg));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_peak);
criterion_main!(benches);
