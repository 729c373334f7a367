//! Protocol state-machine throughput on the simulator's zero-latency
//! profile: the pure-CPU cost of consensus, with network and crypto
//! delays stripped away. Compares all protocols on identical workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use marlin_core::{Config, ProtocolKind};
use marlin_simnet::{SimConfig, SimNet};
use marlin_types::{ReplicaId, View};

/// A started four-replica cluster of `kind`, its start-up traffic
/// drained.
fn instant(kind: ProtocolKind) -> SimNet {
    let mut sim = SimNet::new(kind, Config::for_test(4, 1), SimConfig::instant());
    sim.run_until_idle();
    sim
}

fn bench_commit_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("commit_100_txs");
    g.throughput(Throughput::Elements(100));
    for kind in [
        ProtocolKind::Marlin,
        ProtocolKind::HotStuff,
        ProtocolKind::Jolteon,
        ProtocolKind::ChainedMarlin,
        ProtocolKind::ChainedHotStuff,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter_batched(
                    || instant(kind),
                    |mut sim| {
                        sim.schedule_client_batch(ReplicaId(1), sim.now_ns(), 100, 150);
                        sim.run_until_idle();
                        sim
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    g.finish();
}

fn bench_view_change(c: &mut Criterion) {
    let mut g = c.benchmark_group("view_change");
    for kind in [
        ProtocolKind::Marlin,
        ProtocolKind::HotStuff,
        ProtocolKind::Jolteon,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter_batched(
                    || {
                        let mut sim = instant(kind);
                        sim.schedule_client_batch(ReplicaId(1), sim.now_ns(), 10, 0);
                        sim.run_until_idle();
                        sim.crash(ReplicaId(1));
                        sim
                    },
                    |mut sim| {
                        let live = [0, 2, 3].map(ReplicaId);
                        while live
                            .iter()
                            .any(|&id| sim.replica(id).current_view() < View(2))
                        {
                            assert!(sim.fire_next_timer());
                        }
                        sim.run_until_idle();
                        sim
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_commit_throughput, bench_view_change);
criterion_main!(benches);
