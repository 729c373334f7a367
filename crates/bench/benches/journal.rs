//! Microbenchmark for the write-before-vote barrier: one appending
//! safety-journal record plus its sync (`log_view` of a rising view,
//! compactions every 64 records included), on an otherwise empty
//! in-memory disk, on one that also holds a snapshot anchor of a
//! 400 × 150 B block, as a replica's disk does once block sync has
//! saved one, and on real files in a temporary directory (the
//! runtime's `JournalMode::Files`). A sync whose cost grows with the
//! bytes on the disk shows here as a gap between the first two rows;
//! the third is what one record costs on the filesystem.

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, Criterion};
use marlin_core::SafetyJournal;
use marlin_storage::{SharedDisk, SnapshotStore};
use marlin_types::codec;
use marlin_types::{Batch, Block, Justify, Qc, Transaction, View};

/// The snapshot payload block sync saves: a full block and its
/// commit QC.
fn anchor(txs: u64, payload: usize) -> BytesMut {
    let g = Block::genesis();
    let qc = Qc::genesis(g.id());
    let batch = Batch::new(
        (0..txs)
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
    codec::encode(&(block, qc))
}

fn bench_journal(c: &mut Criterion) {
    let anchor = anchor(400, 150);
    let mut g = c.benchmark_group("journal");
    let dir = std::env::temp_dir().join(format!("marlin-journal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = SharedDisk::open_dir(&dir).expect("bench dir opens");
    for (case, disk, with_anchor) in [
        ("empty", SharedDisk::new(), false),
        ("anchor", SharedDisk::new(), true),
        ("files", files, false),
    ] {
        if with_anchor {
            let mut store = SnapshotStore::open(disk.clone()).expect("snapshot store opens");
            store.save(&anchor).expect("anchor saves");
        }
        let mut journal = SafetyJournal::open(disk).expect("journal opens");
        let mut view = 0;
        g.bench_function(format!("log_view_sync/{case}"), |b| {
            b.iter(|| {
                view += 1;
                journal.log_view(View(view)).expect("journal appends");
            })
        });
    }
    g.finish();
    std::fs::remove_dir_all(&dir).expect("bench dir removes");
    println!("anchor payload: {} B", anchor.len());
}

criterion_group!(benches, bench_journal);
criterion_main!(benches);
