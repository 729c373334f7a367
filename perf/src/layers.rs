//! Per-layer timings: each public function a layer offers on the
//! commit path, timed alone from outside the crate, on inputs taken
//! from the workload (frames sampled off the in-process run, the
//! workload's `n`, its transaction size). Layer names are crate names.
//!
//! Every figure is the median over rounds of a round's mean, so one
//! pre-empted round does not move it.

use crate::stats::median;
use crate::tcp::ClusterShape;
use crate::{metric as m, Metric};
use bytes::Bytes;
use marlin_core::SafetyJournal;
use marlin_crypto::{sha256, KeyStore, PartialSig, QcFormat};
use marlin_mempool::{Mempool, MempoolConfig};
use marlin_runtime::{
    frame, metered_sync_channel, FrameBuffer, JournalWriter, LaneMeter, TcpMesh, Transport,
};
use marlin_storage::{Disk, FileDisk, SharedDisk, SnapshotStore, Wal};
use marlin_telemetry::{Note, Registry, TelemetrySink, Trace};
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::{
    Batch, Block, BlockStore, Height, Justify, Message, MsgBody, MsgClass, Phase, ReplicaId,
    Transaction, View,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `round` (which returns one or more measured values) until
/// `budget` is spent, at least five times, and returns the median of
/// each value over the rounds.
fn rounds<const K: usize>(budget: Duration, mut round: impl FnMut() -> [f64; K]) -> [f64; K] {
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
    let end = Instant::now() + budget;
    while samples[0].len() < 5 || Instant::now() < end {
        for (slot, value) in samples.iter_mut().zip(round()) {
            slot.push(value);
        }
    }
    std::array::from_fn(|k| median(&samples[k]).expect("at least five rounds"))
}

/// Mean ns per call of `f`, median over rounds. The round length is
/// grown until one round takes at least 200 µs, so the clock reads are
/// a small share of it.
fn per_call_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut calls = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        if start.elapsed() >= Duration::from_micros(200) || calls >= 1 << 22 {
            break;
        }
        calls *= 2;
    }
    rounds(budget, || {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        [start.elapsed().as_nanos() as f64 / calls as f64]
    })[0]
}

fn types(
    out: &mut Vec<Metric>,
    budget: Duration,
    samples: &BTreeMap<MsgClass, Bytes>,
) -> Result<(), String> {
    let proposal_frame = samples
        .get(&MsgClass::Proposal(Phase::Prepare))
        .ok_or("no prepare proposal was sampled")?;
    let vote_frame = samples
        .get(&MsgClass::Vote(Phase::Prepare))
        .ok_or("no prepare vote was sampled")?;
    let proposal: Message =
        decode_message(proposal_frame).map_err(|e| format!("sampled proposal: {e:?}"))?;
    let vote: Message = decode_message(vote_frame).map_err(|e| format!("sampled vote: {e:?}"))?;

    out.push(m(
        "types.codec.encode_proposal_us",
        "us",
        per_call_ns(budget, || encode_message(&proposal, true)) / 1e3,
    ));
    out.push(m(
        "types.codec.decode_proposal_us",
        "us",
        per_call_ns(budget, || decode_message(proposal_frame)) / 1e3,
    ));
    out.push(m(
        "types.codec.encode_vote_ns",
        "ns",
        per_call_ns(budget, || encode_message(&vote, true)),
    ));
    out.push(m(
        "types.codec.decode_vote_ns",
        "ns",
        per_call_ns(budget, || decode_message(vote_frame)),
    ));

    // Block hashing: constructing a block computes its id over the
    // whole payload.
    let MsgBody::Proposal(p) = &proposal.body else {
        return Err("sampled proposal frame is not a proposal".into());
    };
    let block = p
        .blocks
        .first()
        .ok_or("sampled proposal carries no block")?;
    let parent = block.parent_id().ok_or("sampled block has no parent id")?;
    out.push(m(
        "types.block.hash_us_per_block",
        "us",
        per_call_ns(budget, || {
            Block::new_normal(
                parent,
                block.pview(),
                block.view(),
                block.height(),
                block.payload().clone(),
                *block.justify(),
            )
        }) / 1e3,
    ));

    // Block tree: insert + commit a chain block by block, and prune it
    // behind the tip as the sync horizon does.
    const CHAIN: u64 = 512;
    let chain: Vec<Block> = {
        let mut blocks = Vec::with_capacity(CHAIN as usize);
        let mut parent = Block::genesis();
        for h in 1..=CHAIN {
            let b = Block::new_normal(
                parent.id(),
                parent.view(),
                View(1),
                Height(h),
                Batch::empty(),
                Justify::None,
            );
            blocks.push(b.clone());
            parent = b;
        }
        blocks
    };
    let [insert_commit, prune] = rounds(budget, || {
        let mut store = BlockStore::new();
        let blocks = chain.clone();
        let start = Instant::now();
        for b in blocks {
            let id = b.id();
            store.insert(b);
            black_box(store.commit(&id).expect("chain commits"));
        }
        let filled = start.elapsed();
        let start = Instant::now();
        for h in (64..=CHAIN).step_by(64) {
            store.prune_committed_before(Height(h));
        }
        let pruned = start.elapsed();
        black_box(store.len());
        [
            filled.as_nanos() as f64 / CHAIN as f64,
            pruned.as_nanos() as f64 / CHAIN as f64,
        ]
    });
    out.push(m(
        "types.tree.insert_commit_ns_per_block",
        "ns",
        insert_commit,
    ));
    out.push(m("types.tree.prune_ns_per_block", "ns", prune));
    Ok(())
}

fn crypto(out: &mut Vec<Metric>, budget: Duration, shape: &ClusterShape) {
    let keys = KeyStore::generate(shape.n, shape.f, 0xBEEF);
    let quorum = keys.quorum();
    let msg = sha256(b"marlin-perf vote seed").into_bytes();
    let signer = keys.signer(0);
    let partials: Vec<PartialSig> = (0..quorum)
        .map(|i| keys.signer(i).sign_partial(&msg))
        .collect();
    let combined = keys
        .combine(&msg, &partials, QcFormat::Threshold)
        .expect("a quorum of valid shares combines");
    out.push(m(
        "crypto.sign_partial_ns",
        "ns",
        per_call_ns(budget, || signer.sign_partial(&msg)),
    ));
    out.push(m(
        "crypto.verify_partial_ns",
        "ns",
        per_call_ns(budget, || keys.verify_partial(&msg, &partials[0])),
    ));
    out.push(m(
        "crypto.verify_batch_ns_per_sig",
        "ns",
        per_call_ns(budget, || keys.verify_partial_batch(&msg, &partials)) / quorum as f64,
    ));
    out.push(m(
        "crypto.combine_ns",
        "ns",
        per_call_ns(budget, || {
            keys.combine(&msg, &partials, QcFormat::Threshold)
        }),
    ));
    out.push(m(
        "crypto.verify_combined_ns",
        "ns",
        per_call_ns(budget, || keys.verify_combined(&msg, &combined)),
    ));
    let buf = vec![0xA5u8; 64 << 10];
    let ns = per_call_ns(budget, || sha256(&buf));
    out.push(m(
        "crypto.sha256_mb_per_s",
        "MB/s",
        buf.len() as f64 / ns * 1e3,
    ));
}

fn mempool(out: &mut Vec<Metric>, budget: Duration, shape: &ClusterShape) {
    let payload = Bytes::from(vec![0u8; shape.payload]);
    let batch = shape.batch_size as u64;
    let run = |capacity: usize| {
        let mut pool = Mempool::new(MempoolConfig {
            capacity,
            priority_fee_threshold: 0,
        });
        let mut next_id = 0u64;
        rounds(budget, || {
            let txs: Vec<Transaction> = (next_id..next_id + batch)
                .map(|id| Transaction::new(id, Transaction::LOCAL_CLIENT, payload.clone(), 0))
                .collect();
            next_id += batch;
            let start = Instant::now();
            for tx in txs {
                black_box(pool.admit(tx));
            }
            let admitted = start.elapsed();
            let start = Instant::now();
            let taken = pool.take(batch as usize);
            let took = start.elapsed();
            assert_eq!(
                taken.len() as u64,
                batch,
                "pool refused a transaction under capacity"
            );
            [
                admitted.as_nanos() as f64 / batch as f64,
                took.as_nanos() as f64 / batch as f64,
            ]
        })
    };
    let [admit, take] = run(65_536);
    let [admit_unbounded, _] = run(0);
    out.push(m("mempool.admit_ns_per_tx", "ns", admit));
    out.push(m("mempool.take_ns_per_tx", "ns", take));
    out.push(m(
        "mempool.admit_unbounded_ns_per_tx",
        "ns",
        admit_unbounded,
    ));
}

/// A chain of block metas with rising heights: each one moves the
/// journal's monotone fold, so none is skipped as already durable.
fn rising_metas(count: u64) -> Vec<marlin_types::BlockMeta> {
    let mut parent = Block::genesis();
    (1..=count)
        .map(|h| {
            let b = Block::new_normal(
                parent.id(),
                parent.view(),
                View(1),
                Height(h),
                Batch::empty(),
                Justify::None,
            );
            parent = b.clone();
            b.meta()
        })
        .collect()
}

fn core_and_storage(
    out: &mut Vec<Metric>,
    budget: Duration,
    scratch: &Path,
) -> std::io::Result<()> {
    const RECORDS: u64 = 256;
    let metas = rising_metas(RECORDS);

    // The write-ahead record itself, on an in-memory disk: encode, CRC
    // frame, append, sync, and the periodic compaction.
    let [record] = rounds(budget, || {
        let mut journal = SafetyJournal::open(SharedDisk::new()).expect("memory journal opens");
        let start = Instant::now();
        for meta in &metas {
            journal
                .log_last_voted(meta)
                .expect("memory journal appends");
        }
        [start.elapsed().as_nanos() as f64 / RECORDS as f64]
    });
    out.push(m("core.journal.record_ns", "ns", record));

    // The same append against real files, layer by layer.
    let record_bytes = vec![0x5Au8; 96];
    let dir = scratch.join("layers-disk");
    let mut disk = FileDisk::open(&dir)?;
    let append = per_call_ns(budget, || {
        disk.append("bench.log", &record_bytes).expect("append")
    });
    out.push(m("storage.filedisk.append_us", "us", append / 1e3));
    let sync = per_call_ns(budget, || disk.sync().expect("sync"));
    out.push(m("storage.filedisk.sync_us", "us", sync / 1e3));
    disk.remove("bench.log")?;
    let wal = per_call_ns(budget, || {
        Wal::append_named(&mut disk, "bench.wal", &record_bytes).expect("wal append")
    });
    out.push(m("storage.wal.append_us", "us", wal / 1e3));
    disk.remove("bench.wal")?;
    let mut snapshots = SnapshotStore::open(SharedDisk::open_dir(dir.join("snap"))?)?;
    let anchor = vec![0x3Cu8; 512];
    let save = per_call_ns(budget, || snapshots.save(&anchor).expect("snapshot save"));
    out.push(m("storage.snapshot.save_us", "us", save / 1e3));

    // The journal-writer thread: one append + sync as the consensus
    // thread sees it, a channel round trip to the thread that owns the
    // file.
    let (mut proxy, writer) =
        JournalWriter::spawn(Box::new(FileDisk::open(dir.join("writer"))?), "bench");
    let ack = per_call_ns(budget, || {
        proxy
            .append("bench.log", &record_bytes)
            .expect("proxied append");
        proxy.sync().expect("proxied sync");
    });
    out.push(m("runtime.journal_writer.ack_us", "us", ack / 1e3));
    drop(proxy);
    writer.join();
    std::fs::remove_dir_all(&dir)
}

fn runtime(out: &mut Vec<Metric>, budget: Duration, block_frame_len: usize) -> std::io::Result<()> {
    // Loopback TCP round trip through `TcpTransport`: dial, frame,
    // write, the reader thread's reassembly, the inbox channel.
    let (_mesh, mut ends) = TcpMesh::new(2)?;
    let b = Arc::new(ends.pop().expect("two endpoints"));
    let a = ends.pop().expect("two endpoints");
    let echo = {
        let b = Arc::clone(&b);
        std::thread::Builder::new()
            .name("perf-echo".into())
            .spawn(move || {
                while let Ok(frame) = b.recv() {
                    if b.send(ReplicaId(0), &frame).is_err() {
                        break;
                    }
                }
            })?
    };
    let rtt = |len: usize| {
        let payload = vec![0x42u8; len];
        per_call_ns(budget, || {
            a.send(ReplicaId(1), &payload).expect("loopback send");
            a.recv().expect("loopback echo")
        })
    };
    let small = rtt(100);
    let block = rtt(block_frame_len);
    // Closing `b` is what unblocks the echo thread's `recv`.
    b.close();
    a.close();
    echo.join()
        .map_err(|_| std::io::Error::other("echo thread panicked"))?;
    out.push(m("runtime.transport.tcp_rtt_small_us", "us", small / 1e3));
    out.push(m("runtime.transport.tcp_rtt_block_us", "us", block / 1e3));

    // Frame reassembly alone: a stream of block-sized frames pushed in
    // 16 KiB reads, as the reader thread does.
    let stream: Vec<u8> = (0..8)
        .flat_map(|_| frame(&vec![0x17u8; block_frame_len]))
        .collect();
    let ns = per_call_ns(budget, || {
        let mut fb = FrameBuffer::new();
        let mut frames = 0;
        for chunk in stream.chunks(16 << 10) {
            fb.push(chunk);
            while let Some(f) = fb.next_frame().expect("well-formed stream") {
                black_box(f);
                frames += 1;
            }
        }
        assert_eq!(frames, 8);
    });
    out.push(m(
        "runtime.transport.frame_reassemble_mb_per_s",
        "MB/s",
        stream.len() as f64 / ns * 1e3,
    ));

    // One hop over the bounded, metered channel every thread boundary
    // in a node uses: there and back between two threads.
    let (to_tx, to_rx) = metered_sync_channel::<u64>(64, LaneMeter::detached());
    let (back_tx, back_rx) = metered_sync_channel::<u64>(64, LaneMeter::detached());
    let bounce = std::thread::Builder::new()
        .name("perf-bounce".into())
        .spawn(move || {
            while let Ok(v) = to_rx.recv() {
                if back_tx.send(v).is_err() {
                    break;
                }
            }
        })?;
    let round_trip = per_call_ns(budget, || {
        to_tx.send(1).expect("bounce thread alive");
        back_rx.recv().expect("bounce thread alive")
    });
    drop(to_tx);
    bounce
        .join()
        .map_err(|_| std::io::Error::other("bounce thread panicked"))?;
    out.push(m(
        "runtime.channel.handoff_us",
        "us",
        round_trip / 2.0 / 1e3,
    ));
    Ok(())
}

fn telemetry(out: &mut Vec<Metric>, budget: Duration) {
    let note = Note::Committed {
        height: Height(7),
        txs: 400,
    };
    let mut trace = Trace::new();
    let ns = per_call_ns(budget, || {
        // Bound the sink's memory; the push is what is timed.
        if trace.len() >= 1 << 16 {
            trace.events.clear();
        }
        trace.note(1, ReplicaId(0), &note);
    });
    out.push(m("telemetry.trace_note_ns", "ns", ns));
    let counter = Registry::new().counter("perf_bench_total");
    out.push(m(
        "telemetry.registry_counter_inc_ns",
        "ns",
        per_call_ns(budget, || counter.inc()),
    ));
}

/// Times every layer function for `shape`. `samples` are frames taken
/// from an in-process run of the same shape; `scratch` is a directory
/// this may create files under (and removes them from).
pub fn measure(
    shape: &ClusterShape,
    samples: &BTreeMap<MsgClass, Bytes>,
    scratch: &Path,
    budget: Duration,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    types(&mut out, budget, samples)?;
    crypto(&mut out, budget, shape);
    mempool(&mut out, budget, shape);
    core_and_storage(&mut out, budget, scratch).map_err(|e| format!("storage timings: {e}"))?;
    let block_frame_len = samples
        .get(&MsgClass::Proposal(Phase::Prepare))
        .map_or(60_000, Bytes::len);
    runtime(&mut out, budget, block_frame_len).map_err(|e| format!("transport timings: {e}"))?;
    telemetry(&mut out, budget);
    Ok(out)
}
