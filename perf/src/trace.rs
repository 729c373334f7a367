//! The traced run: everything `--trace 1` prints. It runs the
//! workload's cluster shape four ways — the in-process driver with
//! spans on and off, the layer functions alone, the TCP runtime with
//! its telemetry read back, and a HotStuff twin of both — and
//! reconciles them in the ledger.

use crate::bench::{self, Scratch, TcpAfter};
use crate::drive;
use crate::host;
use crate::inproc::{Counts, Inproc, Span};
use crate::ledger::{self, Row};
use crate::stats;
use crate::tcp::Journal;
use crate::workload::{Backend, Phases, Rep, RepError, Workload};
use crate::{metric, Metric};
use bytes::Bytes;
use marlin_core::ProtocolKind;
use marlin_telemetry::{Decomposition, Note, Trace};
use marlin_types::MsgClass;
use std::collections::BTreeMap;
use std::time::Duration;

/// One closed-loop pass of the in-process driver.
struct Pass {
    ktps: f64,
    us_per_block: f64,
    blocks: u64,
    txs: u64,
    /// Traffic between the two quiescent points around the pass.
    counts: Counts,
    spans: Vec<Span>,
    samples: BTreeMap<MsgClass, Bytes>,
}

/// Pairs of in-process passes (spans off, spans on) a traced run makes.
const INPROC_PAIRS: usize = 3;
/// Warm-up transactions before an in-process pass is timed.
const PASS_WARMUP: u64 = 20_000;

fn inproc_pass(
    w: &Workload,
    kind: ProtocolKind,
    seed: u64,
    txs: u64,
    traced: bool,
) -> Result<Pass, String> {
    let payloads = bench::seeded_payloads(seed, w.shape.payload);
    let capacity = (PASS_WARMUP + txs) as usize + w.shape.batch_size;
    let mut sut = Inproc::launch(kind, &bench::inproc_config(w), payloads, capacity);
    let chunk = w.shape.batch_size;
    drive::closed_loop(&mut sut, PASS_WARMUP, w.closed_window, chunk)?;
    sut.settle();
    sut.sample_frames();
    let before = sut.counts.clone();
    let blocks0 = sut.committed_blocks();
    if traced {
        sut.trace();
    }
    let elapsed_ns = drive::closed_loop(&mut sut, txs, w.closed_window, chunk)?.elapsed_ns;
    sut.settle();
    let spans = sut.take_spans();
    let blocks = (sut.committed_blocks() - blocks0) as u64;
    sut.check_chains()?;
    if !sut.chains_level() {
        return Err("in-process replicas ended at different heights".into());
    }
    if sut.counts.view_changes != 0 {
        return Err("view change in a fault-free in-process pass".into());
    }
    Ok(Pass {
        ktps: txs as f64 / (elapsed_ns as f64 / 1e9) / 1e3,
        us_per_block: elapsed_ns as f64 / 1e3 / blocks.max(1) as f64,
        blocks,
        txs,
        counts: sut.counts.since(&before),
        spans,
        samples: sut.take_samples(),
    })
}

/// Median propose→prepareQC and prepareQC→commitQC over the complete
/// blocks of `d`, in ms.
fn phase_medians(d: &Decomposition) -> (f64, f64) {
    let mut first = Vec::new();
    let mut second = Vec::new();
    for b in d.complete_blocks() {
        if let (Some(proposed), [p1, p2, ..]) = (b.proposed_ns, b.phases.as_slice()) {
            first.push(p1.qc_ns.saturating_sub(proposed) as f64 / 1e6);
            second.push(p2.qc_ns.saturating_sub(p1.qc_ns) as f64 / 1e6);
        }
    }
    (
        stats::median(&first).unwrap_or(0.0),
        stats::median(&second).unwrap_or(0.0),
    )
}

/// The part of `trace` stamped inside `[from_ns, to_ns]`.
fn slice(trace: &Trace, from_ns: u64, to_ns: u64) -> Trace {
    let inside = |at: u64| at >= from_ns && at <= to_ns;
    Trace {
        events: trace
            .events
            .iter()
            .filter(|e| inside(e.at_ns))
            .cloned()
            .collect(),
        charges: trace
            .charges
            .iter()
            .filter(|c| inside(c.at_ns))
            .copied()
            .collect(),
    }
}

fn push(out: &mut Vec<Metric>, name: &'static str, unit: &'static str, value: f64) {
    out.push(metric(name, unit, value));
}

/// Metrics read back from the TCP repetition's `ClusterReport`.
fn tcp_metrics(out: &mut Vec<Metric>, w: &Workload, rep: &Rep, after: &TcpAfter) {
    let trace = &after.report.trace;
    // Phase times and lane shares over 0.4 s of the open loop: the lane
    // breakdown compares every charge with every block's windows, so it
    // is given a slice, not the whole run.
    let from = rep.open_from_ns + 300_000_000;
    let d = Decomposition::from_trace(&slice(trace, from, from + 400_000_000));
    let (prepare, commit) = phase_medians(&d);
    push(out, "core.phase.prepare_qc_ms", "ms", prepare);
    push(out, "core.phase.commit_qc_ms", "ms", commit);
    let lanes = d.lane_breakdown();
    let total: u64 = lanes.iter().map(|l| l.window_ns).sum();
    let share = |f: &dyn Fn(&marlin_telemetry::LaneBreakdown) -> u64| {
        if total == 0 {
            0.0
        } else {
            lanes.iter().map(f).sum::<u64>() as f64 / total as f64
        }
    };
    push(
        out,
        "core.lane.consensus_share",
        "share",
        share(&|l| l.consensus_ns),
    );
    push(out, "core.lane.wire_share", "share", share(&|l| l.wire_ns));
    push(
        out,
        "core.lane.journal_share",
        "share",
        share(&|l| l.journal_ns),
    );
    push(
        out,
        "core.lane.crypto_share",
        "share",
        share(&|l| l.crypto_ns),
    );

    let mut journal_appends = 0u64;
    let (mut offered, mut rejected) = (0u64, 0u64);
    let mut view_changes = 0u64;
    for e in &trace.events {
        match &e.note {
            // Replica 0's journal, so the figure is per replica.
            Note::JournalWrite { appends, .. } if e.replica.0 == 0 => journal_appends += appends,
            Note::MempoolAdmission {
                admitted,
                duplicates,
                rejected: full,
                ..
            } => {
                offered += (admitted + duplicates + full) as u64;
                rejected += *full as u64;
            }
            Note::ViewChangeStarted { .. } if e.replica.0 == 0 => view_changes += 1,
            _ => {}
        }
    }
    let blocks = after.blocks.max(1) as f64;
    push(
        out,
        "core.journal.writes_per_block",
        "count",
        journal_appends as f64 / blocks,
    );
    push(
        out,
        "mempool.rejected_share",
        "share",
        if offered == 0 {
            0.0
        } else {
            rejected as f64 / offered as f64
        },
    );
    push(out, "core.view_changes", "count", view_changes as f64);
    push(
        out,
        "core.view_change_ms",
        "ms",
        rep.outage_ms - w.shape.base_timeout.as_secs_f64() * 1e3,
    );
    // 0 where the shape keeps no journal or does not sync: a replica
    // restarted there has nothing to recover from and never catches up.
    push(
        out,
        "core.sync.rejoin_ms",
        "ms",
        after.rejoin_ms.unwrap_or(0.0),
    );
    push(
        out,
        "telemetry.trace_events_per_block",
        "count",
        trace.events.len() as f64 / blocks,
    );
    push(
        out,
        "runtime.threads_per_replica",
        "count",
        rep.threads.saturating_sub(1) as f64 / w.shape.n as f64,
    );
    push(
        out,
        "runtime.ctx_switches_per_block",
        "count",
        rep.ctx_switches_per_block,
    );
    push(out, "runtime.send_drops", "count", after.send_drops as f64);
    push(
        out,
        "runtime.decode_errors",
        "count",
        after.decode_errors as f64,
    );
}

/// Metrics about the generator and the process, from the workload's
/// own repetition.
fn client_metrics(out: &mut Vec<Metric>, rep: &Rep) {
    let mut late: Vec<u64> = rep.late_ns.clone();
    late.sort_unstable();
    push(
        out,
        "client.gen_late_p99_ms",
        "ms",
        if late.is_empty() {
            0.0
        } else {
            stats::percentile_sorted(&late, 0.99) as f64 / 1e6
        },
    );
    push(out, "client.retries", "count", rep.retries as f64);
    let p99s: Vec<f64> = rep.windows.iter().map(|w| w.p99 as f64).collect();
    let typical = stats::median(&p99s).unwrap_or(0.0);
    let stalled = p99s.iter().filter(|&&p| p > 5.0 * typical).count();
    push(
        out,
        "client.stall_windows_share",
        "share",
        if p99s.is_empty() {
            0.0
        } else {
            stalled as f64 / p99s.len() as f64
        },
    );
    let window_median = |f: &dyn Fn(&stats::WindowStats) -> u64| {
        stats::median(&bench::window_values_ms(std::slice::from_ref(rep), f)).unwrap_or(0.0)
    };
    push(out, "client.open_p50_ms", "ms", window_median(&|w| w.p50));
    push(out, "client.commit_p95_ms", "ms", window_median(&|w| w.p95));
    push(out, "client.commit_p99_ms", "ms", window_median(&|w| w.p99));
    push(out, "client.goodput_decay_ratio", "ratio", rep.decay_ratio);
    // Every due transaction id committed exactly once, or the
    // repetition would have failed the run instead of returning.
    push(out, "client.committed_share", "share", 1.0);
    push(out, "process.cpu_us_per_tx", "us", rep.cpu_us_per_tx);
}

/// Runs the traced run for `w` and returns every per-layer metric.
/// Prints the ledger table to standard error and writes the spans next
/// to the executable.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
    two_thread_speedup: f64,
) -> Result<bench::RunResult, String> {
    let mut out = Vec::new();
    // The pieces below are fixed work; only the layer timings stretch
    // with `--seconds`.
    let layer_budget = Duration::from_secs_f64((seconds * 0.3 / 30.0).clamp(0.02, 0.4));
    let pass_txs = w.closed_txs.min(80_000);
    let mut gate = host::QuietGate::default();

    // 1. The in-process driver on the same inputs, spans off and spans
    // on, alternating so that host drift falls on both alike; goodput
    // is the median over each side's passes.
    let mut passes: Vec<(Pass, Pass)> = Vec::new();
    let mut upset = 0;
    while passes.len() < INPROC_PAIRS {
        gate.wait();
        let plain = inproc_pass(w, w.shape.kind, seed, pass_txs, false);
        gate.wait();
        let traced = inproc_pass(w, w.shape.kind, seed, pass_txs, true);
        // The driver's timers run on the wall clock, so a host stall
        // longer than a timer fires it and changes the traffic: such a
        // pair is made again, a bounded number of times.
        match (plain, traced) {
            (Ok(plain), Ok(traced))
                if plain.counts == traced.counts
                    && plain.blocks == traced.blocks
                    && passes
                        .first()
                        .is_none_or(|(first, _)| first.counts == plain.counts) =>
            {
                passes.push((plain, traced));
            }
            (plain, traced) => {
                upset += 1;
                let why = match (plain.err(), traced.err()) {
                    (Some(e), _) | (None, Some(e)) => e,
                    (None, None) => {
                        "two passes on the same inputs counted different traffic".into()
                    }
                };
                eprintln!("marlin-perf: in-process pass upset ({why}); making the pair again");
                if upset > 3 {
                    return Err(format!("in-process passes upset four times, last: {why}"));
                }
            }
        }
    }
    let median_of = |f: &dyn Fn(&(Pass, Pass)) -> f64| {
        stats::median(&passes.iter().map(f).collect::<Vec<_>>())
            .expect("at least one pair of passes")
    };
    let plain_ktps = median_of(&|p| p.0.ktps);
    let traced_ktps = median_of(&|p| p.1.ktps);
    let plain_us_per_block = median_of(&|p| p.0.us_per_block);
    let (plain, traced) = passes.pop().expect("at least one pair of passes");
    let rows = ledger::fold(&traced.spans);
    let reconciled = ledger::reconcile(&rows, traced.blocks, plain_us_per_block);
    let mean_us = |pred: &dyn Fn(&Row) -> bool| {
        let (calls, ns) = rows
            .iter()
            .filter(|(r, _)| pred(r))
            .fold((0u64, 0u64), |acc, (_, t)| {
                (acc.0 + t.calls, acc.1 + t.self_ns)
            });
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1e3
        }
    };
    let blocks = plain.blocks.max(1) as f64;
    out.extend([
        metric(
            "core.step.new_txs_us",
            "us",
            mean_us(&|r| *r == Row::StepNewTxs),
        ),
        metric(
            "core.step.proposal_us",
            "us",
            mean_us(&|r| matches!(r, Row::StepProposal(_))),
        ),
        metric(
            "core.step.vote_ns",
            "ns",
            mean_us(&|r| *r == Row::StepVote) * 1e3,
        ),
        metric(
            "core.step.qc_us",
            "us",
            mean_us(&|r| *r == Row::StepQuorumVote),
        ),
        metric(
            "core.step.decide_us",
            "us",
            mean_us(&|r| *r == Row::StepDecide),
        ),
        metric("core.step_us_per_block", "us", reconciled.step_us_per_block),
        metric(
            "core.msgs_per_block",
            "count",
            plain.counts.msgs() as f64 / blocks,
        ),
        metric(
            "core.authenticators_per_block",
            "count",
            plain.counts.authenticators() as f64 / blocks,
        ),
        metric(
            "types.codec.wire_bytes_per_tx",
            "B/tx",
            plain.counts.wire_bytes() as f64 / plain.txs as f64,
        ),
        metric(
            "trace.overhead_share",
            "share",
            1.0 - traced_ktps / plain_ktps,
        ),
        metric(
            "ledger.unexplained_share",
            "share",
            reconciled.unexplained_share,
        ),
        metric(
            "ledger.step_share",
            "share",
            reconciled.step_us_per_block / reconciled.measured_us_per_block,
        ),
        metric("twin.inproc_ktps", "ktx/s", plain_ktps),
    ]);

    // 2. Each layer's functions alone, on frames sampled from that run.
    let layers = crate::layers::measure(&w.shape, &plain.samples, scratch.path(), layer_budget)?;
    let isolated: Vec<(&str, f64)> = layers
        .iter()
        .filter(|m| {
            matches!(
                m.name,
                "types.block.hash_us_per_block"
                    | "crypto.sign_partial_ns"
                    | "crypto.verify_batch_ns_per_sig"
                    | "crypto.combine_ns"
                    | "crypto.verify_combined_ns"
                    | "mempool.admit_unbounded_ns_per_tx"
                    | "mempool.take_ns_per_tx"
                    | "types.tree.insert_commit_ns_per_block"
                    | "types.codec.encode_proposal_us"
                    | "types.codec.decode_proposal_us"
            )
        })
        .map(|m| {
            (
                m.name,
                if m.unit == "ns" {
                    m.value / 1e3
                } else {
                    m.value
                },
            )
        })
        .collect();
    out.extend(layers);

    // 3. The workload's own repetition (generator and process figures),
    // and the TCP runtime on the same shape with its telemetry read
    // back. For a TCP workload these are one repetition.
    gate.wait();
    let tcp_w = Workload {
        backend: Backend::Tcp,
        ..*w
    };
    let (tcp_rep, after) = one_tcp(&tcp_w, seed, 0, scratch, true)?;
    let own_rep = match w.backend {
        Backend::Tcp => tcp_rep.clone(),
        Backend::Inproc => {
            gate.wait();
            retry_disturbed(|index| {
                bench::inproc_rep(
                    w,
                    seed,
                    index,
                    Phases {
                        open: true,
                        kill: true,
                        observe: true,
                    },
                )
            })?
        }
    };
    client_metrics(&mut out, &own_rep);
    tcp_metrics(&mut out, &tcp_w, &tcp_rep, &after);
    out.extend([
        metric("twin.tcp_ktps", "ktx/s", tcp_rep.goodput_ktps),
        metric(
            "runtime.cpu_over_inproc_ratio",
            "ratio",
            tcp_rep.cpu_us_per_tx / (1e3 / plain_ktps),
        ),
    ]);

    // 4. The HotStuff twin: three phases against Marlin's two, without
    // a journal on either side (basic HotStuff has none).
    let mut hs = tcp_w;
    hs.shape.kind = ProtocolKind::HotStuff;
    hs.shape.journal = Journal::None;
    hs.shape.sync_snapshot_interval = 0;
    hs.shape.mempool_capacity = 0;
    gate.wait();
    let hs_pass = inproc_pass(&hs, ProtocolKind::HotStuff, seed, pass_txs, false)?;
    gate.wait();
    let (hs_rep, _) = one_tcp(&hs, seed, 100, scratch, false)?;
    let hs_msgs = hs_pass.counts.msgs() as f64 / hs_pass.blocks.max(1) as f64;
    if hs_msgs <= plain.counts.msgs() as f64 / blocks {
        return Err(
            "three-phase HotStuff sent no more messages per block than two-phase Marlin".into(),
        );
    }
    let hs_p50 = stats::median(&bench::window_values_ms(
        std::slice::from_ref(&hs_rep),
        |w| w.p50,
    ));
    out.extend([
        metric("twin.hotstuff.goodput_ktps", "ktx/s", hs_rep.goodput_ktps),
        metric("twin.hotstuff.commit_p50_ms", "ms", hs_p50.unwrap_or(0.0)),
        metric("twin.hotstuff.inproc_ktps", "ktx/s", hs_pass.ktps),
        metric("twin.hotstuff.msgs_per_block", "count", hs_msgs),
        metric(
            "process.peak_rss_mb",
            "MB",
            host::peak_rss_mb().unwrap_or(0.0),
        ),
        metric(
            "host.calib_ms",
            "ms",
            stats::median(&gate.readings).unwrap_or(0.0),
        ),
        metric("host.quiet_retries", "count", gate.retries as f64),
        metric("host.two_thread_speedup", "ratio", two_thread_speedup),
    ]);

    eprintln!(
        "ledger for {} ({} blocks of {} transactions, in-process, one thread):",
        w.name, traced.blocks, w.shape.batch_size
    );
    eprint!(
        "{}",
        ledger::render(&rows, traced.blocks, &reconciled, &isolated)
    );
    eprintln!(
        "runtime over in-process: {:.2} us/tx of process CPU on TCP against {:.2} us/tx in-process",
        tcp_rep.cpu_us_per_tx,
        1e3 / plain_ktps
    );
    if let Some(dir) = scratch.path().parent() {
        let path = dir.join(format!("marlin-perf-spans-{}.csv", w.name));
        match ledger::write_spans(&path, &traced.spans) {
            Ok(()) => eprintln!("{} spans written to {}", traced.spans.len(), path.display()),
            Err(e) => eprintln!(
                "marlin-perf: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }

    Ok(bench::RunResult {
        attempted: own_rep.attempted + tcp_rep.attempted + hs_rep.attempted,
        metrics: out,
    })
}

/// Runs `rep`, again (twice at most) if the host disturbed it.
fn retry_disturbed<T>(mut rep: impl FnMut(u64) -> Result<T, RepError>) -> Result<T, String> {
    for index in 0..3 {
        match rep(index) {
            Ok(v) => return Ok(v),
            Err(RepError::Disturbed(why)) => {
                eprintln!("marlin-perf: repetition disturbed ({why}); running it again");
            }
            Err(RepError::Fatal(why)) => return Err(format!("output check failed: {why}")),
        }
    }
    Err("three disturbed repetitions in the traced run".into())
}

/// One observed TCP repetition; the Marlin one includes the kill and
/// the recovery, the HotStuff twin neither.
fn one_tcp(
    w: &Workload,
    seed: u64,
    base_index: u64,
    scratch: &Scratch,
    faults: bool,
) -> Result<(Rep, TcpAfter), String> {
    let phases = Phases {
        open: true,
        kill: faults,
        observe: true,
    };
    retry_disturbed(|index| bench::tcp_rep(w, seed, base_index + index, scratch, phases, faults))
}
