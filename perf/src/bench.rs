//! One repetition on either back end, and the untraced run that turns
//! repetitions into the end-to-end metrics.

use crate::host::{QuietGate, Rng};
use crate::inproc::Inproc;
use crate::spec::Better;
use crate::stats::{self, WindowStats};
use crate::sut::Sut;
use crate::tcp::{Journal, Tcp};
use crate::workload::{self, Backend, Phases, Rep, RepError, Workload};
use crate::{metric as m, Metric};
use marlin_runtime::ClusterReport;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Scratch directory for file journals: beside the executable, so it
/// is inside the build directory (ignored, inside the checkout), and
/// removed when the run ends.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .ok_or_else(|| std::io::Error::other("executable has no parent directory"))?
            .join(format!("marlin-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Payload bytes drawn from the seed, for the in-process driver (the
/// runtime's `submit` takes only a length and fills in zeros).
pub fn seeded_payloads(seed: u64, len: usize) -> Vec<bytes::Bytes> {
    let mut rng = Rng::new(seed);
    (0..4096)
        .map(|_| {
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf);
            bytes::Bytes::from(buf)
        })
        .collect()
}

pub fn inproc_config(w: &Workload) -> marlin_core::Config {
    let mut cfg = marlin_core::Config::for_test(w.shape.n, w.shape.f);
    cfg.batch_size = w.shape.batch_size;
    cfg.base_timeout_ns = w.shape.base_timeout.as_nanos() as u64;
    cfg
}

fn rep_rng(seed: u64, index: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(index))
}

/// What a TCP repetition leaves behind for the traced run.
pub struct TcpAfter {
    pub report: ClusterReport,
    /// Blocks replica 0 committed over the whole repetition.
    pub blocks: u64,
    pub send_drops: u64,
    pub decode_errors: u64,
    /// Recover call → recovered replica within 8 blocks of replica 0.
    pub rejoin_ms: Option<f64>,
}

/// How long a recovered replica may take to catch up.
const REJOIN_NS: u64 = 3_000_000_000;

/// Restarts the killed replica from its journal and times its way back
/// to the tip, keeping the open loop's load on so there is a tip to
/// chase.
fn rejoin(sut: &mut Tcp, w: &Workload, victim: usize) -> Result<f64, RepError> {
    let start = sut.now_ns();
    sut.cluster_mut()
        .recover_from_disk(victim)
        .map_err(|e| RepError::Fatal(format!("recover replica {victim}: {e}")))?;
    let tip = |sut: &Tcp, i: usize| {
        sut.cluster()
            .status(i)
            .commit_log()
            .last()
            .map_or(0, |&(h, _)| h)
    };
    let mut next_burst = start;
    // Reading a tip copies the replica's whole commit log: look every
    // 10 ms, not on every burst.
    let mut next_look = start;
    loop {
        let now = sut.now_ns();
        if now >= next_look {
            next_look = now + 10_000_000;
            let (leader_tip, victim_tip) = (tip(sut, 0), tip(sut, victim));
            if victim_tip > 0 && leader_tip.saturating_sub(victim_tip) <= 8 {
                return Ok((now - start) as f64 / 1e6);
            }
        }
        if now - start > REJOIN_NS {
            return Err(RepError::Disturbed(
                "the recovered replica did not catch up within 3 s",
            ));
        }
        if now >= next_burst {
            sut.submit(w.burst);
            next_burst += w.period_ns;
        }
        sut.wait_until(next_burst.min(next_look));
    }
}

/// Launches a fresh TCP cluster for `w` and runs one repetition on it.
/// With `recover`, the killed replica is restarted and timed back to
/// the tip before shutdown (only where the shape journals and syncs).
pub fn tcp_rep(
    w: &Workload,
    seed: u64,
    index: u64,
    scratch: &Scratch,
    phases: Phases,
    recover: bool,
) -> Result<(Rep, TcpAfter), RepError> {
    let mut rng = rep_rng(seed, index);
    let dir = scratch.path().join(format!("rep-{index}"));
    let started = Instant::now();
    // Room for the load that keeps flowing while a replica rejoins.
    let capacity = w.id_capacity() + (REJOIN_NS / w.period_ns) as usize * w.burst;
    let mut sut = Tcp::launch(&w.shape, dir.clone(), capacity)
        .map_err(|e| RepError::Fatal(format!("launch: {e}")))?;
    let rep = workload::run_rep(&mut sut, w, started, &mut rng, phases);
    let can_recover = w.shape.journal != Journal::None && w.shape.sync_snapshot_interval > 0;
    let rejoin_ms = match &rep {
        Ok(rep) if phases.kill && recover && can_recover => Some(rejoin(&mut sut, w, rep.killed)),
        _ => None,
    };
    let blocks = sut.log().committed_blocks() as u64;
    let n = w.shape.n;
    let send_drops = (0..n).map(|i| sut.cluster().status(i).send_drops()).sum();
    let decode_errors = (0..n)
        .map(|i| sut.cluster().status(i).decode_errors())
        .sum();
    // Always stop the cluster, whatever the repetition found.
    let finished = sut.finish();
    let _ = std::fs::remove_dir_all(&dir);
    let rep = rep?;
    let rejoin_ms = rejoin_ms.transpose()?;
    let (_prefix, report) = finished.map_err(RepError::Fatal)?;
    Ok((
        rep,
        TcpAfter {
            report,
            blocks,
            send_drops,
            decode_errors,
            rejoin_ms,
        },
    ))
}

/// Launches fresh in-process replicas for `w` and runs one repetition.
pub fn inproc_rep(w: &Workload, seed: u64, index: u64, phases: Phases) -> Result<Rep, RepError> {
    let mut rng = rep_rng(seed, index);
    let started = Instant::now();
    let payloads = seeded_payloads(rng.next_u64(), w.shape.payload);
    let mut sut = Inproc::launch(w.shape.kind, &inproc_config(w), payloads, w.id_capacity());
    let rep = workload::run_rep(&mut sut, w, started, &mut rng, phases)?;
    sut.settle();
    sut.check_chains().map_err(RepError::Fatal)?;
    Ok(rep)
}

pub fn one_rep(
    w: &Workload,
    seed: u64,
    index: u64,
    scratch: &Scratch,
    phases: Phases,
) -> Result<Rep, RepError> {
    match w.backend {
        Backend::Tcp => tcp_rep(w, seed, index, scratch, phases, false).map(|(rep, _)| rep),
        Backend::Inproc => inproc_rep(w, seed, index, phases),
    }
}

/// Repetitions of one workload, and what the host did meanwhile.
pub struct Reps {
    pub reps: Vec<Rep>,
    /// Repetitions thrown away because the host disturbed them.
    pub disturbed: u64,
    pub gate: QuietGate,
}

/// A disturbed repetition is run again; more than this many in one run
/// means the host cannot carry the benchmark.
const MAX_DISTURBED: u64 = 3;

/// Fewest repetitions a run reports on, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Runs repetitions for about `seconds`, at least [`MIN_REPS`]; `rep`
/// runs repetition number `index`.
fn repeat(seconds: f64, mut rep: impl FnMut(u64) -> Result<Rep, RepError>) -> Result<Reps, String> {
    let started = Instant::now();
    let mut out = Reps {
        reps: Vec::new(),
        disturbed: 0,
        gate: QuietGate::default(),
    };
    let mut index = 0u64;
    loop {
        out.gate.wait();
        match rep(index) {
            Ok(rep) => {
                eprintln!(
                    "marlin-perf: repetition {index}: probe {:.2} ms, setup {:.3} s, goodput {:.1} ktx/s (quarters {:.0?}), commit p50 {:.3} ms, outage {:.1} ms",
                    out.gate.readings.last().copied().unwrap_or(0.0),
                    rep.setup_s,
                    rep.goodput_ktps,
                    rep.quarter_ktps,
                    rep.commit_p50_ms,
                    rep.outage_ms,
                );
                out.reps.push(rep)
            }
            Err(RepError::Disturbed(why)) => {
                eprintln!("marlin-perf: repetition {index} disturbed ({why}); running it again");
                out.disturbed += 1;
                if out.disturbed > MAX_DISTURBED {
                    return Err(format!(
                        "{} disturbed repetitions, last: {why}",
                        out.disturbed
                    ));
                }
            }
            Err(RepError::Fatal(why)) => return Err(format!("output check failed: {why}")),
        }
        index += 1;
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / index as f64;
        if out.reps.len() >= MIN_REPS && elapsed + per_rep > seconds {
            return Ok(out);
        }
    }
}

/// Every latency window of every repetition, one statistic each, in ms.
pub fn window_values_ms(reps: &[Rep], f: impl Fn(&WindowStats) -> u64) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| r.windows.iter())
        .map(|w| f(w) as f64 / 1e6)
        .collect()
}

/// How far in from the quiet end of a run's samples the reported
/// value lies.
const QUIET_SHARE: f64 = 0.05;

/// The value a twentieth of the way in from the end of `values`
/// nearest the undisturbed host: the low end for a time, the high end
/// for a rate.
///
/// What disturbs these hosts (a neighbour on the same core, for
/// seconds to minutes at a time) only ever slows the program down, by
/// an amount that changes from one tenth of a second to the next. The
/// samples taken in the quietest moments sit together at one end of a
/// run's distribution while the rest trail off: over twenty identical
/// runs, three of them disturbed from end to end, the run median of
/// goodput ranged over 40%, its quiet quartile over 25%, this over 13%.
/// It needs many short samples (a run has 80 to 500), not few long
/// ones. A change to the program moves every sample, and this value
/// with them.
pub fn quiet_tail(values: &[f64], better: Better) -> f64 {
    let share = match better {
        Better::Lower => QUIET_SHARE,
        Better::Higher => 1.0 - QUIET_SHARE,
    };
    stats::quantile(values, share).expect("at least one sample")
}

/// The same for the few samples there are of set-up (one per
/// repetition): the first quartile.
pub fn quiet_quartile(values: &[f64]) -> f64 {
    match stats::quartiles(values) {
        Some((q1, _)) => q1,
        None => *values.first().expect("at least one sample"),
    }
}

/// The result line's parts. There is no failure count: a lost,
/// duplicated or refused transaction fails the run before any result
/// exists.
pub struct RunResult {
    pub attempted: u64,
    pub metrics: Vec<Metric>,
}

/// The untraced run: the end-to-end metrics over the repetitions that
/// fit in `seconds`.
pub fn run_end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
) -> Result<RunResult, String> {
    // The untraced repetition leaves out the fixed-rate open loop: its
    // percentiles are per-layer figures, and the time buys repetitions.
    let phases = Phases {
        open: false,
        kill: true,
        observe: false,
    };
    let done = repeat(seconds, |index| one_rep(w, seed, index, scratch, phases))?;
    let reps = &done.reps;
    let slices: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.slice_ktps.iter().copied())
        .collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let outages: Vec<f64> = reps.iter().map(|r| r.outage_ms).collect();
    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.group_p50_ms.iter().copied())
        .collect();
    let metrics = vec![
        m("goodput_ktps", "ktx/s", quiet_tail(&slices, Better::Higher)),
        m("commit_p50_ms", "ms", quiet_tail(&latencies, Better::Lower)),
        m(
            "outage_ms",
            "ms",
            stats::median(&outages).expect("at least three repetitions"),
        ),
        m("setup_s", "s", quiet_quartile(&setups)),
    ];
    eprintln!(
        "marlin-perf: {} — {} repetitions ({} disturbed, {} waits for a quiet host), calibration {:.1} ms",
        w.name,
        reps.len(),
        done.disturbed,
        done.gate.retries,
        stats::median(&done.gate.readings).unwrap_or(0.0),
    );
    Ok(RunResult {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        metrics,
    })
}
