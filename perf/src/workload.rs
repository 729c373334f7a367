//! The four workloads and the repetition every one of them runs:
//! launch a fresh cluster, commit a warm-up (together: set-up), commit
//! a fixed amount of closed-loop work (goodput), run an open loop
//! (latency), then keep the open loop going through a leader kill
//! (outage, exactly-once), check and shut down.

use crate::drive::{self, Requests};
use crate::host::{self, Rng};
use crate::stats::{self, WindowStats};
use crate::sut::Sut;
use crate::tcp::{ClusterShape, Journal};
use marlin_core::ProtocolKind;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `RuntimeCluster` over loopback `TcpMesh`.
    Tcp,
    /// The single-thread driver in `inproc.rs`.
    Inproc,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: Backend,
    pub shape: ClusterShape,
    /// Closed-loop transactions committed before timing starts; part of
    /// set-up.
    pub warmup_txs: u64,
    /// Closed-loop transactions the goodput phase commits.
    pub closed_txs: u64,
    /// Transactions outstanding in the closed loop.
    pub closed_window: u64,
    /// Batches the serial-latency phase commits one at a time: about
    /// half a second's worth.
    pub serial_rounds: usize,
    /// Transactions per open-loop burst.
    pub burst: usize,
    /// A burst is due every this many nanoseconds.
    pub period_ns: u64,
    /// Seconds of open loop measured for latency.
    pub open_secs: f64,
}

/// Open-loop samples due before this are discarded.
const OPEN_DISCARD_NS: u64 = 200_000_000;
/// Latency window length.
const WINDOW_NS: u64 = 500_000_000;
/// Length of the open loop that spans the leader kill.
const KILL_PHASE_NS: u64 = 1_000_000_000;
/// The kill comes this long into that phase, plus a seeded jitter.
const KILL_AT_NS: u64 = 200_000_000;
const KILL_JITTER_NS: u64 = 100_000_000;
/// Consecutive serial rounds whose median is one latency sample.
const SERIAL_GROUP: usize = 10;
/// Goodput samples per closed loop: each is the rate over this share
/// of its work (45 to 70 ms).
const SLICES: u64 = 16;
/// How long a launched cluster may take to commit its first block.
const READY_NS: u64 = 3_000_000_000;
/// How long a phase may take to commit what is still in flight.
const DRAIN_NS: u64 = 2_000_000_000;

const BATCH: usize = 400;
const TIMEOUT: Duration = Duration::from_millis(300);

const fn shape(
    n: usize,
    f: usize,
    payload: usize,
    journal: Journal,
    mempool: usize,
    sync: u64,
) -> ClusterShape {
    ClusterShape {
        kind: ProtocolKind::Marlin,
        n,
        f,
        payload,
        journal,
        mempool_capacity: mempool,
        sync_snapshot_interval: sync,
        batch_size: BATCH,
        base_timeout: TIMEOUT,
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp-n4-150b",
        why: "the paper's headline point (150-byte requests, n=4): payload bytes dominate, so codec, block hashing, transport and allocation do the work",
        backend: Backend::Tcp,
        shape: shape(4, 1, 150, Journal::None, 0, 0),
        warmup_txs: 50_000,
        closed_txs: 200_000,
        closed_window: 10 * BATCH as u64,
        serial_rounds: 240,
        burst: 100,
        period_ns: 2_000_000,
        open_secs: 1.7,
    },
    Workload {
        name: "tcp-n4-noop-filejournal",
        why: "no-op requests with file journal, bounded mempool and pruning: per-block fixed costs (journal write-before-vote, crypto, votes, tree) that 150-byte payloads hide",
        backend: Backend::Tcp,
        shape: shape(4, 1, 0, Journal::Files, 65_536, 64),
        warmup_txs: 50_000,
        closed_txs: 400_000,
        closed_window: 10 * BATCH as u64,
        serial_rounds: 600,
        burst: 100,
        period_ns: 2_000_000,
        open_secs: 1.7,
    },
    Workload {
        name: "tcp-n7-leaderkill",
        why: "n=7 with journal and block sync: twice the fan-out, and the outage is the linear view change across six survivors, the paper's contribution",
        backend: Backend::Tcp,
        shape: shape(7, 2, 150, Journal::Memory, 0, 64),
        warmup_txs: 50_000,
        closed_txs: 100_000,
        closed_window: 10 * BATCH as u64,
        serial_rounds: 120,
        burst: 40,
        period_ns: 4_000_000,
        open_secs: 1.7,
    },
    Workload {
        name: "inproc-n4-150b",
        why: "same inputs as tcp-n4-150b with the runtime layer bypassed (one thread, no sockets): a codec/core/crypto gain shows on both, a transport/threading gain on tcp-* only",
        backend: Backend::Inproc,
        shape: shape(4, 1, 150, Journal::None, 0, 0),
        warmup_txs: 50_000,
        closed_txs: 200_000,
        closed_window: 2 * BATCH as u64,
        serial_rounds: 360,
        burst: 100,
        period_ns: 2_000_000,
        open_secs: 1.7,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Upper bound on the transaction ids one repetition issues: every
    /// phase's work plus one retry of everything the kill phase owes.
    pub fn id_capacity(&self) -> usize {
        let open = (self.open_secs * 1e9) as u64 / self.period_ns * self.burst as u64;
        let kill = KILL_PHASE_NS / self.period_ns * self.burst as u64;
        (self.warmup_txs + self.closed_txs + open + 2 * kill) as usize
            + (self.serial_rounds + 4) * BATCH
    }
}

/// What one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Launch, wait for the first commit, and warm-up, seconds.
    pub setup_s: f64,
    pub goodput_ktps: f64,
    /// Goodput over each successive quarter of the closed loop's work.
    pub quarter_ktps: [f64; 4],
    /// Goodput over each successive sixteenth of it.
    pub slice_ktps: Vec<f64>,
    /// Closed loop: last-quarter rate ÷ first-quarter rate.
    pub decay_ratio: f64,
    /// Process CPU µs per transaction over the closed loop.
    pub cpu_us_per_tx: f64,
    /// Median submit → commit time of one batch with nothing else in
    /// flight, ms.
    pub commit_p50_ms: f64,
    /// The same median over each successive [`SERIAL_GROUP`] rounds.
    pub group_p50_ms: Vec<f64>,
    /// Open-loop latency percentiles by window (when that phase ran).
    pub windows: Vec<WindowStats>,
    /// How late each open-loop burst went out, ns.
    pub late_ns: Vec<u64>,
    pub outage_ms: f64,
    /// Transactions due over all phases; every one committed exactly
    /// once, or the repetition did not return.
    pub attempted: u64,
    pub retries: u64,
    /// Context switches per committed block over the closed loop
    /// (only taken when `observe` is set).
    pub ctx_switches_per_block: f64,
    pub threads: u64,
    /// Start of the open-loop phase on the cluster clock, for trace
    /// slicing.
    pub open_from_ns: u64,
    /// Index of the killed replica.
    pub killed: usize,
}

/// Why a repetition did not yield a measurement.
#[derive(Debug)]
pub enum RepError {
    /// The host stalled long enough for a view timer to fire with no
    /// fault injected; the repetition is run again.
    Disturbed(&'static str),
    /// An output check failed; the benchmark fails.
    Fatal(String),
}

fn fatal(msg: impl Into<String>) -> RepError {
    RepError::Fatal(msg.into())
}

/// Checks that hold at the end of every fault-free phase.
fn check_fault_free<S: Sut>(sut: &S, view0: u64, phase: &'static str) -> Result<(), RepError> {
    if sut.max_view() != view0 {
        return Err(RepError::Disturbed(phase));
    }
    if sut.transport_errors() != 0 {
        return Err(fatal(format!(
            "{phase}: {} frames dropped or undecodable with no fault injected",
            sut.transport_errors()
        )));
    }
    if sut.log().violations() != 0 {
        return Err(fatal(format!(
            "{phase}: {} transaction ids committed twice or never issued",
            sut.log().violations()
        )));
    }
    Ok(())
}

/// The open loop on an absolute schedule: latency percentiles by window
/// at a fixed offered rate.
fn open_loop_phase<S: Sut>(
    sut: &mut S,
    w: &Workload,
    rng: &mut Rng,
    view0: u64,
    rep: &mut Rep,
) -> Result<(), RepError> {
    let t0 = sut.now_ns() + 5_000_000;
    let bursts = drive::schedule(
        t0,
        w.period_ns,
        ((w.open_secs * 1e9) as u64 / w.period_ns) as usize,
        w.burst,
        rng,
    );
    let mut open = Requests::default();
    drive::open_loop(sut, &bursts, &mut open, None);
    let last_due = bursts.last().map_or(t0, |b| b.due_ns);
    rep.open_from_ns = t0;
    let drained = drive::drain(
        sut,
        &mut open,
        None,
        w.shape.batch_size,
        last_due + DRAIN_NS,
    );
    check_fault_free(sut, view0, "open loop")?;
    let settled = open.settle(|id| sut.log().commit_ns(id));
    if !drained || settled.lost + settled.duplicated != 0 {
        return Err(fatal(format!(
            "open loop: {} of {} transactions lost, {} duplicated",
            settled.lost, settled.attempted, settled.duplicated
        )));
    }
    rep.attempted += settled.attempted;
    rep.windows = stats::windowed(&settled.samples, t0 + OPEN_DISCARD_NS, WINDOW_NS, 1_000);
    rep.late_ns = std::mem::take(&mut open.late_ns);
    Ok(())
}

/// The same open loop across a leader kill: outage, and exactly-once
/// through it.
fn kill_phase<S: Sut>(
    sut: &mut S,
    w: &Workload,
    rng: &mut Rng,
    view0: u64,
    rep: &mut Rep,
) -> Result<(), RepError> {
    let t0 = sut.now_ns() + 5_000_000;
    let bursts = drive::schedule(
        t0,
        w.period_ns,
        (KILL_PHASE_NS / w.period_ns) as usize,
        w.burst,
        rng,
    );
    let kill_at = t0 + KILL_AT_NS + rng.below(KILL_JITTER_NS + 1);
    let mut killed = None;
    let mut kill = |s: &mut S| killed = Some(s.kill_leader());
    let mut owed = Requests::default();
    drive::open_loop(sut, &bursts, &mut owed, Some((kill_at, &mut kill)));
    let victim = killed.ok_or_else(|| fatal("kill phase ended before the kill"))?;
    rep.killed = victim.ok_or(RepError::Disturbed(
        "replica 0, the measuring replica, led when the kill was due",
    ))?;
    let last_due = bursts.last().map_or(t0, |b| b.due_ns);
    // Whatever the dead leader took with it, and whatever `submit`
    // stranded on a follower while no leader was alive: a transaction
    // still uncommitted two view timeouts after its due instant is
    // resubmitted once, and still timed from that due instant.
    let timeout_ns = w.shape.base_timeout.as_nanos() as u64;
    let drained = drive::drain(
        sut,
        &mut owed,
        Some(2 * timeout_ns),
        10 * w.shape.batch_size,
        last_due + 2 * timeout_ns + DRAIN_NS,
    );
    if sut.max_view() > view0 + 1 {
        // A second view change strands what was resubmitted to the
        // first new leader; one kill should cost one view.
        return Err(RepError::Disturbed(
            "more than one view change after the kill",
        ));
    }
    let settled = owed.settle(|id| sut.log().commit_ns(id));
    if !drained || settled.lost != 0 || sut.log().violations() != 0 {
        return Err(fatal(format!(
            "kill phase: {} of {} transactions lost, {} unknown or double commits",
            settled.lost,
            settled.attempted,
            sut.log().violations()
        )));
    }
    if settled.duplicated != 0 {
        // Original and retry both committed: the original took longer
        // than two view timeouts. That is the retry rule meeting a host
        // stall, not the cluster committing an id twice (checked above).
        return Err(RepError::Disturbed(
            "a request outlived its retry timer and committed twice",
        ));
    }
    rep.attempted += settled.attempted;
    rep.retries = owed.retried();
    if sut.max_view() == view0 {
        return Err(fatal("the leader was killed but no view change followed"));
    }
    let gap = drive::longest_commit_gap(&sut.log().block_instants(), t0, last_due)
        .ok_or_else(|| fatal("kill phase: fewer than two commits"))?;
    rep.outage_ms = gap as f64 / 1e6;
    let timeout_ms = w.shape.base_timeout.as_secs_f64() * 1e3;
    if rep.outage_ms < timeout_ms || rep.outage_ms > 2.0 * timeout_ms {
        return Err(RepError::Disturbed("outage outside [timeout, 2 x timeout]"));
    }
    Ok(())
}

/// Which of the optional phases a repetition runs.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// The open loop at a fixed rate (latency percentiles by window).
    pub open: bool,
    /// The open loop across a leader kill (outage, exactly-once).
    pub kill: bool,
    /// The `/proc` readings that cost milliseconds.
    pub observe: bool,
}

/// Runs the phases of one repetition on a freshly launched `sut`;
/// `launched` is the instant its launch began.
pub fn run_rep<S: Sut>(
    sut: &mut S,
    w: &Workload,
    launched: std::time::Instant,
    rng: &mut Rng,
    phases: Phases,
) -> Result<Rep, RepError> {
    let observe = phases.observe;
    let mut rep = Rep::default();
    let chunk = w.shape.batch_size;

    // Ready: replica 0 has committed the leader's first (empty) block,
    // so every dial is made and every view timer has been re-armed by
    // progress. On one CPU a launch can take longer than the view
    // timeout; whichever view the cluster settled in is the baseline.
    let deadline = sut.now_ns() + READY_NS;
    while sut.log().committed_blocks() == 0 {
        let now = sut.now_ns();
        if now >= deadline {
            return Err(RepError::Disturbed(
                "cluster committed nothing within 3 s of launch",
            ));
        }
        sut.wait_until(now + 2_000_000);
    }
    let view0 = sut.max_view();
    if view0.is_multiple_of(w.shape.n as u64) {
        return Err(RepError::Disturbed(
            "replica 0, the measuring replica, leads after launch",
        ));
    }

    // Warm-up: lazy TCP dials, allocator and caches. Counted as set-up.
    drive::closed_loop(sut, w.warmup_txs, w.closed_window, chunk).map_err(RepError::Disturbed)?;
    rep.setup_s = launched.elapsed().as_secs_f64();
    check_fault_free(sut, view0, "warm-up")?;

    // Goodput: fixed work, closed loop.
    let cpu0 = host::process_cpu_us();
    let ctx0 = observe.then(host::context_switches).flatten();
    let blocks0 = sut.log().committed_blocks();
    let closed_from = sut.now_ns();
    let closed = drive::closed_loop(sut, w.closed_txs, w.closed_window, chunk)
        .map_err(RepError::Disturbed)?;
    let cpu1 = host::process_cpu_us();
    if observe {
        rep.threads = host::thread_count().unwrap_or(0);
        let blocks = (sut.log().committed_blocks() - blocks0).max(1);
        if let (Some(a), Some(b)) = (ctx0, host::context_switches()) {
            rep.ctx_switches_per_block = b.saturating_sub(a) as f64 / blocks as f64;
        }
    }
    let ktps = |txs: u64, ns: u64| txs as f64 / (ns as f64 / 1e9) / 1e3;
    rep.goodput_ktps = ktps(w.closed_txs, closed.elapsed_ns);
    rep.quarter_ktps = closed.quarter_ns.map(|ns| ktps(w.closed_txs / 4, ns));
    rep.decay_ratio = rep.quarter_ktps[3] / rep.quarter_ktps[0];
    rep.slice_ktps = drive::slice_rates(
        &sut.log().blocks_from(blocks0),
        closed_from,
        w.closed_txs / SLICES,
    );
    if let (Some(a), Some(b)) = (cpu0, cpu1) {
        rep.cpu_us_per_tx = (b - a) as f64 / w.closed_txs as f64;
    }
    check_fault_free(sut, view0, "closed loop")?;
    if sut.log().committed_txs() != w.warmup_txs + w.closed_txs {
        return Err(fatal(
            "closed loop committed a different amount than it submitted",
        ));
    }
    rep.attempted = w.warmup_txs + w.closed_txs;

    // Latency: one batch at a time, nothing else in flight.
    let mut serial =
        drive::serial_rounds(sut, w.serial_rounds, chunk).map_err(RepError::Disturbed)?;
    check_fault_free(sut, view0, "serial rounds")?;
    rep.attempted += (w.serial_rounds * chunk) as u64;
    rep.group_p50_ms = drive::group_medians_ms(&serial, SERIAL_GROUP);
    serial.sort_unstable();
    rep.commit_p50_ms = stats::percentile_sorted(&serial, 0.5) as f64 / 1e6;

    if phases.open {
        open_loop_phase(sut, w, rng, view0, &mut rep)?;
    }
    if !phases.kill {
        return Ok(rep);
    }

    kill_phase(sut, w, rng, view0, &mut rep)?;
    Ok(rep)
}
