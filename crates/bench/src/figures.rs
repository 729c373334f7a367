//! Figure-regeneration drivers (Fig. 10a–j and the ablations).

use crate::Effort;
use marlin_core::ProtocolKind;
use marlin_crypto::QcFormat;
use marlin_simnet::{run_experiment, ExperimentConfig, Metrics, SimConfig, SweepPoint};
use marlin_types::ReplicaId;

/// Builds the paper-testbed experiment configuration for one protocol
/// and fault level at the given effort.
pub fn paper_config(protocol: ProtocolKind, f: usize, effort: Effort) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(protocol, f);
    cfg.duration_ns = effort.duration_ns();
    cfg.warmup_ns = effort.warmup_ns();
    cfg
}

/// The offered-load ladder used for the throughput/latency sweeps.
pub fn rate_ladder(f: usize, effort: Effort) -> Vec<u64> {
    // Larger systems saturate earlier (NIC egress pressure); the ladder
    // tops out modestly above the expected peak so the hockey stick is
    // visible without flooding the mempool.
    let top: u64 = match f {
        0..=1 => 64_000,
        2 => 52_000,
        3..=5 => 40_000,
        6..=10 => 24_000,
        11..=20 => 16_000,
        _ => 12_000,
    };
    let steps = match effort {
        Effort::Quick => 4,
        Effort::Full => 8,
    };
    (1..=steps).map(|i| top * i as u64 / steps as u64).collect()
}

/// Fig. 10a–f: the throughput-vs-latency curve for one protocol at one
/// fault level.
pub fn throughput_vs_latency(protocol: ProtocolKind, f: usize, effort: Effort) -> Vec<SweepPoint> {
    let cfg = paper_config(protocol, f, effort);
    marlin_simnet::sweep_peak_throughput(&cfg, &rate_ladder(f, effort))
}

/// Fig. 10g: peak throughput — the highest measured committed rate over
/// the sweep.
pub fn peak_throughput(protocol: ProtocolKind, f: usize, effort: Effort) -> Metrics {
    let points = throughput_vs_latency(protocol, f, effort);
    points
        .into_iter()
        .map(|p| p.metrics)
        .max_by(|a, b| a.throughput_tps.total_cmp(&b.throughput_tps))
        .expect("sweep is nonempty")
}

/// Fig. 10h: peak throughput with no-op requests (empty payloads).
pub fn peak_throughput_noop(protocol: ProtocolKind, f: usize, effort: Effort) -> Metrics {
    let mut cfg = paper_config(protocol, f, effort);
    cfg.payload_len = 0;
    rate_ladder(f, effort)
        .iter()
        .map(|&rate| {
            let mut c = cfg.clone();
            c.rate_tps = rate * 2; // no-ops go further
            run_experiment(&c)
        })
        .max_by(|a, b| a.throughput_tps.total_cmp(&b.throughput_tps))
        .expect("sweep is nonempty")
}

/// Fig. 10j: rotating-leader mode at `f = 3` with `crashes` replicas
/// crashed at the start (the paper crashes 0, 1, or 3).
pub fn rotating_under_failures(
    protocol: ProtocolKind,
    crashes: usize,
    rate_tps: u64,
    effort: Effort,
) -> Metrics {
    let f = 3;
    let mut cfg = paper_config(protocol, f, effort);
    cfg.config.rotation_interval_ns = Some(1_000_000_000); // the paper's 1 s timer
    cfg.config.base_timeout_ns = 1_000_000_000;
    cfg.rate_tps = rate_tps;
    // Smaller batches so several blocks fit into each 1 s leader slot
    // (less per-view quantization).
    cfg.config.batch_size = 4_000;
    // Make sure the run covers enough rotations that crashed leaders'
    // slots fall inside the measurement window.
    cfg.duration_ns = cfg.duration_ns.max(6_000_000_000);
    // Crash replicas whose leader turns come up early (but not the
    // view-1 leader), spread out so live views separate the failed
    // slots (consecutive failed views would compound the timeout
    // backoff) — the paper's "crash 1 or 3 replicas at the beginning".
    cfg.crashes = (0..crashes as u32)
        .map(|k| (ReplicaId(2 + 2 * k), 0u64))
        .collect();
    run_experiment(&cfg)
}

/// Ablation A1: bytes of an unhappy view change with and without the
/// shadow-block wire optimisation.
pub fn ablate_shadow_blocks(f: usize) -> (u64, u64) {
    let run = |shadow: bool| {
        let mut net = SimConfig::paper_testbed();
        net.shadow_blocks = shadow;
        let m = crate::vc::measure_view_change_with_preload(
            ProtocolKind::Marlin,
            f,
            true,
            QcFormat::Threshold,
            net,
            4_000,
        );
        assert!(!m.window.happy, "shadow ablation requires the unhappy path");
        m.window.traffic.protocol_total().bytes
    };
    (run(true), run(false))
}

/// Ablation A3: the paper's Section IV-D argument for virtual blocks,
/// measured: view-change latency of Marlin's happy path (2 phases),
/// Marlin's unhappy path (3 phases, thanks to virtual blocks), HotStuff
/// (3 phases), and the "half-baked" four-phase design (pre-prepare
/// without virtual blocks + a three-phase commit).
pub fn ablate_four_phase(f: usize) -> [(String, u64); 4] {
    let m = |protocol, unhappy| {
        crate::vc::measure_view_change(
            protocol,
            f,
            unhappy,
            QcFormat::SigGroup,
            SimConfig::paper_testbed(),
        )
        .latency_ns
    };
    [
        ("marlin (happy)".to_string(), m(ProtocolKind::Marlin, false)),
        (
            "marlin (unhappy)".to_string(),
            m(ProtocolKind::Marlin, true),
        ),
        ("hotstuff".to_string(), m(ProtocolKind::HotStuff, false)),
        (
            "four-phase (no virtual blocks)".to_string(),
            m(ProtocolKind::MarlinFourPhase, false),
        ),
    ]
}

/// Ablation A2: the signature-group vs threshold-signature trade the
/// paper discusses (Section I): groups of conventional signatures avoid
/// pairings (cheap CPU) but cost `n × 64` wire bytes per certificate;
/// threshold signatures are constant-size but pairing-heavy. Returns
/// the measured view-change windows under each format.
pub fn ablate_qc_format(f: usize) -> (crate::vc::VcMeasurement, crate::vc::VcMeasurement) {
    let run = |format: QcFormat| {
        crate::vc::measure_view_change(
            ProtocolKind::Marlin,
            f,
            true,
            format,
            SimConfig::paper_testbed(),
        )
    };
    (run(QcFormat::SigGroup), run(QcFormat::Threshold))
}

/// Ablation A4: the verification stack. The paper testbed's 40 ms WAN
/// links hide CPU — verification is never the bottleneck there — so
/// this ablation measures where it is: LAN links, small (32-tx)
/// blocks, ECDSA-like costs. Contrasts the legacy serial stack
/// (per-share verification on one inline worker) against staged batch
/// verification on a 4-worker pool; returns `(serial, batched)` peak
/// metrics over the same offered-load ladder.
pub fn ablate_batch_crypto(f: usize, effort: Effort) -> (Metrics, Metrics) {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Marlin, f);
    cfg.net = SimConfig::lan();
    cfg.config.batch_size = 32;
    cfg.duration_ns = effort.duration_ns();
    cfg.warmup_ns = effort.warmup_ns();
    let rates: Vec<u64> = match effort {
        Effort::Quick => vec![24_000, 48_000, 72_000, 96_000],
        Effort::Full => vec![
            16_000, 32_000, 48_000, 64_000, 80_000, 96_000, 112_000, 128_000,
        ],
    };
    let peak = |cfg: &ExperimentConfig| {
        marlin_simnet::sweep_peak_throughput(cfg, &rates)
            .into_iter()
            .map(|p| p.metrics)
            .max_by(|a, b| a.throughput_tps.total_cmp(&b.throughput_tps))
            .expect("sweep is nonempty")
    };
    let mut serial = cfg.clone();
    serial.config.batch_verify = false;
    serial.config.crypto_workers = 1;
    let mut batched = cfg;
    batched.config.batch_verify = true;
    batched.config.crypto_workers = 4;
    (peak(&serial), peak(&batched))
}

/// One side of the saturation contrast: the peak of the offered-load
/// sweep and a run at twice the peak's offered rate.
pub struct OverloadPoint {
    /// Offered rate at which the sweep peaked.
    pub peak_rate: u64,
    /// Metrics at the peak.
    pub peak: Metrics,
    /// Offered rate of the overload run (2× the peak rate).
    pub overload_rate: u64,
    /// Metrics at 2× the peak rate.
    pub overload: Metrics,
}

impl OverloadPoint {
    /// Overload goodput as a fraction of peak goodput.
    pub fn retention(&self) -> f64 {
        if self.peak.throughput_tps == 0.0 {
            return 0.0;
        }
        self.overload.throughput_tps / self.peak.throughput_tps
    }
}

/// Applies the client-path knobs: bounded admission (capacity = one
/// batch) and digest dissemination. The legacy configuration keeps the
/// unbounded queue and inline payloads.
pub fn client_path_config(f: usize, effort: Effort) -> ExperimentConfig {
    let mut cfg = paper_config(ProtocolKind::Marlin, f, effort);
    cfg.config.mempool_capacity = cfg.config.batch_size;
    cfg.config.dissemination = true;
    cfg
}

/// The saturation experiment behind the mempool section: sweep the
/// offered-load ladder for the peak, then offer twice the peak rate and
/// measure what survives. The legacy inline path collapses past
/// saturation (its unbounded mempool accumulates a backlog that
/// displaces fresh transactions); bounded admission plus digest
/// dissemination holds goodput at the plateau.
pub fn overload_contrast(f: usize, effort: Effort, bounded: bool) -> OverloadPoint {
    let cfg = if bounded {
        client_path_config(f, effort)
    } else {
        paper_config(ProtocolKind::Marlin, f, effort)
    };
    let points = marlin_simnet::sweep_peak_throughput(&cfg, &rate_ladder(f, effort));
    let best = points
        .into_iter()
        .max_by(|a, b| {
            a.metrics
                .throughput_tps
                .total_cmp(&b.metrics.throughput_tps)
        })
        .expect("sweep is nonempty");
    let overload_rate = best.rate_tps * 2;
    let mut over_cfg = cfg;
    over_cfg.rate_tps = overload_rate;
    OverloadPoint {
        peak_rate: best.rate_tps,
        peak: best.metrics,
        overload_rate,
        overload: run_experiment(&over_cfg),
    }
}
