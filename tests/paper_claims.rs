//! Regression tests pinning the paper's headline claims to the
//! simulated testbed: if a protocol change breaks one of the shapes the
//! paper reports, these fail.

use marlin_bft::core::ProtocolKind;
use marlin_bft::crypto::QcFormat;
use marlin_bft::simnet::SimConfig;

// The view-change measurement helpers live in the bench harness; these
// tests re-derive the two cheap ones inline to avoid a dev-dependency
// cycle, using the same construction as `marlin-bench::vc`.

use marlin_bft::core::Config;
use marlin_bft::simnet::SimNet;
use marlin_bft::telemetry::{SharedSink, ViewChanges};
use marlin_bft::types::ReplicaId;

/// Crash the view-1 leader after one committed batch; return
/// (vc latency at p0, window bytes, window authenticators, happy path?).
fn crash_and_measure(protocol: ProtocolKind, f: usize, format: QcFormat) -> (u64, u64, u64, bool) {
    let n = 3 * f + 1;
    let mut cfg = Config::for_test(n, f);
    cfg.qc_format = format;
    cfg.base_timeout_ns = 400_000_000;
    let meter = SharedSink::new(ViewChanges::new());
    let mut sim = SimNet::new(protocol, cfg, SimConfig::paper_testbed(), meter.clone());
    sim.schedule_client_batch(ReplicaId(1), 0, 50, 150);
    let mut t = 0;
    while sim.committed_txs(ReplicaId(0)) < 50 {
        t += 100_000_000;
        assert!(t < 10_000_000_000, "{protocol:?}: setup never committed");
        sim.run_until(t);
    }
    let crash_at = t + 1_000_000;
    sim.schedule_crash(ReplicaId(1), crash_at);
    sim.run_until(crash_at);
    let window = meter.with(ViewChanges::mark);
    let before = sim.committed_blocks(ReplicaId(0));
    let mut deadline = crash_at;
    while sim.committed_blocks(ReplicaId(0)) == before {
        deadline += 100_000_000;
        assert!(
            deadline < crash_at + 20_000_000_000,
            "{protocol:?}: VC never completed"
        );
        sim.run_until(deadline);
    }
    let window = meter.with(|meter| meter.windows()[window].clone());
    let total = window.traffic.total();
    (
        window
            .latency_ns(ReplicaId(0))
            .expect("p0 timed out and committed"),
        total.bytes,
        total.authenticators,
        window.happy,
    )
}

/// Paper Fig. 10i: Marlin's happy-path view change is substantially
/// faster than HotStuff's (the paper reports 30–40% lower latency).
#[test]
fn happy_path_view_change_beats_hotstuff() {
    for f in [1usize, 2] {
        let (marlin, _, _, happy) = crash_and_measure(ProtocolKind::Marlin, f, QcFormat::SigGroup);
        assert!(happy, "expected the happy path at f={f}");
        let (hotstuff, _, _, _) = crash_and_measure(ProtocolKind::HotStuff, f, QcFormat::SigGroup);
        let gain = 1.0 - marlin as f64 / hotstuff as f64;
        assert!(
            gain > 0.15,
            "f={f}: expected ≥15% faster view change, got {:.1}% ({marlin}ns vs {hotstuff}ns)",
            gain * 100.0
        );
    }
}

/// Table I: Marlin's view change stays linear in n while Jolteon's is
/// quadratic — the measured byte ratio between n=16 and n=4 must be
/// roughly 4× for Marlin and clearly super-linear for Jolteon.
#[test]
fn view_change_scaling_is_linear_for_marlin_quadratic_for_jolteon() {
    let bytes = |protocol, f| crash_and_measure(protocol, f, QcFormat::Threshold).1 as f64;
    let marlin_ratio = bytes(ProtocolKind::Marlin, 5) / bytes(ProtocolKind::Marlin, 1);
    let jolteon_ratio = bytes(ProtocolKind::Jolteon, 5) / bytes(ProtocolKind::Jolteon, 1);
    // n grows 4× (4 → 16): linear ≈ 4–8×, quadratic ≈ 16×.
    assert!(
        marlin_ratio < 9.0,
        "Marlin view-change bytes grew {marlin_ratio:.1}× for 4× replicas"
    );
    assert!(
        jolteon_ratio > marlin_ratio * 1.4,
        "Jolteon ({jolteon_ratio:.1}×) should scale clearly worse than Marlin ({marlin_ratio:.1}×)"
    );
}

/// Table I: with threshold signatures, Marlin's view change uses O(n)
/// authenticators; Jolteon's uses O(n²).
#[test]
fn authenticator_complexity_matches_table1() {
    let auths = |protocol, f| crash_and_measure(protocol, f, QcFormat::Threshold).2 as f64;
    let marlin_ratio = auths(ProtocolKind::Marlin, 5) / auths(ProtocolKind::Marlin, 1);
    let jolteon_ratio = auths(ProtocolKind::Jolteon, 5) / auths(ProtocolKind::Jolteon, 1);
    assert!(
        marlin_ratio < 9.0,
        "Marlin authenticators grew {marlin_ratio:.1}×"
    );
    assert!(
        jolteon_ratio > 9.0,
        "Jolteon authenticators grew only {jolteon_ratio:.1}×"
    );
}
