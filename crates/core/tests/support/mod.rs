//! The zero-latency simulator profile the protocol tests drive: a
//! `SimNet` under `SimConfig::instant()`, observed by the safety oracle
//! and a ledger of committed blocks, start-up traffic drained.
#![allow(dead_code)]

use marlin_core::harness::build_protocol;
use marlin_core::{Config, Protocol, ProtocolKind};
use marlin_simnet::{SimConfig, SimNet};
use marlin_telemetry::{Invariants, SharedSink, Telemetry, TelemetrySink};
use marlin_types::{Block, ReplicaId, View};
use std::cell::RefCell;
use std::rc::Rc;

/// Every rule set, for the tests that run one case per kind.
pub const KINDS: [ProtocolKind; 7] = [
    ProtocolKind::Marlin,
    ProtocolKind::HotStuff,
    ProtocolKind::ChainedMarlin,
    ProtocolKind::ChainedHotStuff,
    ProtocolKind::Jolteon,
    ProtocolKind::TwoPhaseInsecure,
    ProtocolKind::MarlinFourPhase,
];

/// Every block each replica committed, in commit order (genesis
/// excluded) — one of the simulator's telemetry sinks.
#[derive(Clone, Default)]
pub struct Ledger(Rc<RefCell<Vec<Vec<Block>>>>);

impl Ledger {
    /// The blocks `id` committed.
    pub fn blocks(&self, id: ReplicaId) -> Vec<Block> {
        self.0.borrow().get(id.index()).cloned().unwrap_or_default()
    }
}

impl TelemetrySink for Ledger {
    fn record(&mut self, _at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        let Telemetry::Committed(blocks) = event else {
            return;
        };
        let mut chains = self.0.borrow_mut();
        if chains.len() <= replica.index() {
            chains.resize_with(replica.index() + 1, Vec::new);
        }
        chains[replica.index()].extend_from_slice(blocks);
    }
}

/// A started `config.n`-replica cluster of `kind` on the instant
/// profile; the oracle ignores the `byzantine` replicas.
pub fn instant(
    kind: ProtocolKind,
    config: Config,
    byzantine: &[ReplicaId],
) -> (SimNet, Ledger, SharedSink<Invariants>) {
    let replicas = (0..config.n)
        .map(|i| build_protocol(kind, config.with_id(ReplicaId(i as u32))))
        .collect();
    instant_with(replicas, byzantine)
}

/// [`instant`] over caller-built replicas (e.g. journal-backed ones).
pub fn instant_with(
    replicas: Vec<Box<dyn Protocol>>,
    byzantine: &[ReplicaId],
) -> (SimNet, Ledger, SharedSink<Invariants>) {
    let ledger = Ledger::default();
    let invariants = SharedSink::new(Invariants::new(byzantine));
    let sinks = (ledger.clone(), invariants.clone());
    let mut sim = SimNet::with_replicas(replicas, SimConfig::instant(), sinks);
    // Start-up traffic first: a client batch must not interleave with
    // the bootstrap block.
    sim.run_until_idle();
    (sim, ledger, invariants)
}

/// Hands `to` a batch of `count` transactions of `payload_len` bytes
/// now, then runs until idle.
pub fn submit(sim: &mut SimNet, to: ReplicaId, count: usize, payload_len: usize) {
    sim.schedule_client_batch(to, sim.now_ns(), count, payload_len);
    sim.run_until_idle();
}

/// Asserts the oracle has seen no agreement, order, lock or double-vote
/// violation so far (liveness is the test's own business).
pub fn assert_safe(invariants: &SharedSink<Invariants>) {
    let violations = invariants.with(Invariants::violations);
    assert!(
        violations.is_empty(),
        "invariant violations: {violations:?}"
    );
}

fn live_views(sim: &SimNet) -> impl Iterator<Item = View> + '_ {
    let n = sim.replica(ReplicaId(0)).config().n as u32;
    (0..n)
        .map(ReplicaId)
        .filter(|id| !sim.is_crashed(*id))
        .map(|id| sim.replica(id).current_view())
}

/// The lowest view any live replica is in.
pub fn min_view(sim: &SimNet) -> View {
    live_views(sim).min().unwrap_or(View(1))
}

/// The highest view any live replica is in.
pub fn max_view(sim: &SimNet) -> View {
    live_views(sim).max().unwrap_or(View(1))
}
