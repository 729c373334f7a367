//! The zero-latency simulator profile the protocol tests drive: a
//! `SimNet` under `SimConfig::instant()`, start-up traffic drained, the
//! global invariant checker attached, and a ledger of committed blocks.
#![allow(dead_code)]

use marlin_core::{Config, Protocol, ProtocolKind};
use marlin_simnet::{CommitObserver, Invariants, SimConfig, SimNet};
use marlin_types::{Block, ReplicaId, View};
use std::cell::RefCell;
use std::rc::Rc;

/// Every block each replica committed, in commit order (genesis
/// excluded) — read through the simulator's commit observer.
#[derive(Clone, Default)]
pub struct Ledger(Rc<RefCell<Vec<Vec<Block>>>>);

impl Ledger {
    /// The blocks `id` committed.
    pub fn blocks(&self, id: ReplicaId) -> Vec<Block> {
        self.0.borrow().get(id.index()).cloned().unwrap_or_default()
    }
}

impl CommitObserver for Ledger {
    fn on_commit(&mut self, replica: ReplicaId, _now_ns: u64, blocks: &[Block]) {
        let mut chains = self.0.borrow_mut();
        if chains.len() <= replica.index() {
            chains.resize_with(replica.index() + 1, Vec::new);
        }
        chains[replica.index()].extend_from_slice(blocks);
    }
}

/// A started `config.n`-replica cluster of `kind` on the instant
/// profile; the checker ignores the `byzantine` replicas.
pub fn instant(
    kind: ProtocolKind,
    config: Config,
    byzantine: &[ReplicaId],
) -> (SimNet, Ledger, Invariants) {
    let sim = SimNet::new(kind, config, SimConfig::instant());
    attach(sim, byzantine)
}

/// [`instant`] over caller-built replicas (e.g. journal-backed ones).
pub fn instant_with(
    replicas: Vec<Box<dyn Protocol>>,
    byzantine: &[ReplicaId],
) -> (SimNet, Ledger, Invariants) {
    attach(
        SimNet::with_replicas(replicas, SimConfig::instant()),
        byzantine,
    )
}

fn attach(mut sim: SimNet, byzantine: &[ReplicaId]) -> (SimNet, Ledger, Invariants) {
    let ledger = Ledger::default();
    let invariants = Invariants::new(byzantine, u64::MAX);
    sim.set_observer(Box::new(ledger.clone()));
    sim.set_invariant_checker(Box::new(invariants.clone()));
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

/// Asserts the checker has seen no agreement, prefix, lock or
/// double-vote violation so far (liveness is the test's own business).
pub fn assert_safe(invariants: &Invariants) {
    let violations = invariants.violations();
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
