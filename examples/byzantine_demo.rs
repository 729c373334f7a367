//! The Figure 2 adversary, live: a Byzantine replica hides the newest
//! `prepareQC` during a view change (the *unsafe snapshot*). The
//! insecure two-phase strawman of Section IV-B stalls; Marlin's
//! pre-prepare phase (virtual block + Case R2 vote) recovers and even
//! commits the hidden block.
//!
//! ```text
//! cargo run --example byzantine_demo
//! ```

use marlin_bft::core::{Config, Event, Note, ProtocolKind, VcCase};
use marlin_bft::crypto::QcFormat;
use marlin_bft::simnet::{CommitObserver, SimConfig, SimNet};
use marlin_bft::types::{Block, Justify, Message, MsgBody, Phase, Qc, ReplicaId, View, ViewChange};
use std::cell::RefCell;
use std::rc::Rc;

const P0: ReplicaId = ReplicaId(0);
const P1: ReplicaId = ReplicaId(1);
const P2: ReplicaId = ReplicaId(2);

/// Every block each replica commits, in order.
#[derive(Clone, Default)]
struct Chains(Rc<RefCell<[Vec<Block>; 4]>>);

impl Chains {
    fn of(&self, id: ReplicaId) -> Vec<Block> {
        self.0.borrow()[id.index()].clone()
    }
}

impl CommitObserver for Chains {
    fn on_commit(&mut self, replica: ReplicaId, _now_ns: u64, blocks: &[Block]) {
        self.0.borrow_mut()[replica.index()].extend_from_slice(blocks);
    }
}

/// Builds the decided-but-hidden-block situation: the block at the
/// returned height has a `prepareQC` that only p0 ever saw (p0 is
/// locked on it); the view-1 leader p1 then crashes.
fn build_scenario(kind: ProtocolKind) -> (SimNet, Chains, u64) {
    let mut sim = SimNet::new(kind, Config::for_test(4, 1), SimConfig::instant());
    let chains = Chains::default();
    sim.set_observer(Box::new(chains.clone()));
    sim.run_until_idle(); // the start-up block
    sim.schedule_client_batch(P1, sim.now_ns(), 10, 0);
    sim.run_until_idle();
    let contested = sim.committed_blocks(P0) + 1;

    sim.set_filter(Box::new(move |_from, to, msg: &Message| match &msg.body {
        MsgBody::Proposal(p) if p.phase == Phase::Prepare => {
            !(p.blocks.first().is_some_and(|b| b.height().0 == contested) && to == P2)
        }
        MsgBody::Proposal(p) if p.phase == Phase::Commit => {
            let hit = p.justify.qc().is_some_and(|qc| qc.height().0 == contested);
            !hit || to == P0
        }
        _ => true,
    }));
    sim.schedule_client_batch(P1, sim.now_ns(), 10, 0);
    sim.run_until_idle();
    sim.crash(P1);
    // The unsafe snapshot: p0's VIEW-CHANGE (carrying the hidden QC)
    // never reaches the new leader.
    sim.set_filter(Box::new(|from, _to, msg: &Message| {
        !(from == P0 && matches!(msg.body, MsgBody::ViewChange(_)))
    }));
    (sim, chains, contested)
}

/// The Byzantine replica's stale VIEW-CHANGE: it hides the contested QC
/// and reports an old last-voted block.
fn byzantine_view_change(chains: &Chains, cfg: &Config, view: View) -> Message {
    let stale = chains.of(P0).last().expect("committed").clone();
    let seed = stale.vote_seed(Phase::Prepare, View(1));
    let partials: Vec<_> = (0..3)
        .map(|i| cfg.keys.signer(i).sign_partial(&seed.signing_bytes()))
        .collect();
    let qc = Qc::combine(seed, &partials, &cfg.keys, QcFormat::Threshold).expect("quorum");
    let parsig = cfg
        .keys
        .signer(1)
        .sign_partial(&ViewChange::happy_seed(&stale.meta(), view).signing_bytes());
    Message::new(
        P1,
        view,
        MsgBody::ViewChange(ViewChange {
            last_voted: stale.meta(),
            high_qc: Justify::One(qc),
            parsig,
            cert: None,
        }),
    )
}

fn run(kind: ProtocolKind) -> (u64, bool, bool) {
    let cfg = Config::for_test(4, 1);
    let (mut sim, chains, contested) = build_scenario(kind);
    while [0, 2, 3]
        .map(ReplicaId)
        .iter()
        .any(|&id| sim.replica(id).current_view() < View(2))
    {
        assert!(sim.fire_next_timer());
    }
    sim.run_until_idle();
    let stale = byzantine_view_change(&chains, &cfg, View(2));
    sim.inject(P2, Event::Message(stale));
    let committed = sim.committed_txs(P2);
    let contested_committed = chains.of(P2).iter().any(|b| b.height().0 == contested);
    let used_virtual = sim.notes().iter().any(|(_, _, n)| {
        matches!(
            n,
            Note::UnhappyPathVc {
                case: VcCase::V1,
                ..
            }
        )
    });
    (committed, contested_committed, used_virtual)
}

fn main() {
    println!("Scenario (paper Fig. 2): a block's prepareQC is known only to p0;");
    println!("the leader crashes; the Byzantine replica reports stale state and");
    println!("p0's VIEW-CHANGE is suppressed — the new leader's snapshot is UNSAFE.\n");

    let (txs, contested, virt) = run(ProtocolKind::TwoPhaseInsecure);
    println!("two-phase strawman (Sec. IV-B):");
    println!("  committed after the view change: {txs} txs (of 20 submitted)");
    println!("  hidden block recovered: {contested}");
    assert!(!contested, "the strawman should stall");

    let (txs, contested, virt2) = run(ProtocolKind::Marlin);
    println!("\nMarlin:");
    println!("  committed after the view change: {txs} txs (of 20 submitted)");
    println!("  hidden block recovered: {contested} (via a virtual block: {virt2})");
    assert!(contested && txs >= 20, "Marlin must recover");
    let _ = virt;

    println!(
        "\nMarlin's pre-prepare phase let the locked replica p0 vote for the \
virtual block\n(Case R2) and attach its lockedQC — unlocking the system in one \
linear round where\nthe strawman was stuck waiting for a leader that would \
never learn the hidden QC."
    );
}
