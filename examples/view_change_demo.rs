//! View-change demonstration on the simulated paper testbed (40 ms
//! links): crash the leader and watch Marlin's two-phase **happy path**
//! and, with a partial network, the three-phase **unhappy path** with
//! its virtual block (paper Section V-C).
//!
//! ```text
//! cargo run --example view_change_demo
//! ```

use marlin_bft::core::{Config, Note, ProtocolKind};
use marlin_bft::simnet::{SimConfig, SimNet};
use marlin_bft::types::{Message, MsgBody, Phase, ReplicaId};

fn trace(sim: &SimNet, from_ns: u64) {
    let mut lines = 0;
    for (at, id, note) in sim.notes() {
        if *at < from_ns {
            continue;
        }
        lines += 1;
        if lines > 24 {
            println!("  …");
            break;
        }
        let what = match note {
            Note::EnteredView { view, leader } => {
                format!(
                    "entered view {view}{}",
                    if *leader { " as leader" } else { "" }
                )
            }
            Note::ViewChangeStarted { from_view } => format!("timed out of view {from_view}"),
            Note::HappyPathVc { view } => format!("HAPPY-PATH view change into view {view}"),
            Note::UnhappyPathVc { view, case } => {
                format!("UNHAPPY-PATH view change into view {view} (leader case {case:?})")
            }
            Note::QcFormed {
                phase,
                view,
                height,
            } => {
                format!("formed {phase:?} QC (view {view}, height {height})")
            }
            Note::Committed { height, txs } => {
                format!("committed up to height {height} ({txs} txs)")
            }
            Note::CommitConflict { block } => {
                format!("COMMIT CONFLICT: certified block {block} contradicts the chain")
            }
            Note::VoteWithheld { phase } => {
                format!("withheld {phase:?} vote (journal append failed)")
            }
            Note::Proposed {
                view,
                height,
                phase,
            } => {
                format!("proposed {phase:?} block (view {view}, height {height})")
            }
            Note::FirstVote {
                phase,
                view,
                height,
            } => {
                format!("first {phase:?} vote received (view {view}, height {height})")
            }
            Note::JournalWrite { appends, bytes, .. } => {
                format!("journaled {appends} records ({bytes} B)")
            }
            Note::CatchUpRequested { view } => format!("requested catch-up (view {view})"),
            Note::CatchUpServed { view, newer } => {
                format!("served catch-up from view {view} (newer: {newer})")
            }
            Note::CatchUpCompleted { view } => format!("caught up (view {view})"),
            // Block-sync and payload-plane notes never fire here: this
            // demo runs no lagging replica, and sync, admission control,
            // and dissemination are all disabled by default.
            Note::SyncStarted { .. }
            | Note::SyncSnapshotInstalled { .. }
            | Note::SyncRangeFetched { .. }
            | Note::SyncPeerDemoted { .. }
            | Note::SyncCompleted { .. }
            | Note::SyncAbandoned { .. }
            | Note::MempoolAdmission { .. }
            | Note::PayloadPushed { .. }
            | Note::PayloadQuorum { .. }
            | Note::PayloadFetched { .. }
            | Note::PayloadExpired { .. } => continue,
        };
        println!("  {:>8.1} ms  {}  {}", *at as f64 / 1e6, id, what);
    }
}

fn run(title: &str, force_unhappy: bool) {
    println!("\n=== {title} ===");
    let mut config = Config::for_test(4, 1);
    // A view timeout comfortably above the 40 ms-per-hop view-change
    // round trip, as any deployment on this network would use.
    config.base_timeout_ns = 500_000_000;
    let mut sim = SimNet::new(ProtocolKind::Marlin, config, SimConfig::paper_testbed());
    let leader = ReplicaId(1);
    sim.schedule_client_batch(leader, 0, 20, 150);
    sim.run_until(1_000_000_000);

    if force_unhappy {
        // Hide the next block's PREPARE from p3 and suppress its commit
        // phase: the replicas' last-voted blocks now diverge, so the new
        // leader cannot take the happy path (the paper's Figure 2).
        sim.set_filter(Box::new(|_f, to, msg: &Message| match &msg.body {
            MsgBody::Proposal(p) if p.phase == Phase::Prepare && !p.blocks.is_empty() => {
                to != ReplicaId(3)
            }
            MsgBody::Proposal(p) if p.phase == Phase::Commit => false,
            MsgBody::Decide(_) => false,
            _ => true,
        }));
        sim.schedule_client_batch(leader, 1_000_000_000, 20, 150);
        sim.run_until(1_400_000_000);
        sim.clear_filter();
    }

    let crash_at = 1_500_000_000;
    println!(
        "crashing the view-1 leader {leader} at {:.0} ms…",
        crash_at as f64 / 1e6
    );
    sim.schedule_crash(leader, crash_at);
    sim.run_until(3_200_000_000);
    trace(&sim, crash_at);
}

fn main() {
    run(
        "happy path: unanimous last-voted blocks → two-phase view change",
        false,
    );
    run(
        "unhappy path: divergent snapshot → pre-prepare phase with a virtual block",
        true,
    );
    println!(
        "\nIn the happy path the new leader combines the VIEW-CHANGE partial \
signatures directly into a prepareQC (2 phases).\nIn the unhappy path it runs \
the pre-prepare phase — Case V1 proposes a normal and a virtual shadow block \
so locked replicas can vote too (3 phases, still linear)."
    );
}
