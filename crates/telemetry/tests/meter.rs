//! The view-change meter on hand-built observation streams, with no
//! replica anywhere: each stream is what a driver would record.

use marlin_telemetry::{Counters, Note, Telemetry, TelemetrySink, ViewChanges};
use marlin_types::{Block, BlockId, Height, Message, MsgBody, MsgClass, Phase, ReplicaId, View};

fn sent(meter: &mut ViewChanges, replica: u32, class: MsgClass, bytes: u64, authenticators: u64) {
    let event = Telemetry::Sent {
        class,
        bytes,
        authenticators,
    };
    meter.record(0, ReplicaId(replica), event);
}

fn timeout(meter: &mut ViewChanges, at_ns: u64, replica: u32, from_view: u64) {
    let note = Note::ViewChangeStarted {
        from_view: View(from_view),
    };
    meter.note(at_ns, ReplicaId(replica), &note);
}

fn commit(meter: &mut ViewChanges, at_ns: u64, replica: u32) {
    let blocks = [Block::genesis()];
    meter.record(at_ns, ReplicaId(replica), Telemetry::Committed(&blocks));
}

#[test]
fn a_window_sums_its_traffic_per_class() {
    let mut meter = ViewChanges::new();
    let window = meter.mark();
    sent(&mut meter, 0, MsgClass::Fetch, 45, 0);
    sent(&mut meter, 1, MsgClass::Fetch, 45, 0);
    sent(&mut meter, 1, MsgClass::ViewChange, 100, 1);
    let traffic = &meter.windows()[window].traffic;
    let total = Counters {
        messages: 3,
        bytes: 190,
        authenticators: 1,
    };
    assert_eq!(traffic.total(), total);
    assert_eq!(traffic.class(MsgClass::Fetch).messages, 2);
    assert_eq!(traffic.class(MsgClass::Decide), Counters::default());
}

#[test]
fn catch_up_and_sync_traffic_stay_out_of_the_protocol_total() {
    // S1 regression: recovery traffic (catch-up requests/responses, and
    // ranged sync) classifies as `CatchUp`/`Sync`, not `Fetch`, and
    // never leaks into the protocol-total count.
    let req = Message::new(
        ReplicaId(2),
        View(7),
        MsgBody::CatchUpRequest {
            last_committed: Height(0),
        },
    );
    assert_eq!(MsgClass::of(&req), MsgClass::CatchUp);
    let mut meter = ViewChanges::new();
    meter.mark();
    let auths = req.authenticator_count() as u64;
    sent(&mut meter, 2, MsgClass::of(&req), 64, auths);
    // A catch-up response carries a commitQC (one threshold
    // authenticator); a sync response carries certificates too.
    sent(&mut meter, 0, MsgClass::CatchUp, 176, 1);
    sent(&mut meter, 0, MsgClass::Sync, 500, 1);
    let traffic = &meter.windows()[0].traffic;
    assert_eq!(traffic.protocol_total(), Counters::default());
    assert_eq!(traffic.total().authenticators, auths + 2);

    // Plain fetch traffic still counts toward the protocol total.
    let fetch = Message::new(
        ReplicaId(0),
        View(1),
        MsgBody::FetchRequest {
            block: BlockId::GENESIS,
        },
    );
    sent(&mut meter, 0, MsgClass::of(&fetch), 45, 0);
    let traffic = &meter.windows()[0].traffic;
    assert_eq!(traffic.protocol_total().messages, 1);
    assert_eq!(traffic.total().messages, 4);
    assert_eq!(traffic.class(MsgClass::CatchUp).messages, 2);
    assert_eq!(traffic.class(MsgClass::Fetch).messages, 1);
    assert_eq!(MsgClass::of(&fetch).to_string(), "fetch");
    assert_eq!(MsgClass::Vote(Phase::Prepare).to_string(), "vote/Prepare");
}

#[test]
fn nothing_is_counted_before_the_first_window() {
    let mut meter = ViewChanges::new();
    sent(&mut meter, 0, MsgClass::Decide, 10, 1);
    commit(&mut meter, 5, 0);
    assert_eq!(meter.windows(), []);
    timeout(&mut meter, 10, 0, 1);
    sent(&mut meter, 0, MsgClass::ViewChange, 20, 1);
    let windows = meter.windows();
    assert_eq!(windows.len(), 1);
    assert_eq!(windows[0].traffic.total().messages, 1);
}

#[test]
fn a_marked_window_takes_the_view_of_the_first_timeout_after_it() {
    let mut meter = ViewChanges::new();
    timeout(&mut meter, 0, 0, 1);
    sent(&mut meter, 0, MsgClass::ViewChange, 20, 1);
    // A fresh window starts from zero and has no view yet.
    let marked = meter.mark();
    assert_eq!(marked, 1);
    assert_eq!(meter.windows()[marked].view, None);
    assert_eq!(meter.windows()[marked].traffic.total(), Counters::default());
    timeout(&mut meter, 10, 1, 3);
    timeout(&mut meter, 11, 2, 3);
    let windows = meter.windows();
    assert_eq!(windows.len(), 2, "the marked window adopted view 3");
    assert_eq!(windows[0].view, Some(View(1)));
    assert_eq!(windows[marked].view, Some(View(3)));
}

#[test]
fn only_a_timeout_of_a_higher_view_opens_a_new_window() {
    let mut meter = ViewChanges::new();
    timeout(&mut meter, 0, 0, 2);
    timeout(&mut meter, 1, 1, 2); // same view: same window
    timeout(&mut meter, 2, 2, 1); // a laggard's lower view: same window
    sent(&mut meter, 2, MsgClass::ViewChange, 20, 1);
    timeout(&mut meter, 3, 0, 3); // higher: a new window
    sent(&mut meter, 0, MsgClass::ViewChange, 30, 1);
    sent(&mut meter, 1, MsgClass::ViewChange, 30, 1);
    let windows = meter.windows();
    let views: Vec<_> = windows.iter().map(|w| w.view).collect();
    assert_eq!(views, [Some(View(2)), Some(View(3))]);
    assert_eq!(windows[0].traffic.total().messages, 1);
    assert_eq!(windows[1].traffic.total().messages, 2);
}

#[test]
fn latency_runs_from_each_replicas_own_timeout_to_its_own_first_commit() {
    let mut meter = ViewChanges::new();
    timeout(&mut meter, 100, 0, 1);
    timeout(&mut meter, 130, 2, 1);
    timeout(&mut meter, 150, 0, 1); // a repeat: the first one counts
    commit(&mut meter, 300, 2); // the new leader commits first
    commit(&mut meter, 340, 0);
    commit(&mut meter, 400, 0);
    commit(&mut meter, 350, 3); // committed, never timed out
    let window = &meter.windows()[0];
    assert_eq!(window.latency_ns(ReplicaId(0)), Some(240));
    assert_eq!(window.latency_ns(ReplicaId(2)), Some(170));
    assert_eq!(window.latency_ns(ReplicaId(3)), None);
    assert_eq!(window.latency_ns(ReplicaId(1)), None);
}

#[test]
fn the_first_commit_keeps_a_copy_of_the_traffic_so_far() {
    let mut meter = ViewChanges::new();
    timeout(&mut meter, 0, 0, 1);
    sent(&mut meter, 0, MsgClass::ViewChange, 20, 1);
    assert_eq!(meter.windows()[0].at_first_commit, None);
    sent(&mut meter, 2, MsgClass::Proposal(Phase::Prepare), 200, 3);
    commit(&mut meter, 10, 2);
    sent(&mut meter, 2, MsgClass::Decide, 90, 3);
    commit(&mut meter, 11, 0);
    let window = &meter.windows()[0];
    let first = window.at_first_commit.as_ref().expect("a commit");
    assert_eq!(first.total().authenticators, 4);
    assert_eq!(first.class(MsgClass::Decide), Counters::default());
    assert_eq!(window.traffic.total().authenticators, 7);
}

#[test]
fn happy_is_set_by_a_happy_path_view_change_only() {
    let mut meter = ViewChanges::new();
    timeout(&mut meter, 0, 0, 1);
    let unhappy = Note::UnhappyPathVc {
        view: View(2),
        case: marlin_telemetry::VcCase::V1,
    };
    meter.note(1, ReplicaId(2), &unhappy);
    timeout(&mut meter, 2, 0, 2);
    meter.note(3, ReplicaId(3), &Note::HappyPathVc { view: View(3) });
    let happy: Vec<bool> = meter.windows().iter().map(|w| w.happy).collect();
    assert_eq!(happy, [false, true]);
}
