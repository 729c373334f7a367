//! The f+1 view join, for all seven rule sets: a replica joins the
//! highest view that `f + 1` distinct members have attested above its
//! own. A future VIEW-CHANGE attests its view only once its share
//! verifies for the sender it names; a CATCH-UP response's header view
//! rests on the link's binding of its sender. Either way an id outside
//! the cluster attests nothing.
//!
//! Each case steps one victim (n = 4, f = 1) directly, with frames
//! signed by `Config::for_test`'s keys.

mod support;

use marlin_core::{build_replica, Config, Event, ProtocolKind};
use marlin_types::{BlockMeta, Justify, Message, MsgBody, ReplicaId, View, ViewChange};
use support::KINDS;

const VICTIM: ReplicaId = ReplicaId(2);

/// A genesis-state VIEW-CHANGE for `view` that claims sender `from`,
/// carrying a share that key `key` signed over `signed`.
fn view_change(cfg: &Config, key: usize, from: u32, view: View, signed: &[u8]) -> Event {
    let body = MsgBody::ViewChange(ViewChange {
        last_voted: BlockMeta::genesis(),
        high_qc: Justify::None,
        parsig: cfg.keys.signer(key).sign_partial(signed),
        cert: None,
    });
    Event::Message(Message::new(ReplicaId(from), view, body))
}

/// The happy-path seed bytes a genesis-state sender signs for `view`.
fn happy(view: View) -> [u8; 32] {
    ViewChange::happy_seed(&BlockMeta::genesis(), view).signing_bytes()
}

/// A VIEW-CHANGE from member `from`, signed as an honest one is.
fn genuine(cfg: &Config, from: u32, view: View) -> Event {
    view_change(cfg, from as usize, from, view, &happy(view))
}

/// An unsigned CATCH-UP response at `view` claiming sender `from`.
fn catch_up(from: u32, view: View) -> Event {
    let body = MsgBody::CatchUpResponse { commit_qc: None };
    Event::Message(Message::new(ReplicaId(from), view, body))
}

/// Steps a started victim of `kind` through `events` and returns the
/// view it started in and the view it ends in.
fn run(kind: ProtocolKind, events: impl IntoIterator<Item = Event>) -> (View, View) {
    let cfg = Config::for_test(4, 1);
    let mut victim = build_replica(kind, cfg.with_id(VICTIM), None, false, None);
    victim.step(Event::Start);
    let start = victim.current_view();
    for event in events {
        victim.step(event);
    }
    (start, victim.current_view())
}

fn assert_unmoved(case: &str, events: impl Fn() -> Vec<Event>) {
    for kind in KINDS {
        let (start, end) = run(kind, events());
        assert_eq!(end, start, "{kind:?}: {case} moved the view");
    }
}

/// One key signs bytes that are no happy seed, for claimed senders 0
/// and 3: the first share does not verify, the second names a signer
/// that is not its sender.
#[test]
fn a_forged_pair_from_one_key_does_not_move_the_view() {
    let cfg = Config::for_test(4, 1);
    assert_unmoved("the forged pair", || {
        let forged = |from| view_change(&cfg, 0, from, View(1000), b"forged");
        vec![forged(0), forged(3)]
    });
}

/// Key 0 signs the correct happy seed but claims sender 3: the share
/// verifies, yet it attests member 0's view, not member 3's.
#[test]
fn a_valid_share_claiming_another_sender_does_not_count() {
    let cfg = Config::for_test(4, 1);
    assert_unmoved("a borrowed share", || {
        let view = View(1000);
        vec![
            genuine(&cfg, 0, view),
            view_change(&cfg, 0, 3, view, &happy(view)),
        ]
    });
}

/// Many VIEW-CHANGEs from one member attest one member.
#[test]
fn duplicates_from_one_sender_count_once() {
    let cfg = Config::for_test(4, 1);
    assert_unmoved("one sender's duplicates", || {
        vec![
            genuine(&cfg, 1, View(2)),
            genuine(&cfg, 1, View(2)),
            genuine(&cfg, 1, View(3)),
            genuine(&cfg, 1, View(1000)),
        ]
    });
}

/// Ids 17 and 18 are no members of a four-replica cluster, whether
/// their VIEW-CHANGEs carry shares signed by a larger cluster's keys or
/// their CATCH-UP responses carry nothing at all.
#[test]
fn ids_outside_the_cluster_attest_nothing() {
    let wide = Config::for_test(19, 6);
    assert_unmoved("non-member VIEW-CHANGEs", || {
        vec![
            genuine(&wide, 17, View(1000)),
            genuine(&wide, 18, View(1000)),
        ]
    });
    assert_unmoved("non-member CATCH-UP responses", || {
        vec![catch_up(17, View(1000)), catch_up(18, View(1000))]
    });
}

/// From view 1, member 0 attests views 4 and then 10, member 1 view 6:
/// the victim joins 6, the highest view two members (so one honest
/// one) have reached, not 4, the lowest view buffered.
#[test]
fn verified_shares_join_the_f_plus_first_highest_view() {
    let cfg = Config::for_test(4, 1);
    for kind in KINDS {
        let attested = [(0, View(4)), (0, View(10)), (1, View(6))];
        let (start, end) = run(kind, attested.map(|(from, view)| genuine(&cfg, from, view)));
        assert_eq!(start, View(1), "{kind:?}");
        assert_eq!(end, View(6), "{kind:?}");
    }
}
