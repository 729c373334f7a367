//! The mailbox contract under contention: several threads deliver into a
//! mailbox of bound two (one event stepping, one queued behind it), and
//! whichever of them finds it idle steps.

use marlin_runtime::{LaneMeter, Mailbox};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every event is stepped exactly once, no two steps overlap, each
/// deliverer's events are stepped in the order it delivered them, and
/// none is left over once the last delivery has returned. A mailbox that
/// counts an event before queueing it has its drainer find a counted
/// event missing (a deliverer counted, then blocked on the full
/// mailbox); one that uncounts an event before stepping it lets a second
/// drainer start while the first still steps.
#[test]
fn concurrent_deliveries_are_stepped_once_each_in_order_one_at_a_time() {
    const DELIVERERS: usize = 6;
    const EACH: usize = 2_000;
    let mailbox = Arc::new(Mailbox::new(2, LaneMeter::detached()));
    let stepping = Arc::new(AtomicBool::new(false));
    let overlaps = Arc::new(AtomicU64::new(0));
    let stepped = Arc::new(Mutex::new(Vec::with_capacity(DELIVERERS * EACH)));
    let deliverers: Vec<_> = (0..DELIVERERS)
        .map(|who| {
            let mailbox = Arc::clone(&mailbox);
            let (stepping, overlaps) = (Arc::clone(&stepping), Arc::clone(&overlaps));
            let stepped = Arc::clone(&stepped);
            std::thread::spawn(move || {
                for seq in 0..EACH {
                    mailbox.deliver((who, seq), |event| {
                        if stepping.swap(true, Ordering::AcqRel) {
                            overlaps.fetch_add(1, Ordering::AcqRel);
                        }
                        stepped.lock().unwrap().push(event);
                        // Every other step yields, widening the window for a
                        // second drainer to start; the rest are quick enough
                        // to reach a counted event still blocked outside.
                        if event.1 % 2 == 0 {
                            std::thread::yield_now();
                        }
                        stepping.store(false, Ordering::Release);
                    });
                }
            })
        })
        .collect();
    // Surface a deliverer's panic at once: the others would block on a
    // full mailbox that the dead drainer left counted.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut running = deliverers;
    while !running.is_empty() {
        assert!(Instant::now() < deadline, "a delivery never returned");
        let (done, rest): (Vec<_>, Vec<_>) = running.into_iter().partition(|d| d.is_finished());
        for deliverer in done {
            deliverer.join().expect("a deliverer panicked");
        }
        running = rest;
        std::thread::sleep(Duration::from_millis(5));
    }

    let stepped = std::mem::take(&mut *stepped.lock().unwrap());
    assert_eq!(overlaps.load(Ordering::Acquire), 0, "two steps overlapped");
    assert_eq!(
        stepped.len(),
        DELIVERERS * EACH,
        "events stranded or doubled"
    );
    for who in 0..DELIVERERS {
        let order: Vec<usize> = stepped
            .iter()
            .filter(|(from, _)| *from == who)
            .map(|&(_, seq)| seq)
            .collect();
        assert!(
            order.iter().copied().eq(0..EACH),
            "deliverer {who}'s events were not each stepped once, in order"
        );
    }
}
