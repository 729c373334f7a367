//! Metered bounded channels: backpressure accounting for the runtime's
//! lanes, and the replica mailbox built on one.
//!
//! `std::sync::mpsc` exposes no queue introspection, so a [`LaneMeter`]
//! reconstructs it from the outside: enqueue/dequeue counters (their
//! difference is the live depth), a blocked-send stall counter and a
//! stall-duration histogram. [`MeteredSender`] tries, then blocks and
//! charges the whole wait as a stall — so a replica delivered to faster
//! than it steps shows up as `runtime_channel_stalls_total{lane=
//! "consensus"}`, not as an unattributable throughput dip. Depth gauges
//! are *sampled* by the node's telemetry tick, not updated inline.

use marlin_telemetry::{Counter, Gauge, HistogramHandle, Registry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SendError, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::Instant;

/// Shared instrumentation for one channel lane.
///
/// Clones share state (the handles are `Arc`-backed), so the sender,
/// receiver, sampler, and health endpoint can all hold one.
#[derive(Clone, Debug)]
pub struct LaneMeter {
    enqueued: Counter,
    dequeued: Counter,
    depth: Gauge,
    stalls: Counter,
    stall_ns: HistogramHandle,
}

impl LaneMeter {
    /// A meter registered in `registry` under the `lane` label:
    /// `runtime_channel_{enqueued,dequeued,stalls}_total{lane=..}`,
    /// `runtime_channel_depth{lane=..}` (gauge, sampled), and
    /// `runtime_channel_stall_ns{lane=..}` (histogram).
    pub fn new(registry: &Registry, lane: &str) -> Self {
        let labels = &[("lane", lane)];
        LaneMeter {
            enqueued: registry.counter_with("runtime_channel_enqueued_total", labels),
            dequeued: registry.counter_with("runtime_channel_dequeued_total", labels),
            depth: registry.gauge_with("runtime_channel_depth", labels),
            stalls: registry.counter_with("runtime_channel_stalls_total", labels),
            stall_ns: registry.histogram_with("runtime_channel_stall_ns", labels),
        }
    }

    /// A meter backed by free-standing handles — counts, but exports
    /// nowhere. Used when a node runs without a registry so the send
    /// paths need no `Option` branching.
    pub fn detached() -> Self {
        LaneMeter {
            enqueued: Counter::default(),
            dequeued: Counter::default(),
            depth: Gauge::default(),
            stalls: Counter::default(),
            stall_ns: HistogramHandle::default(),
        }
    }

    /// Notes one accepted enqueue.
    pub fn note_enqueue(&self) {
        self.enqueued.inc();
    }

    /// Notes one dequeue.
    pub fn note_dequeue(&self) {
        self.dequeued.inc();
    }

    /// Notes one blocked send that waited `ns` nanoseconds.
    pub fn note_stall(&self, ns: u64) {
        self.stalls.inc();
        self.stall_ns.record(ns);
    }

    /// Messages enqueued but not yet dequeued right now.
    ///
    /// The two counters are read independently, so under concurrent
    /// traffic the value may be momentarily off by the in-flight
    /// handful — fine for a gauge, meaningless as an invariant.
    pub fn depth(&self) -> u64 {
        self.enqueued.get().saturating_sub(self.dequeued.get())
    }

    /// Blocked sends so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Cumulative nanoseconds spent in blocked sends so far. On the
    /// journal lane this is the total durability-barrier wait; deltas
    /// around a protocol step attribute that wait to the step.
    pub fn stall_ns_total(&self) -> u64 {
        self.stall_ns.snapshot().sum_ns() as u64
    }

    /// Copies the current depth into the exported gauge (called by the
    /// node's sampler thread on its telemetry tick).
    pub fn sample_depth(&self) {
        self.depth.set(self.depth() as i64);
    }
}

/// A bounded channel whose endpoints feed `meter`.
pub fn metered_sync_channel<T>(
    bound: usize,
    meter: LaneMeter,
) -> (MeteredSender<T>, MeteredReceiver<T>) {
    let (tx, rx) = sync_channel(bound);
    (
        MeteredSender {
            tx,
            meter: meter.clone(),
        },
        MeteredReceiver { rx, meter },
    )
}

/// Sending half of a metered lane (see [`metered_sync_channel`]).
pub struct MeteredSender<T> {
    tx: SyncSender<T>,
    meter: LaneMeter,
}

impl<T> MeteredSender<T> {
    /// Sends `value`, blocking if the queue is full; a blocked send is
    /// timed and charged to the lane's stall metrics.
    ///
    /// # Errors
    ///
    /// [`SendError`] once the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match self.tx.try_send(value) {
            Ok(()) => {
                self.meter.note_enqueue();
                Ok(())
            }
            Err(TrySendError::Disconnected(v)) => Err(SendError(v)),
            Err(TrySendError::Full(v)) => {
                let blocked_at = Instant::now();
                let result = self.tx.send(v);
                self.meter
                    .note_stall(blocked_at.elapsed().as_nanos() as u64);
                if result.is_ok() {
                    self.meter.note_enqueue();
                }
                result
            }
        }
    }
}

/// Receiving half of a metered lane (see [`metered_sync_channel`]).
pub struct MeteredReceiver<T> {
    rx: Receiver<T>,
    meter: LaneMeter,
}

impl<T> MeteredReceiver<T> {
    /// Blocks for the next message.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once every sender is gone and the queue drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let value = self.rx.recv()?;
        self.meter.note_dequeue();
        Ok(value)
    }

    /// The next message, if one is queued.
    pub fn try_recv(&self) -> Option<T> {
        let value = self.rx.try_recv().ok()?;
        self.meter.note_dequeue();
        Some(value)
    }
}

/// A replica's inbound events: a metered bounded lane with no thread of
/// its own, drained by whichever thread delivers into it while it is idle.
///
/// [`Mailbox::deliver`] enqueues first (a full mailbox blocks the
/// deliverer, charged to the lane as a stall), then counts the event as
/// pending. The deliverer whose count starts from zero is the drainer: it
/// steps events in queue order until the count is back at zero. So one
/// thread steps at a time, a deliverer's events are stepped in the order
/// it delivered them, and none is left unstepped once every delivery has
/// returned. The event being stepped still counts against the bound.
pub struct Mailbox<T> {
    tx: MeteredSender<T>,
    rx: Mutex<MeteredReceiver<T>>,
    /// Events delivered but not yet stepped.
    pending: AtomicUsize,
}

impl<T> Mailbox<T> {
    /// An idle mailbox of at most `bound` events delivered and not yet
    /// stepped — the one being stepped and `bound - 1` queued behind it
    /// (at least one) — metered by `meter`.
    pub fn new(bound: usize, meter: LaneMeter) -> Self {
        let (tx, rx) = metered_sync_channel(bound.max(2) - 1, meter);
        Mailbox {
            tx,
            rx: Mutex::new(rx),
            pending: AtomicUsize::new(0),
        }
    }

    /// Delivers `event`. If the mailbox was idle, the caller then runs
    /// `step` on it and on every event delivered meanwhile, until none is
    /// pending.
    pub fn deliver(&self, event: T, mut step: impl FnMut(T)) {
        // Queued before counted. The count's release/acquire pairs carry
        // each queued event to the drainer that counts down past it, and
        // each finished step to whoever counts up from zero next.
        self.tx.send(event).expect("the mailbox holds its receiver");
        if self.pending.fetch_add(1, Ordering::AcqRel) > 0 {
            return;
        }
        loop {
            let queued = self.rx.lock().expect("mailbox lock").try_recv();
            step(queued.expect("queued before counted: a counted event is queued"));
            // Stepped before uncounted: the next drainer starts after this
            // step has ended.
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fast_path_counts_without_stalling() {
        let meter = LaneMeter::detached();
        let (tx, rx) = metered_sync_channel::<u32>(4, meter.clone());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(meter.depth(), 2);
        assert_eq!(meter.stalls(), 0);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(meter.depth(), 0);
    }

    #[test]
    fn full_queue_send_is_counted_and_timed_as_a_stall() {
        let reg = Registry::new();
        let meter = LaneMeter::new(&reg, "consensus");
        let (tx, rx) = metered_sync_channel::<u32>(1, meter.clone());
        tx.send(1).unwrap();
        // The queue is full: the next send blocks until the drainer
        // makes room ~30 ms later.
        let drainer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(drainer.join().unwrap(), vec![1, 2]);
        assert_eq!(meter.stalls(), 1);
        assert_eq!(
            reg.counter_with("runtime_channel_stalls_total", &[("lane", "consensus")])
                .get(),
            1
        );
        let stall = reg
            .histogram_with("runtime_channel_stall_ns", &[("lane", "consensus")])
            .snapshot();
        assert_eq!(stall.count(), 1);
        assert!(
            stall.mean_ns() >= 10_000_000,
            "blocked ~30ms but recorded {}ns",
            stall.mean_ns()
        );
    }

    #[test]
    fn send_to_dropped_receiver_errors_on_both_paths() {
        let (tx, rx) = metered_sync_channel::<u32>(1, LaneMeter::detached());
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn sampled_depth_lands_in_the_gauge() {
        let reg = Registry::new();
        let meter = LaneMeter::new(&reg, "consensus");
        let (tx, _rx) = metered_sync_channel::<u32>(8, meter.clone());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        meter.sample_depth();
        assert_eq!(
            reg.gauge_with("runtime_channel_depth", &[("lane", "consensus")])
                .get(),
            3
        );
    }
}
