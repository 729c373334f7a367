//! Events consumed and actions produced by the protocol state machines.

use marlin_types::{Block, Message, ReplicaId, Transaction, View};

// The structured trace vocabulary lives in `marlin-telemetry` (so the
// telemetry pipeline can consume it without depending on the protocol
// crate); re-exported here because protocols *produce* these notes.
pub use marlin_telemetry::{Note, VcCase};

/// An input to a replica's state machine.
///
/// `Message` dwarfs the other variants, but events are consumed in
/// place, never queued in bulk, so boxing would only add indirection.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Event {
    /// Bootstraps the replica: enter view 1 and, if leader, propose.
    Start,
    /// A message arrived from the network.
    Message(Message),
    /// The timer armed for `view` fired. Stale timeouts (for views the
    /// replica has already left) are ignored.
    Timeout {
        /// The view the timer was armed for.
        view: View,
    },
    /// New client transactions for the replica's mempool.
    NewTransactions(Vec<Transaction>),
    /// A heartbeat armed via [`Action::SetHeartbeat`] fired; idle
    /// leaders use it to pace empty proposals.
    Heartbeat,
    /// The replica rejoined after a crash (its state either survived in
    /// memory, was reconstructed from a durable journal, or was lost).
    /// Handlers re-arm the view timer for the *current* view — any
    /// pre-crash timer is dead — and broadcast a `CATCH-UP` request for
    /// the commits they missed.
    Recovered,
}

/// An output of a replica's state machine.
#[derive(Clone, Debug)]
pub enum Action {
    /// Send `message` to replica `to`.
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message.
        message: Message,
    },
    /// Send `message` to every other replica (the sender processes its
    /// own copy internally; drivers must not loop it back).
    Broadcast {
        /// The message.
        message: Message,
    },
    /// Deliver newly committed blocks to the application, oldest first.
    Commit {
        /// The committed blocks.
        blocks: Vec<Block>,
    },
    /// Arm (or re-arm) the view timer: fire [`Event::Timeout`] for
    /// `view` after `delay_ns` of simulated time.
    SetTimer {
        /// View the timer belongs to.
        view: View,
        /// Delay until firing, in simulated nanoseconds.
        delay_ns: u64,
    },
    /// Fire [`Event::Heartbeat`] after `delay_ns` of simulated time.
    SetHeartbeat {
        /// Delay until firing, in simulated nanoseconds.
        delay_ns: u64,
    },
    /// A trace note for tests, examples, and benchmarks.
    Note(Note),
}

/// The result of one state-machine step.
#[derive(Clone, Debug, Default)]
pub struct StepOutput {
    /// Actions for the driver, in order.
    pub actions: Vec<Action>,
    /// Total simulated CPU nanoseconds consumed. Always the sum of the
    /// per-lane charges below plus any uncategorized consensus work, so
    /// drivers that model a single CPU can keep using this scalar.
    pub cpu_ns: u64,
    /// Portion of `cpu_ns` spent in cryptographic operations; drivers
    /// with a multi-lane CPU model run it on the crypto worker lanes.
    pub crypto_ns: u64,
    /// Portion of `cpu_ns` spent on journal / storage IO; drivers with
    /// a multi-lane CPU model run it on the IO lane.
    pub journal_ns: u64,
}

impl StepOutput {
    /// An empty step.
    pub fn empty() -> Self {
        StepOutput::default()
    }

    /// Appends another step's actions and cost.
    pub fn merge(&mut self, other: StepOutput) {
        self.actions.extend(other.actions);
        self.cpu_ns += other.cpu_ns;
        self.crypto_ns += other.crypto_ns;
        self.journal_ns += other.journal_ns;
    }

    /// CPU nanoseconds not attributed to the crypto or journal lanes
    /// (protocol bookkeeping that must run on the consensus lane).
    pub fn consensus_ns(&self) -> u64 {
        self.cpu_ns
            .saturating_sub(self.crypto_ns)
            .saturating_sub(self.journal_ns)
    }

    /// Iterates over the blocks committed in this step, oldest first.
    pub fn committed_blocks(&self) -> impl Iterator<Item = &Block> {
        self.actions.iter().flat_map(|a| match a {
            Action::Commit { blocks } => blocks.iter(),
            _ => [].iter(),
        })
    }

    /// Iterates over trace notes emitted in this step.
    pub fn notes(&self) -> impl Iterator<Item = &Note> {
        self.actions.iter().filter_map(|a| match a {
            Action::Note(n) => Some(n),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_concatenates() {
        let mut a = StepOutput {
            actions: vec![Action::Note(Note::HappyPathVc { view: View(1) })],
            cpu_ns: 5,
            crypto_ns: 4,
            journal_ns: 0,
        };
        let b = StepOutput {
            actions: vec![Action::SetTimer {
                view: View(2),
                delay_ns: 7,
            }],
            cpu_ns: 3,
            crypto_ns: 1,
            journal_ns: 2,
        };
        a.merge(b);
        assert_eq!(a.actions.len(), 2);
        assert_eq!(a.cpu_ns, 8);
        assert_eq!(a.crypto_ns, 5);
        assert_eq!(a.journal_ns, 2);
        assert_eq!(a.consensus_ns(), 1);
    }

    #[test]
    fn consensus_lane_never_underflows() {
        let out = StepOutput {
            actions: vec![],
            cpu_ns: 3,
            crypto_ns: 2,
            journal_ns: 2,
        };
        assert_eq!(out.consensus_ns(), 0);
    }

    #[test]
    fn accessors_filter_by_kind() {
        let out = StepOutput {
            actions: vec![
                Action::Note(Note::HappyPathVc { view: View(3) }),
                Action::Commit {
                    blocks: vec![Block::genesis()],
                },
            ],
            ..StepOutput::default()
        };
        assert_eq!(out.committed_blocks().count(), 1);
        assert_eq!(out.notes().count(), 1);
    }
}
