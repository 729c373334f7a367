//! Byte, message, and authenticator accounting — the paper's complexity
//! metrics (Section III), measured rather than claimed.

use std::collections::BTreeMap;

pub use marlin_types::MsgClass;

/// Aggregated traffic counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Totals per message class.
    per_class: BTreeMap<MsgClass, Counters>,
}

/// Counter triple for one class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages transmitted.
    pub messages: u64,
    /// Bytes transmitted (wire encoding, shadow optimisation applied if
    /// configured).
    pub bytes: u64,
    /// Authenticators transmitted (paper metric: a signature group of
    /// `t` counts `t`; a threshold signature counts 1).
    pub authenticators: u64,
}

impl Accounting {
    /// Empty counters.
    pub fn new() -> Self {
        Accounting::default()
    }

    /// Charges one transmitted message of `class`: its wire bytes and the
    /// authenticators it carries.
    pub fn record(&mut self, class: MsgClass, bytes: u64, authenticators: u64) {
        let entry = self.per_class.entry(class).or_default();
        entry.messages += 1;
        entry.bytes += bytes;
        entry.authenticators += authenticators;
    }

    /// Total counters across all classes.
    pub fn total(&self) -> Counters {
        self.fold(|_| true)
    }

    /// Counters for view-change traffic only (Table I's `vc` columns).
    pub fn view_change_total(&self) -> Counters {
        self.fold(MsgClass::is_view_change)
    }

    /// Total counters excluding recovery traffic (catch-up requests and
    /// responses). This is the Table I measurement-window total: a
    /// replica rejoining after a crash must not inflate the apparent
    /// authenticator cost of a view change.
    pub fn protocol_total(&self) -> Counters {
        self.fold(|c| !c.is_recovery())
    }

    /// Counters for one class.
    pub fn class(&self, class: MsgClass) -> Counters {
        self.per_class.get(&class).copied().unwrap_or_default()
    }

    /// Iterates over `(class, counters)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&MsgClass, &Counters)> {
        self.per_class.iter()
    }

    /// Clears all counters (starts a new measurement window).
    pub fn reset(&mut self) {
        self.per_class.clear();
    }

    fn fold(&self, pred: impl Fn(&MsgClass) -> bool) -> Counters {
        let mut total = Counters::default();
        for (class, c) in &self.per_class {
            if pred(class) {
                total.messages += c.messages;
                total.bytes += c.bytes;
                total.authenticators += c.authenticators;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_types::{BlockId, Height, Message, MsgBody, Phase, ReplicaId, View};

    fn fetch_msg() -> Message {
        Message::new(
            ReplicaId(0),
            View(1),
            MsgBody::FetchRequest {
                block: BlockId::GENESIS,
            },
        )
    }

    #[test]
    fn record_accumulates() {
        let mut acc = Accounting::new();
        acc.record(MsgClass::Fetch, 45, 0);
        acc.record(MsgClass::Fetch, 45, 0);
        let total = acc.total();
        assert_eq!(total.messages, 2);
        assert_eq!(total.bytes, 90);
        assert_eq!(total.authenticators, 0);
        assert_eq!(acc.class(MsgClass::Fetch).messages, 2);
        assert_eq!(acc.class(MsgClass::Decide).messages, 0);
    }

    #[test]
    fn view_change_window_filters_classes() {
        let mut acc = Accounting::new();
        acc.record(MsgClass::Fetch, 10, 0);
        assert_eq!(acc.view_change_total().messages, 0);
        assert!(MsgClass::ViewChange.is_view_change());
        assert!(MsgClass::Proposal(Phase::PrePrepare).is_view_change());
        assert!(!MsgClass::Proposal(Phase::Prepare).is_view_change());
        assert!(!MsgClass::Vote(Phase::Commit).is_view_change());
    }

    #[test]
    fn reset_clears() {
        let mut acc = Accounting::new();
        acc.record(MsgClass::Fetch, 10, 0);
        acc.reset();
        assert_eq!(acc.total(), Counters::default());
    }

    #[test]
    fn catch_up_traffic_excluded_from_measurement_window() {
        // S1 regression: recovery traffic (catch-up requests/responses)
        // classifies as `CatchUp`, not `Fetch`, and never leaks into
        // either the view-change window or the protocol-total window.
        let mut acc = Accounting::new();
        let req = Message::new(
            ReplicaId(2),
            View(7),
            MsgBody::CatchUpRequest {
                last_committed: Height(0),
            },
        );
        acc.record(MsgClass::of(&req), 64, req.authenticator_count() as u64);
        assert_eq!(MsgClass::of(&req), MsgClass::CatchUp);
        assert!(MsgClass::CatchUp.is_recovery());
        assert!(!MsgClass::CatchUp.is_view_change());

        // A catch-up response carries a commitQC (one threshold
        // authenticator).
        acc.record(MsgClass::CatchUp, 176, 1);

        assert_eq!(acc.view_change_total().authenticators, 0);
        assert_eq!(acc.protocol_total().authenticators, 0);
        assert_eq!(acc.protocol_total().messages, 0);
        assert_eq!(acc.total().authenticators, 1);

        // Plain fetch traffic still counts toward the protocol total.
        acc.record(MsgClass::of(&fetch_msg()), 45, 0);
        assert_eq!(acc.protocol_total().messages, 1);
        assert_eq!(acc.total().messages, 3);
        assert_eq!(acc.class(MsgClass::CatchUp).messages, 2);
        assert_eq!(acc.class(MsgClass::Fetch).messages, 1);
    }

    #[test]
    fn class_display_is_stable() {
        assert_eq!(MsgClass::of(&fetch_msg()).to_string(), "fetch");
        assert_eq!(MsgClass::Vote(Phase::Prepare).to_string(), "vote/Prepare");
    }
}
