//! The view-change meter: Table I's traffic and Fig. 10i's latency,
//! read off the observation stream like every other measurement.
//!
//! [`ViewChanges`] is a [`TelemetrySink`] that splits a run into one
//! [`Window`] per view change. A window opens at the first
//! [`Note::ViewChangeStarted`] for a view above the last window's, or at
//! [`ViewChanges::mark`] (a marked window takes the view of the first
//! timeout after it); traffic before the first window is not counted.

use crate::event::{Note, Telemetry, TelemetrySink};
use marlin_types::{MsgClass, ReplicaId, View};
use std::collections::BTreeMap;

/// Table I's bound on a linear view change, in authenticators per
/// replica from a window's opening timeout to its first commit (Table
/// I's threshold rows: Marlin 354 at n = 31 is 11.4·n, HotStuff 10.5·n).
pub const TABLE1_AUTHS_PER_REPLICA: u64 = 12;

/// Counter triple for one class (the paper's Section III metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages transmitted.
    pub messages: u64,
    /// Bytes transmitted (wire encoding, as the driver measured it).
    pub bytes: u64,
    /// Authenticators transmitted (a signature group of `t` counts `t`;
    /// a threshold signature counts 1).
    pub authenticators: u64,
}

/// Traffic counters per message class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    per_class: BTreeMap<MsgClass, Counters>,
}

impl Traffic {
    /// Total counters across all classes.
    pub fn total(&self) -> Counters {
        self.fold(|_| true)
    }

    /// Total counters without recovery traffic (catch-up and sync): a
    /// replica rejoining must not inflate a view change's apparent cost.
    pub fn protocol_total(&self) -> Counters {
        self.fold(|c| !c.is_recovery())
    }

    /// Counters for one class.
    pub fn class(&self, class: MsgClass) -> Counters {
        self.per_class.get(&class).copied().unwrap_or_default()
    }

    fn fold(&self, pred: impl Fn(&MsgClass) -> bool) -> Counters {
        let mut total = Counters::default();
        for (_, c) in self.per_class.iter().filter(|(class, _)| pred(class)) {
            total.messages += c.messages;
            total.bytes += c.bytes;
            total.authenticators += c.authenticators;
        }
        total
    }
}

/// One view change, as the meter saw it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Window {
    /// The view its timeouts abandon; `None` for a marked window no
    /// timeout has reached yet.
    pub view: Option<View>,
    /// Every message sent since the window opened.
    pub traffic: Traffic,
    /// The traffic as it stood at the first commit, by any replica,
    /// after the window opened; `None` until something commits.
    pub at_first_commit: Option<Traffic>,
    /// Whether a new leader took Marlin's happy path.
    pub happy: bool,
    /// Each replica's first timeout and first commit in the window.
    timeouts: BTreeMap<ReplicaId, u64>,
    commits: BTreeMap<ReplicaId, u64>,
}

impl Window {
    /// `replica`'s view-change latency (Fig. 10i): its own first timeout
    /// to its first commit in the window (0 if the commit came first);
    /// `None` unless it did both.
    pub fn latency_ns(&self, replica: ReplicaId) -> Option<u64> {
        let timeout = self.timeouts.get(&replica)?;
        Some(self.commits.get(&replica)?.saturating_sub(*timeout))
    }
}

/// The view-change meter (see the module docs).
#[derive(Debug, Default)]
pub struct ViewChanges(Vec<Window>);

impl ViewChanges {
    /// A meter with no window open.
    pub fn new() -> Self {
        ViewChanges::default()
    }

    /// Opens a window now; returns its index in [`ViewChanges::windows`].
    pub fn mark(&mut self) -> usize {
        self.0.push(Window::default());
        self.0.len() - 1
    }

    /// Every window so far, oldest first.
    pub fn windows(&self) -> &[Window] {
        &self.0
    }
}

impl TelemetrySink for ViewChanges {
    fn record(&mut self, at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        let windows = &mut self.0;
        if let Telemetry::Note(Note::ViewChangeStarted { from_view }) = event {
            let older = |w: &Window| w.view.is_some_and(|v| v < *from_view);
            if windows.last().is_none_or(older) {
                windows.push(Window::default());
            }
            let open = windows.last_mut().expect("a window is open");
            open.view.get_or_insert(*from_view);
            open.timeouts.entry(replica).or_insert(at_ns);
        }
        let Some(window) = windows.last_mut() else {
            return;
        };
        match event {
            Telemetry::Note(Note::HappyPathVc { .. }) => window.happy = true,
            Telemetry::Sent {
                class,
                bytes,
                authenticators,
            } => {
                let counters = window.traffic.per_class.entry(class).or_default();
                counters.messages += 1;
                counters.bytes += bytes;
                counters.authenticators += authenticators;
            }
            Telemetry::Committed(_) => {
                window.commits.entry(replica).or_insert(at_ns);
                window
                    .at_first_commit
                    .get_or_insert_with(|| window.traffic.clone());
            }
            _ => {}
        }
    }
}
