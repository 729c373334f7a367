//! Unified telemetry for the marlin-bft workspace: one pipeline from
//! protocol trace notes to metrics, exporters, and reports.
//!
//! The workspace previously measured its claims through three
//! disconnected channels (simnet traffic accounting, a lone latency
//! histogram in the experiment driver, and the raw [`Note`] stream).
//! This crate unifies them:
//!
//! * [`Registry`] — a lock-cheap metrics registry of labeled
//!   [`Counter`]s, [`Gauge`]s, and log-scale [`Histogram`]s, with
//!   Prometheus-text ([`Snapshot::to_prometheus`]) and JSON
//!   ([`Snapshot::to_json`]) exporters.
//! * [`Note`] / [`Telemetry`] / [`TelemetrySink`] — the structured
//!   consensus-event vocabulary (view lifecycle, per-phase vote→QC
//!   formation, happy vs. unhappy view-change paths, journal write-ahead
//!   cost, catch-up round trips), the one observation stream a driver
//!   reports it in (notes, sends, lane charges, cache reports, commits)
//!   and the one-method consumer of that stream, fed stamped with the
//!   driver clock. [`RegistryRecorder`] folds events into registry
//!   metrics; [`Trace`] records them for offline analysis.
//! * [`Decomposition`] — a cross-replica trace merger that rebuilds
//!   per-committed-block timelines and splits commit latency into
//!   propose → vote → QC → deliver segments, with the protocol's phase
//!   count measured from the trace.
//!
//! * [`Invariants`] — the safety oracle: a sink judging agreement,
//!   commit order, locks, votes and liveness from the stream alone, for
//!   the simulator and the threaded runtime alike.
//! * [`ViewChanges`] — the traffic meter: one [`Window`] per view change,
//!   its per-class [`Traffic`] (Table I) and each replica's latency.
//! * [`Ring`] / [`FlightRecorder`] — the one typed recorder of stamped
//!   notes (the simulator's, and each runtime node's flight ring) and
//!   its dumps, framed as the safety journal frames its records.
//!
//! Dependencies: `marlin-types` and `marlin-storage` (the record
//! framing), vendored-offline policy — no external crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod flight;
pub mod hist;
pub mod invariants;
pub mod meter;
pub mod registry;
pub mod serve;
pub mod timeline;

pub use event::{
    phase_label, ChargeEvent, Lock, Note, RegistryRecorder, SharedSink, Telemetry, TelemetrySink,
    Trace, TraceEvent, VcCase,
};
pub use export::{check_prometheus_text, json_str, Snapshot, SnapshotEntry, SnapshotValue};
pub use flight::{
    install_panic_dump, merge_dumps, parse_dump, register_panic_dump, Entry, FlightRecorder,
    Record, Ring, FLIGHT_CAPACITY, FLIGHT_MAGIC,
};
pub use hist::{Histogram, LatencySummary, BUCKET_COUNT};
pub use invariants::{Invariants, Violation};
pub use meter::{Counters, Traffic, ViewChanges, Window};
pub use registry::{Counter, Gauge, HistogramHandle, Registry};
pub use serve::{Health, HealthFn, ScrapeServer};
pub use timeline::{BlockTimeline, Decomposition, LaneBreakdown, PhasePoint, SegmentStat};
