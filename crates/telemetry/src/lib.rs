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
//! * [`Note`] / [`TelemetrySink`] — the structured consensus-event
//!   vocabulary (view lifecycle, per-phase vote→QC formation, happy vs.
//!   unhappy view-change paths, journal write-ahead cost, catch-up
//!   round trips) and the driver-side hook that stamps each event with
//!   the driver clock. [`RegistryRecorder`] folds events into registry
//!   metrics; [`Trace`] records them for offline analysis.
//! * [`Decomposition`] — a cross-replica trace merger that rebuilds
//!   per-committed-block timelines and splits commit latency into
//!   propose → vote → QC → deliver segments, with the protocol's phase
//!   count measured from the trace.
//!
//! Self-contained by design: the only dependency is `marlin-types`
//! (vendored-offline policy — no external crates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod serve;
pub mod timeline;

pub use event::{
    phase_label, ChargeEvent, Note, RegistryRecorder, SharedSink, TelemetrySink, Trace, TraceEvent,
    VcCase,
};
pub use export::{check_prometheus_text, json_str, Snapshot, SnapshotEntry, SnapshotValue};
pub use flight::{
    encode_dump, install_panic_dump, merge_dumps, parse_dump, register_panic_dump, FlightEvent,
    FlightKind, FlightRecorder, FlightSink, DEFAULT_FLIGHT_CAPACITY, FLIGHT_MAGIC,
};
pub use hist::{Histogram, LatencySummary, BUCKET_COUNT};
pub use registry::{Counter, Gauge, HistogramHandle, Registry};
pub use serve::{Health, HealthFn, ScrapeServer};
pub use timeline::{BlockTimeline, Decomposition, LaneBreakdown, PhasePoint, SegmentStat};
