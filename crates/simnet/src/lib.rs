//! Deterministic discrete-event network simulation for the `marlin-bft`
//! protocols.
//!
//! The paper's evaluation (Section VI) runs on a 40-server cluster with
//! 200 Mbps NICs and 40 ms of injected one-way latency. This crate
//! reproduces that environment as a discrete-event simulation:
//!
//! * **latency** — every message is delayed by a configurable one-way
//!   latency (plus optional seeded jitter);
//! * **bandwidth** — each sender has an egress NIC through which all its
//!   outgoing bytes serialize FIFO at the configured rate, so a leader
//!   broadcasting large batches to `n − 1` peers becomes
//!   bandwidth-bound exactly as in the real system;
//! * **CPU** — each replica is a single-threaded event processor; the
//!   simulated crypto/storage cost of handling an event keeps it busy,
//!   delaying both its outputs and its next input;
//! * **faults** — replicas can crash at scheduled times, and message
//!   filters model partitions or Byzantine message suppression;
//! * **accounting** — every transmitted message is charged to byte,
//!   message, and authenticator counters (the paper's complexity
//!   metrics), with a resettable measurement window for Table I.
//!
//! Determinism: given the same configuration and seed, a simulation is
//! bit-for-bit reproducible. [`SimConfig::instant`] turns the network
//! model off: every test steps replicas through it one input at a time
//! ([`SimNet::run_until_idle`], [`SimNet::fire_next_timer`]).
//!
//! Two drivers assemble whole runs on top of [`SimNet`]: [`run_scenario`]
//! is a fault run (a [`Scenario`]'s crash, partition, link-fault and
//! Byzantine schedule under the [`Invariants`] checker, judged into a
//! [`ScenarioOutcome`]; [`CampaignReport`] tabulates them), and
//! [`run_experiment`] is a load run — the paper's testbed (Section VI)
//! in one call: [`ExperimentConfig`] sets open- or closed-loop clients,
//! crash schedules, rotation, the paper's network parameters and the
//! durable block log (each committed block is charged a database write,
//! with checkpointing every 5000 blocks — the paper's setup), [`Stats`]
//! measures end-to-end latency and throughput as a [`CommitObserver`],
//! and [`sweep_peak_throughput`] is the rate sweep behind the
//! peak-throughput figures.
//!
//! # Example
//!
//! ```
//! use marlin_core::{Config, ProtocolKind};
//! use marlin_simnet::{SimConfig, SimNet};
//!
//! let mut sim = SimNet::new(ProtocolKind::Marlin, Config::for_test(4, 1), SimConfig::lan());
//! sim.schedule_client_batch(1u32.into(), 0, 100, 150);
//! sim.run_until(2_000_000_000); // two simulated seconds
//! assert!(sim.committed_txs(0u32.into()) >= 100);
//! ```
//!
//! ```
//! use marlin_core::ProtocolKind;
//! use marlin_simnet::{run_experiment, ExperimentConfig};
//!
//! let mut cfg = ExperimentConfig::paper(ProtocolKind::Marlin, 1);
//! cfg.duration_ns = 2_000_000_000; // short run for the doc test
//! cfg.rate_tps = 2_000;
//! let metrics = run_experiment(&cfg);
//! assert!(metrics.committed_txs > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod block_log;
mod byzantine;
mod experiment;
mod invariants;
mod scenario;
mod sim;
mod stats;

pub use accounting::{Accounting, MsgClass};
pub use byzantine::{Behavior, ByzantineReplica};
pub use experiment::{
    run_experiment, run_experiment_with_telemetry, sweep_peak_throughput, ExperimentConfig,
    SweepPoint,
};
pub use invariants::{Invariants, Violation};
pub use scenario::{
    run_scenario, run_scenario_with_telemetry, BehaviorPhase, Scenario, ScenarioOutcome,
};
pub use sim::{
    CommitObserver, InvariantChecker, LinkFault, Partition, RebuildFn, RecoveryMode, SimConfig,
    SimNet,
};
pub use stats::{CampaignReport, Metrics, Stats};
