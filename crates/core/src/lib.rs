//! Consensus protocols for the `marlin-bft` reproduction of *Marlin:
//! Two-Phase BFT with Linearity* (DSN 2022).
//!
//! Every protocol in this crate is a **deterministic, sans-io state
//! machine**: it consumes [`Event`]s (messages, timeouts, new
//! transactions) and emits [`Action`]s (sends, broadcasts, commits,
//! timer resets) plus a simulated CPU cost. The same state machines run
//! under the discrete-event network simulator (`marlin-simnet`, whose
//! zero-latency profile drives the tests), under the threaded
//! wall-clock runtime (`marlin-runtime`), and under the benchmark drivers.
//!
//! Protocols provided. All seven are one replica skeleton ([`Replica`]:
//! pacemaker, vote collection, write-ahead journal, view-change
//! collection, the event loop — the crate's only `impl Protocol`)
//! instantiated with seven *rule sets* — each module below holds only
//! what its protocol decides for itself (DESIGN.md §18 has the full
//! rule table):
//!
//! | module | protocol | phase ladder | lock raised on | view change: the leader's decision and the cross-view vote predicate |
//! |--------|----------|--------------|----------------|------|
//! | [`marlin`] | **Marlin** (the paper's contribution) | prepare → commit | `prepareQC` | happy path (unanimous `lb`) or replica-voted pre-prepare with virtual/shadow blocks, Cases V1–V3 / R1–R3; 2 or 3 phases, linear |
//! | [`hotstuff`] | basic HotStuff | prepare → pre-commit → commit | `precommitQC` | extend the highest `prepareQC`; safeNode; 3 phases, linear |
//! | [`jolteon`] | Jolteon-style two-phase baseline | prepare → commit | `prepareQC` | extend the highest certified QC, proving it with `n − f` certificates; 2 phases, **quadratic** |
//! | [`two_phase_insecure`] | the strawman of Section IV-B | prepare → commit | `prepareQC` | extend the highest QC seen, no unlocking — loses liveness (kept for the Fig. 2 demonstrations) |
//! | [`marlin_four_phase`] | the "half-baked" design of Section IV-D (ablation) | prepare → commit; recovery block prepare → pre-commit → commit | `prepareQC` / `precommitQC` | NACK-and-restart pre-prepare without virtual blocks; 4 phases, linear |
//! | [`chained`] | chained (pipelined) Marlin & HotStuff | one rung: the `prepareQC` closes the round and rides the next proposal; two-/three-chain commit | `prepareQC` (the justify) / the certificate one direct link below it | chained Marlin: Marlin's, by delegation to its rule set; chained HotStuff: extend the highest `prepareQC`, safeNode |
//!
//! [`build_replica`] constructs any of them from a [`ProtocolKind`],
//! with or without a write-ahead [`SafetyJournal`].
//!
//! # Example
//!
//! ```
//! use marlin_core::{Config, ProtocolKind};
//! use marlin_simnet::{SimConfig, SimNet};
//!
//! // Four replicas running Marlin over an instantly-delivering network.
//! let mut sim = SimNet::new(ProtocolKind::Marlin, Config::for_test(4, 1), SimConfig::instant());
//! sim.schedule_client_batch(1u32.into(), 0, 100, 0);
//! sim.run_until_idle();
//! assert!(sim.committed_blocks(0u32.into()) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chained;
mod config;
mod crypto_ctx;
mod events;
pub mod harness;
pub mod hotstuff;
pub mod jolteon;
pub mod journal;
pub mod marlin;
pub mod marlin_four_phase;
mod pacemaker;
mod payload;
mod replica;
mod sync;
pub mod two_phase_insecure;
mod util;
mod votes;

pub use config::{build_replica, Config, ProtocolKind};
pub use crypto_ctx::{CryptoCacheStats, CryptoCtx};
pub use events::{Action, Event, Note, StepOutput, VcCase};
pub use journal::{JournalIo, JournalRecord, SafetyJournal, SafetySnapshot};
pub use pacemaker::Pacemaker;
pub use replica::Replica;
pub use util::Protocol;
pub use votes::VoteCollector;
