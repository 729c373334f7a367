//! # marlin-bft
//!
//! A from-scratch Rust reproduction of **Marlin: Two-Phase BFT with
//! Linearity** (Sui, Duan, Zhang — DSN 2022): the Marlin protocol, the
//! HotStuff / Jolteon / chained baselines, and the full simulated
//! testbed (network, database, clients) needed to regenerate the
//! paper's evaluation.
//!
//! This crate is an umbrella re-exporting the workspace members:
//!
//! * [`crypto`] — hashing, HMAC, simulated (threshold) signatures, and
//!   the CPU cost model;
//! * [`types`] — views, blocks, quorum certificates, rank rules,
//!   messages, the wire codec, and the block tree;
//! * [`core`] — the protocol state machines (Marlin and all baselines);
//! * [`simnet`] — the deterministic discrete-event network simulator
//!   (with a zero-latency profile that drives the tests and examples),
//!   its fault-scenario driver, and the experiment driver (workload
//!   generation, the database write-cost schedule, latency/throughput
//!   measurement);
//! * [`storage`] — the disk abstraction, CRC-framed write-ahead log,
//!   snapshots, and the I/O cost model;
//! * [`runtime`] — the threaded wall-clock runtime: channel/TCP
//!   transports, one timer thread per replica (a replica steps on the
//!   threads that deliver to it), and multi-core cluster harness
//!   driving the same state machines;
//! * [`telemetry`] — metrics registry, structured consensus tracing,
//!   exporters, and the commit-latency decomposition.
//!
//! ## Quickstart
//!
//! ```
//! use marlin_bft::core::{Config, ProtocolKind};
//! use marlin_bft::simnet::{SimConfig, SimNet};
//! use marlin_bft::telemetry::{Invariants, SharedSink};
//!
//! let invariants = SharedSink::new(Invariants::new(&[]));
//! let config = Config::for_test(4, 1);
//! let mut sim = SimNet::new(ProtocolKind::Marlin, config, SimConfig::instant(), invariants.clone());
//! sim.run_until_idle(); // the start-up block
//! sim.schedule_client_batch(1u32.into(), sim.now_ns(), 100, 0);
//! sim.run_until_idle();
//! assert!(invariants.with(Invariants::violations).is_empty());
//! assert_eq!(sim.committed_txs(0u32.into()), 100);
//! ```
//!
//! See `examples/` for runnable demonstrations and `crates/bench` for
//! the figure-regeneration harness (`cargo run -p marlin-bench --bin
//! eval`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use marlin_core as core;
pub use marlin_crypto as crypto;
pub use marlin_runtime as runtime;
pub use marlin_simnet as simnet;
pub use marlin_storage as storage;
pub use marlin_telemetry as telemetry;
pub use marlin_types as types;
