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
//! * [`core`] — the protocol state machines (Marlin and all baselines)
//!   plus an in-process test harness;
//! * [`simnet`] — the deterministic discrete-event network simulator,
//!   its fault-scenario driver, and the experiment driver (workload
//!   generation, the database write-cost schedule, latency/throughput
//!   measurement);
//! * [`storage`] — the disk abstraction, CRC-framed write-ahead log,
//!   snapshots, and the I/O cost model;
//! * [`runtime`] — the threaded wall-clock runtime: channel/TCP
//!   transports, two threads per replica, and multi-core cluster
//!   harness driving the same state machines;
//! * [`telemetry`] — metrics registry, structured consensus tracing,
//!   exporters, and the commit-latency decomposition.
//!
//! ## Quickstart
//!
//! ```
//! use marlin_bft::core::{harness::Cluster, Config, ProtocolKind};
//!
//! let mut cluster = Cluster::new(ProtocolKind::Marlin, Config::for_test(4, 1), 42);
//! cluster.submit_transactions(100);
//! cluster.run_until_idle();
//! cluster.assert_consistent();
//! assert_eq!(cluster.total_committed_txs(0u32.into()), 100);
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
