//! Shared data model for the `marlin-bft` reproduction of *Marlin:
//! Two-Phase BFT with Linearity* (DSN 2022).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`View`], [`Height`], [`ReplicaId`] — protocol newtypes;
//! * [`Transaction`] and [`Batch`] — client operations;
//! * [`Block`] — the paper's `b = [pl, pview, view, height, op, justify]`
//!   tuple, including *virtual* blocks (parent link ⊥) and *shadow*
//!   blocks (same operations, different metadata);
//! * [`Qc`] — quorum certificates with their [`Phase`];
//! * [`rank`] — the paper's Figure 4 rank-comparison rules for QCs and
//!   the block rank rules of Section V-A;
//! * [`Message`] — the union wire format used by Marlin and every
//!   baseline protocol in this workspace;
//! * [`mod@codec`] — a compact binary wire codec whose byte counts drive the
//!   network simulator's bandwidth model;
//! * [`BlockStore`] — each replica's tree of blocks.
//!
//! # Example
//!
//! ```
//! use marlin_types::{Block, BlockStore, View, Height};
//!
//! let mut store = BlockStore::new();
//! let genesis = store.genesis().clone();
//! assert_eq!(genesis.height(), Height(0));
//! assert!(store.contains(&genesis.id()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod codec;
mod ids;
mod message;
mod preimage;
mod qc;
pub mod rank;
mod transaction;
mod tree;

pub use block::{Block, BlockId, BlockKind, BlockMeta, Justify, ParentLink};
pub use ids::{Height, ReplicaId, View};
pub use message::{Decide, Message, MsgBody, MsgClass, Proposal, VcCert, ViewChange, Vote};
pub use qc::{Phase, Qc, QcSeed};
pub use transaction::{Batch, BatchId, BatchIter, Transaction, TxView};
pub use tree::{BlockStore, CommitError};
