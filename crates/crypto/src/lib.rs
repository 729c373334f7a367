//! Cryptographic substrate for the `marlin-bft` reproduction of
//! *Marlin: Two-Phase BFT with Linearity* (DSN 2022).
//!
//! The paper instantiates its quorum certificates either with a group of
//! conventional (ECDSA) signatures or with a pairing-based threshold
//! signature. Neither is available among the offline crates permitted for
//! this reproduction, so this crate provides a **simulated** signature
//! stack with the properties the evaluation actually depends on:
//!
//! * correct *sizes* on the wire (64-byte "signatures", 96-byte combined
//!   threshold signatures), so bandwidth effects are faithful;
//! * a configurable *CPU cost model* ([`CostModel`]) so the relative cost
//!   of signing, verifying, combining, and pairing operations shapes
//!   simulated throughput the way real crypto would;
//! * *unforgeability against the simulated adversary*: tags are
//!   HMAC-SHA-256 under per-replica keys held by a [`KeyStore`]; a
//!   Byzantine replica in the simulation only ever receives its own keys
//!   and therefore cannot fabricate another replica's vote.
//!
//! The hash functions are real: [`sha256`] is a from-scratch SHA-256
//! (tested against NIST vectors) and [`hmac_sha256`] is RFC 2104 HMAC.
//! SHA-256 runs on the CPU's SHA extensions where it has them and on a
//! portable scalar loop elsewhere, with identical output;
//! [`sha256_backend`] reports which. Calling into the hardware kernel
//! is the crate's single `unsafe` block (hence `deny`, not `forbid`,
//! below).
//!
//! # Example
//!
//! ```
//! use marlin_crypto::{KeyStore, QcFormat};
//!
//! // A 4-replica system tolerating f = 1 fault; quorums have n - f = 3 members.
//! let store = KeyStore::generate(4, 1, 0xC0FFEE);
//! let msg = b"view=7 type=PREPARE block=abc";
//!
//! let partials: Vec<_> = (0..3)
//!     .map(|i| store.signer(i).sign_partial(msg))
//!     .collect();
//! let qc_sig = store
//!     .combine(msg, &partials, QcFormat::Threshold)
//!     .expect("quorum of valid partials");
//! assert!(store.verify_combined(msg, &qc_sig));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod digest;
mod hmac;
mod keys;
mod sha256;
mod sig;
mod threshold;

pub use cost::{CostModel, CryptoOp};
pub use digest::Digest;
pub use hmac::hmac_sha256;
pub use keys::{KeyStore, ReplicaIndex, SecretKey, Signer};
pub use sha256::{sha256, sha256_backend, Sha256};
pub use sig::{SigError, Signature, SIGNATURE_LEN};
pub use threshold::{CombinedSig, PartialSig, QcFormat, SignerBitmap, THRESHOLD_SIG_LEN};
