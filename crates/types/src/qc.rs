//! Quorum certificates.

use crate::block::{BlockId, BlockKind};
use crate::ids::{Height, View};
use marlin_crypto::{CombinedSig, Digest, KeyStore, PartialSig, QcFormat, Sha256, SignerBitmap};
use std::fmt;

/// The phase a vote or quorum certificate belongs to.
///
/// Marlin uses `PrePrepare` (view change only), `Prepare`, and `Commit`.
/// The HotStuff baseline additionally uses `PreCommit` for its middle
/// phase. The paper's rank rules (Figure 4) treat `Prepare` and `Commit`
/// as one class ranking above `PrePrepare`; `PreCommit` is grouped with
/// that higher class so HotStuff QCs rank consistently.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Phase {
    /// First view-change phase (Marlin) — `pre-prepareQC`.
    PrePrepare,
    /// First normal-case phase — `prepareQC`.
    Prepare,
    /// HotStuff's second phase — `precommitQC`.
    PreCommit,
    /// Final phase — `commitQC`.
    Commit,
}

impl Phase {
    /// Whether this phase belongs to the high rank class of Figure 4
    /// (`PREPARE`/`COMMIT`, plus HotStuff's `PreCommit`).
    pub fn is_high_class(self) -> bool {
        !matches!(self, Phase::PrePrepare)
    }

    fn tag(self) -> u8 {
        match self {
            Phase::PrePrepare => 0,
            Phase::Prepare => 1,
            Phase::PreCommit => 2,
            Phase::Commit => 3,
        }
    }
}

/// The exact content a vote's partial signature covers.
///
/// Every replica voting in a given phase for a given block signs the same
/// seed, which is what makes the partial signatures combinable into a
/// [`Qc`]. The seed also carries enough block metadata (`block_view`,
/// `pview`, `block_kind`) that a QC's rank and validity rules can be
/// evaluated without possessing the block itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QcSeed {
    /// Phase being certified.
    pub phase: Phase,
    /// View in which the certificate forms (`qc.view`).
    pub view: View,
    /// The certified block.
    pub block: BlockId,
    /// Height of the certified block (`qc.height`).
    pub height: Height,
    /// View in which the certified block was proposed.
    pub block_view: View,
    /// View of the certified block's parent (`qc.pview`) — used to
    /// validate virtual blocks (`vc.view = qc.pview`).
    pub pview: View,
    /// Whether the certified block is normal or virtual.
    pub block_kind: BlockKind,
}

impl QcSeed {
    /// Canonical byte string that partial signatures sign.
    pub fn signing_bytes(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"marlin.qc.seed.v1");
        h.update(&[self.phase.tag()]);
        h.update(&self.view.0.to_le_bytes());
        h.update(self.block.digest().as_bytes());
        h.update(&self.height.0.to_le_bytes());
        h.update(&self.block_view.0.to_le_bytes());
        h.update(&self.pview.0.to_le_bytes());
        h.update(&[match self.block_kind {
            BlockKind::Normal => 0u8,
            BlockKind::Virtual => 1u8,
        }]);
        h.finalize().into_bytes()
    }
}

/// A quorum certificate: a combined signature from `n − f` replicas over
/// a [`QcSeed`].
///
/// # Example
///
/// ```
/// use marlin_types::{Qc, BlockId};
///
/// let genesis_qc = Qc::genesis(BlockId::GENESIS);
/// assert!(genesis_qc.is_genesis());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Qc {
    seed: QcSeed,
    sig: CombinedSig,
    /// Memoized `seed.signing_bytes()`, computed once at construction.
    /// Every signature check, justify hash, and verification-cache probe
    /// needs these bytes; certificates are re-verified and re-hashed far
    /// more often than they are built.
    signing: [u8; 32],
}

impl Qc {
    /// Assembles a certificate from a seed and a combined signature.
    ///
    /// The signature's validity is *not* checked here; use
    /// [`Qc::verify`] at trust boundaries.
    pub fn new(seed: QcSeed, sig: CombinedSig) -> Self {
        Qc {
            seed,
            sig,
            signing: seed.signing_bytes(),
        }
    }

    /// The well-known certificate for the genesis block. Its signature is
    /// empty and is special-cased by [`Qc::verify`].
    pub fn genesis(genesis_block: BlockId) -> Self {
        let seed = QcSeed {
            phase: Phase::Prepare,
            view: View::GENESIS,
            block: genesis_block,
            height: Height::GENESIS,
            block_view: View::GENESIS,
            pview: View::GENESIS,
            block_kind: BlockKind::Normal,
        };
        let sig = CombinedSig::from_parts(QcFormat::Threshold, SignerBitmap::empty(), Digest::ZERO);
        Qc::new(seed, sig)
    }

    /// Whether this is the genesis certificate.
    pub fn is_genesis(&self) -> bool {
        self.seed.view == View::GENESIS && self.seed.height == Height::GENESIS
    }

    /// The certified seed.
    pub fn seed(&self) -> &QcSeed {
        &self.seed
    }

    /// The seed's canonical signing bytes, memoized at construction.
    /// Prefer this over `seed().signing_bytes()` on hot paths — the
    /// latter recomputes a SHA-256 every call.
    pub fn signing_bytes(&self) -> &[u8; 32] {
        &self.signing
    }

    /// The combined signature.
    pub fn sig(&self) -> &CombinedSig {
        &self.sig
    }

    /// `type(qc)` — the phase this certificate belongs to.
    pub fn phase(&self) -> Phase {
        self.seed.phase
    }

    /// `qc.view` — the view in which this certificate formed.
    pub fn view(&self) -> View {
        self.seed.view
    }

    /// `block(qc)` — the id of the certified block.
    pub fn block(&self) -> BlockId {
        self.seed.block
    }

    /// `qc.height` — height of the certified block.
    pub fn height(&self) -> Height {
        self.seed.height
    }

    /// View in which the certified block was proposed.
    pub fn block_view(&self) -> View {
        self.seed.block_view
    }

    /// `qc.pview` — view of the certified block's parent.
    pub fn pview(&self) -> View {
        self.seed.pview
    }

    /// Whether the certified block is normal or virtual.
    pub fn block_kind(&self) -> BlockKind {
        self.seed.block_kind
    }

    /// Verifies the certificate's combined signature against `keys`.
    ///
    /// The genesis certificate is always valid.
    pub fn verify(&self, keys: &KeyStore) -> bool {
        if self.is_genesis() {
            return true;
        }
        keys.verify_combined(&self.signing, &self.sig)
    }

    /// Combines `partials` (each signed over `seed.signing_bytes()`) into
    /// a certificate.
    ///
    /// # Errors
    ///
    /// Propagates [`marlin_crypto::SigError`] if fewer than `n − f`
    /// distinct valid partial signatures are supplied.
    pub fn combine(
        seed: QcSeed,
        partials: &[PartialSig],
        keys: &KeyStore,
        format: QcFormat,
    ) -> Result<Self, marlin_crypto::SigError> {
        let signing = seed.signing_bytes();
        let sig = keys.combine(&signing, partials, format)?;
        Ok(Qc { seed, sig, signing })
    }

    /// Bytes this certificate occupies on the wire (seed metadata plus
    /// the format-dependent signature size).
    pub fn wire_len(&self) -> usize {
        crate::codec::measure(|w| crate::codec::put_qc(w, self)).bytes
    }

    /// Authenticators this certificate counts as under the paper's
    /// complexity metric.
    pub fn authenticator_count(&self) -> usize {
        if self.is_genesis() {
            0
        } else {
            self.sig.authenticator_count()
        }
    }
}

impl fmt::Debug for Qc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Qc({:?} {:?} {:?} blk={} bv={:?})",
            self.seed.phase,
            self.seed.view,
            self.seed.height,
            self.seed.block.digest().short(),
            self.seed.block_view,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_crypto::KeyStore;

    fn seed(phase: Phase, view: u64, height: u64) -> QcSeed {
        QcSeed {
            phase,
            view: View(view),
            block: BlockId::from_digest(marlin_crypto::sha256(&height.to_le_bytes())),
            height: Height(height),
            block_view: View(view),
            pview: View(view.saturating_sub(1)),
            block_kind: BlockKind::Normal,
        }
    }

    #[test]
    fn genesis_qc_is_valid_everywhere() {
        let keys = KeyStore::generate(4, 1, 1);
        let qc = Qc::genesis(BlockId::GENESIS);
        assert!(qc.is_genesis());
        assert!(qc.verify(&keys));
        assert_eq!(qc.authenticator_count(), 0);
    }

    #[test]
    fn combine_and_verify_round_trip() {
        let keys = KeyStore::generate(4, 1, 1);
        let s = seed(Phase::Prepare, 3, 7);
        let partials: Vec<_> = (0..3)
            .map(|i| keys.signer(i).sign_partial(&s.signing_bytes()))
            .collect();
        let qc = Qc::combine(s, &partials, &keys, QcFormat::Threshold).unwrap();
        assert!(qc.verify(&keys));
        assert_eq!(qc.phase(), Phase::Prepare);
        assert_eq!(qc.view(), View(3));
        assert_eq!(qc.height(), Height(7));
    }

    #[test]
    fn combine_rejects_subquorum() {
        let keys = KeyStore::generate(4, 1, 1);
        let s = seed(Phase::Commit, 1, 1);
        let partials: Vec<_> = (0..2)
            .map(|i| keys.signer(i).sign_partial(&s.signing_bytes()))
            .collect();
        assert!(Qc::combine(s, &partials, &keys, QcFormat::Threshold).is_err());
    }

    #[test]
    fn verify_rejects_seed_substitution() {
        let keys = KeyStore::generate(4, 1, 1);
        let s = seed(Phase::Prepare, 3, 7);
        let partials: Vec<_> = (0..3)
            .map(|i| keys.signer(i).sign_partial(&s.signing_bytes()))
            .collect();
        let qc = Qc::combine(s, &partials, &keys, QcFormat::Threshold).unwrap();
        // Re-bind the signature to a different seed: must fail.
        let other = seed(Phase::Prepare, 4, 8);
        let forged = Qc::new(other, *qc.sig());
        assert!(!forged.verify(&keys));
    }

    #[test]
    fn seeds_differing_in_any_field_sign_differently() {
        let base = seed(Phase::Prepare, 3, 7);
        let variants = [
            QcSeed {
                phase: Phase::Commit,
                ..base
            },
            QcSeed {
                view: View(4),
                ..base
            },
            QcSeed {
                height: Height(8),
                ..base
            },
            QcSeed {
                block_view: View(9),
                ..base
            },
            QcSeed {
                pview: View(9),
                ..base
            },
            QcSeed {
                block_kind: BlockKind::Virtual,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.signing_bytes(), base.signing_bytes(), "{v:?}");
        }
    }

    #[test]
    fn wire_len_reflects_format() {
        let keys = KeyStore::generate(4, 1, 1);
        let s = seed(Phase::Prepare, 1, 1);
        let partials: Vec<_> = (0..3)
            .map(|i| keys.signer(i).sign_partial(&s.signing_bytes()))
            .collect();
        let thr = Qc::combine(s, &partials, &keys, QcFormat::Threshold).unwrap();
        let grp = Qc::combine(s, &partials, &keys, QcFormat::SigGroup).unwrap();
        assert!(grp.wire_len() > thr.wire_len());
        assert_eq!(thr.wire_len(), 66 + 96);
    }

    #[test]
    fn memoized_signing_bytes_match_seed() {
        let keys = KeyStore::generate(4, 1, 1);
        let s = seed(Phase::Commit, 5, 9);
        let partials: Vec<_> = (0..3)
            .map(|i| keys.signer(i).sign_partial(&s.signing_bytes()))
            .collect();
        let qc = Qc::combine(s, &partials, &keys, QcFormat::Threshold).unwrap();
        assert_eq!(qc.signing_bytes(), &qc.seed().signing_bytes());
        let rebuilt = Qc::new(*qc.seed(), *qc.sig());
        assert_eq!(rebuilt.signing_bytes(), qc.signing_bytes());
        assert_eq!(
            Qc::genesis(BlockId::GENESIS).signing_bytes(),
            &Qc::genesis(BlockId::GENESIS).seed().signing_bytes()
        );
    }

    #[test]
    fn phase_classes() {
        assert!(!Phase::PrePrepare.is_high_class());
        assert!(Phase::Prepare.is_high_class());
        assert!(Phase::PreCommit.is_high_class());
        assert!(Phase::Commit.is_high_class());
    }
}
