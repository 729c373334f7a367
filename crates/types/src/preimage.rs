//! Hash preimages assembled from many small fields.

use crate::transaction::Batch;
use marlin_crypto::{Digest, Sha256};

/// Staging bytes: large enough that the hasher sees runs of dozens of
/// blocks, small enough to live on the stack.
const STAGE_LEN: usize = 4096;

/// A SHA-256 preimage written field by field.
///
/// Block ids and batch digests are hashes over hundreds of 4- to
/// 150-byte fields. Handed to [`Sha256::update`] one at a time, each
/// field pays the hasher's partial-block bookkeeping and the
/// compression function runs one block per call; staged here first, the
/// same bytes reach it as a few multi-kilobyte contiguous runs. The
/// digest is that of the concatenated fields either way.
pub(crate) struct Preimage {
    hasher: Sha256,
    stage: [u8; STAGE_LEN],
    staged: usize,
}

impl Preimage {
    /// Starts a preimage with its domain-separation tag.
    pub(crate) fn new(domain: &[u8]) -> Self {
        let mut p = Preimage {
            hasher: Sha256::new(),
            stage: [0u8; STAGE_LEN],
            staged: 0,
        };
        p.put(domain);
        p
    }

    /// Appends one field.
    pub(crate) fn put(&mut self, field: &[u8]) {
        if field.len() > STAGE_LEN - self.staged {
            self.hasher.update(&self.stage[..self.staged]);
            self.staged = 0;
            if field.len() >= STAGE_LEN {
                self.hasher.update(field);
                return;
            }
        }
        self.stage[self.staged..self.staged + field.len()].copy_from_slice(field);
        self.staged += field.len();
    }

    /// Appends an ordered transaction list: a `u64` count, then per
    /// transaction `id ‖ client ‖ payload length (u32) ‖ payload`, all
    /// little-endian. `submitted_at_ns` is bookkeeping and stays out.
    ///
    /// The length prefix is what makes the encoding injective: without
    /// it the boundary between one payload and the next transaction's
    /// fixed fields is ambiguous, and two different lists could share a
    /// byte stream (and so a digest).
    pub(crate) fn put_transactions(&mut self, batch: &Batch) {
        self.put(&(batch.len() as u64).to_le_bytes());
        for tx in batch.iter() {
            // `id ‖ client ‖ len`: the wire header up to its timestamp.
            self.put(&tx.header[..16]);
            self.put(tx.payload);
        }
    }

    /// The digest of everything appended.
    pub(crate) fn finish(mut self) -> Digest {
        self.hasher.update(&self.stage[..self.staged]);
        self.hasher.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_that_of_the_concatenated_fields() {
        // Field sizes on both sides of the staging length, so every
        // branch of `put` (stage, flush-then-stage, bypass) runs.
        let fields: Vec<Vec<u8>> = [
            0usize,
            1,
            150,
            STAGE_LEN - 200,
            300,
            STAGE_LEN,
            7,
            3 * STAGE_LEN + 5,
            64,
        ]
        .iter()
        .enumerate()
        .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
        .collect();
        let mut p = Preimage::new(b"tag");
        let mut flat = b"tag".to_vec();
        for f in &fields {
            p.put(f);
            flat.extend_from_slice(f);
        }
        assert_eq!(p.finish(), marlin_crypto::sha256(&flat));
    }
}
