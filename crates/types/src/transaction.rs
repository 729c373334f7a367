//! Client operations and batches.

use crate::preimage::Preimage;
use bytes::Bytes;
use marlin_crypto::Digest;
use std::fmt;
use std::sync::Arc;

/// A client operation (`op` in the paper's block syntax).
///
/// The evaluation uses 150-byte transactions and replies, plus a "no-op"
/// configuration with empty payloads (Section VI). The payload is real
/// bytes so application state machines (e.g. the replicated KV example)
/// can interpret them, while the simulator uses [`Transaction::wire_len`]
/// for its bandwidth model.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Unique transaction id (client id in the high bits, sequence in the
    /// low bits, by convention of the workload generator).
    pub id: u64,
    /// Submitting client.
    pub client: u32,
    /// Operation payload. Decoded off the wire it is a slice of the
    /// frame it arrived in, and keeps that frame alive (DESIGN.md §17.3).
    pub payload: Bytes,
    /// Simulation time (ns) at which the client submitted the operation;
    /// used for end-to-end latency measurement. Not part of the signed
    /// content in a real system, carried here for bookkeeping.
    pub submitted_at_ns: u64,
}

impl Transaction {
    /// Fixed per-transaction wire overhead: id + client + length prefix
    /// + client timestamp.
    pub const HEADER_LEN: usize = 8 + 4 + 4 + 8;

    /// Sentinel client id for operations submitted *at* a replica (the
    /// runtime's load generator, an internal reconfiguration op): there
    /// is no client network round trip, so latency accounting must not
    /// add modeled client legs for them.
    pub const LOCAL_CLIENT: u32 = u32::MAX;

    /// Whether this operation was submitted locally at a replica (see
    /// [`Transaction::LOCAL_CLIENT`]).
    pub fn is_local(&self) -> bool {
        self.client == Self::LOCAL_CLIENT
    }

    /// Creates a transaction.
    pub fn new(id: u64, client: u32, payload: Bytes, submitted_at_ns: u64) -> Self {
        Transaction {
            id,
            client,
            payload,
            submitted_at_ns,
        }
    }

    /// A zero-payload transaction (the paper's "no-op request").
    pub fn no_op(id: u64, client: u32, submitted_at_ns: u64) -> Self {
        Transaction::new(id, client, Bytes::new(), submitted_at_ns)
    }

    /// Bytes this transaction occupies on the wire.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }

    /// The client id packed into the high 32 bits of the transaction id
    /// (the workload-generator convention).
    pub fn client_of_id(&self) -> u32 {
        (self.id >> 32) as u32
    }

    /// The per-client sequence number packed into the low 32 bits of
    /// the transaction id.
    pub fn seq_of_id(&self) -> u32 {
        self.id as u32
    }

    /// The transaction's fee bid, by workload convention the first
    /// payload byte (zero for empty payloads). Fees are a lane-selection
    /// hint for the mempool, not signed content, so reusing a payload
    /// byte keeps the wire format and block ids untouched.
    pub fn fee(&self) -> u8 {
        self.payload.first().copied().unwrap_or(0)
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tx(#{} c{} {}B)",
            self.id,
            self.client,
            self.payload.len()
        )
    }
}

/// Identifies a disseminated batch by the SHA-256 digest of its
/// transactions.
///
/// The digest covers exactly the per-transaction fields that
/// [`Block`](crate::Block) ids cover (`id`, `client`, `payload` — not
/// `submitted_at_ns`), so a batch fetched by digest reconstructs a
/// byte-identical block id on every replica regardless of when each
/// replica first saw the transactions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BatchId(pub(crate) Digest);

impl BatchId {
    /// Wraps a digest as a batch id.
    pub fn from_digest(digest: Digest) -> Self {
        BatchId(digest)
    }

    /// The underlying digest.
    pub fn digest(&self) -> Digest {
        self.0
    }
}

impl fmt::Debug for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch:{}", self.0.short())
    }
}

impl fmt::Display for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.short())
    }
}

/// An ordered batch of transactions proposed in one block.
///
/// Internally the transactions live behind an `Arc<[Transaction]>`, so
/// cloning a batch — which the simulator does once per broadcast
/// recipient, per phase — is a reference-count bump regardless of batch
/// size. The wire length is computed once at construction for the same
/// reason: the bandwidth model asks for it on every transmission.
///
/// Batches are immutable after construction; [`Batch::extend`] rebuilds
/// the backing allocation and is the one O(n) escape hatch.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Batch {
    txs: Arc<[Transaction]>,
    /// Memoized [`Batch::wire_len`] (count prefix + per-tx wire bytes).
    wire: usize,
}

impl Batch {
    /// The empty batch (used by genesis and leader no-op proposals).
    pub fn empty() -> Self {
        Batch {
            txs: Arc::from(Vec::new()),
            wire: 4,
        }
    }

    /// Wraps transactions into a batch.
    pub fn new(txs: Vec<Transaction>) -> Self {
        let wire = 4 + txs.iter().map(Transaction::wire_len).sum::<usize>();
        Batch {
            txs: Arc::from(txs),
            wire,
        }
    }

    /// Number of transactions in the batch.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the batch holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Iterates over the batch's transactions.
    pub fn iter(&self) -> std::slice::Iter<'_, Transaction> {
        self.txs.iter()
    }

    /// Borrows the underlying transactions.
    pub fn transactions(&self) -> &[Transaction] {
        &self.txs
    }

    /// Whether `self` and `other` share one backing allocation (i.e. one
    /// is a clone of the other). Clones made for fan-out must satisfy
    /// this — it is what makes them O(1).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.txs, &other.txs)
    }

    /// Total wire bytes of all transactions plus the count prefix.
    pub fn wire_len(&self) -> usize {
        self.wire
    }

    /// Content digest for digest-addressed dissemination (see
    /// [`BatchId`] for what it covers and why): SHA-256 over
    /// `"marlin.batch.v1"` and the length-prefixed transaction list.
    pub fn digest(&self) -> BatchId {
        let mut p = Preimage::new(b"marlin.batch.v1");
        p.put_transactions(&self.txs);
        BatchId::from_digest(p.finish())
    }
}

impl Default for Batch {
    fn default() -> Self {
        Batch::empty()
    }
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Batch({} txs, {}B)", self.txs.len(), self.wire_len())
    }
}

impl FromIterator<Transaction> for Batch {
    fn from_iter<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        Batch::new(iter.into_iter().collect())
    }
}

impl Extend<Transaction> for Batch {
    /// Rebuilds the backing allocation (copy-on-write): existing clones
    /// of this batch keep the old contents.
    fn extend<I: IntoIterator<Item = Transaction>>(&mut self, iter: I) {
        let mut txs = self.txs.to_vec();
        txs.extend(iter);
        *self = Batch::new(txs);
    }
}

impl IntoIterator for Batch {
    type Item = Transaction;
    type IntoIter = std::vec::IntoIter<Transaction>;

    // The iterator must own its items (`self` is consumed but the slice
    // may be shared), so a Vec is unavoidable; Transaction clones are
    // cheap — the payload is refcounted.
    #[allow(clippy::unnecessary_to_owned)]
    fn into_iter(self) -> Self::IntoIter {
        self.txs.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a Transaction;
    type IntoIter = std::slice::Iter<'a, Transaction>;

    fn into_iter(self) -> Self::IntoIter {
        self.txs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(id: u64, len: usize) -> Transaction {
        Transaction::new(id, 0, Bytes::from(vec![0u8; len]), 0)
    }

    #[test]
    fn wire_len_accounts_header_and_payload() {
        let t = tx(1, 150);
        assert_eq!(t.wire_len(), Transaction::HEADER_LEN + 150);
        let noop = Transaction::no_op(2, 0, 0);
        assert_eq!(noop.wire_len(), Transaction::HEADER_LEN);
    }

    #[test]
    fn batch_wire_len_sums() {
        let b = Batch::new(vec![tx(1, 10), tx(2, 20)]);
        assert_eq!(b.wire_len(), 4 + 2 * Transaction::HEADER_LEN + 30);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert!(Batch::empty().is_empty());
    }

    #[test]
    fn batch_clone_shares_backing_storage() {
        let b = Batch::new((0..1000).map(|i| tx(i, 150)).collect());
        let c = b.clone();
        assert!(b.ptr_eq(&c), "clone must be a refcount bump, not a copy");
        assert_eq!(b, c);
        // Extending one side rebuilds it and leaves the other untouched.
        let mut d = c.clone();
        d.extend([tx(1000, 1)]);
        assert!(!d.ptr_eq(&b));
        assert_eq!(b.len(), 1000);
        assert_eq!(d.len(), 1001);
    }

    #[test]
    fn batch_wire_len_is_memoized_consistently() {
        for sizes in [vec![], vec![0usize], vec![10, 20, 0, 150]] {
            let b: Batch = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| tx(i as u64, len))
                .collect();
            let recomputed = 4 + b.iter().map(Transaction::wire_len).sum::<usize>();
            assert_eq!(b.wire_len(), recomputed);
        }
    }

    #[test]
    fn digest_excludes_submission_time_but_binds_content() {
        let a = Batch::new(vec![
            Transaction::new(1, 0, Bytes::from_static(b"x"), 100),
            Transaction::new(2, 0, Bytes::from_static(b"y"), 200),
        ]);
        let b = Batch::new(vec![
            Transaction::new(1, 0, Bytes::from_static(b"x"), 999),
            Transaction::new(2, 0, Bytes::from_static(b"y"), 0),
        ]);
        assert_eq!(a.digest(), b.digest());
        let different_payload = Batch::new(vec![
            Transaction::new(1, 0, Bytes::from_static(b"z"), 100),
            Transaction::new(2, 0, Bytes::from_static(b"y"), 200),
        ]);
        assert_ne!(a.digest(), different_payload.digest());
        let different_order = Batch::new(vec![
            Transaction::new(2, 0, Bytes::from_static(b"y"), 200),
            Transaction::new(1, 0, Bytes::from_static(b"x"), 100),
        ]);
        assert_ne!(a.digest(), different_order.digest());
        assert_ne!(a.digest(), Batch::empty().digest());
    }

    #[test]
    fn digest_is_unambiguous_across_payload_boundaries() {
        // Two 2-tx batches whose concatenated (id | client | payload)
        // streams are byte-identical: `a` puts 0xAA at the end of tx 1's
        // payload, `b` shifts those bytes into tx 2's id/client/payload
        // fields. Without per-payload length prefixes they collide.
        let a = Batch::new(vec![
            Transaction::new(1, 0, Bytes::from_static(&[0xAA]), 0),
            Transaction::new(2, 0, Bytes::new(), 0),
        ]);
        let b = Batch::new(vec![
            Transaction::new(1, 0, Bytes::new(), 0),
            Transaction::new(0x02AA, 0, Bytes::from_static(&[0x00]), 0),
        ]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn fee_is_first_payload_byte() {
        let t = Transaction::new(1, 0, Bytes::from_static(&[9, 1, 2]), 0);
        assert_eq!(t.fee(), 9);
        assert_eq!(Transaction::no_op(2, 0, 0).fee(), 0);
    }

    #[test]
    fn id_packing_accessors() {
        let t = Transaction::new((7u64 << 32) | 42, 7, Bytes::new(), 0);
        assert_eq!(t.client_of_id(), 7);
        assert_eq!(t.seq_of_id(), 42);
    }

    #[test]
    fn batch_collects_and_extends() {
        let mut b: Batch = (0..3).map(|i| tx(i, 1)).collect();
        b.extend([tx(3, 1)]);
        assert_eq!(b.len(), 4);
        let ids: Vec<u64> = (&b).into_iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let owned: Vec<Transaction> = b.into_iter().collect();
        assert_eq!(owned.len(), 4);
    }
}
