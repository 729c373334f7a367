//! Client operations and batches.

use crate::preimage::Preimage;
use bytes::{BufMut, Bytes, BytesMut};
use marlin_crypto::Digest;
use std::fmt;
use std::sync::OnceLock;

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

/// An ordered batch of transactions proposed in one block, held as its
/// wire encoding: a `u32` count, then per transaction `id ‖ client ‖
/// payload length (u32) ‖ submitted_at_ns ‖ payload`, little-endian.
///
/// [`Batch::new`] encodes once, at the leader; a decoded batch is one
/// slice of the frame it arrived in (DESIGN.md §17.3). Either way a
/// clone — which the simulator makes once per broadcast recipient, per
/// phase — is one reference-count bump, the codec writes the bytes as
/// they are, and block ids and digests hash the fields straight out of
/// them. [`Batch::iter`] reads the transactions back as borrowed views.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Batch {
    bytes: Bytes,
    len: usize,
}

impl Batch {
    /// The empty batch (used by genesis and leader no-op proposals). Its
    /// four bytes are allocated once per process, not per call.
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Batch> = OnceLock::new();
        EMPTY.get_or_init(|| Batch::new(Vec::new())).clone()
    }

    /// Encodes transactions into a batch.
    pub fn new(txs: Vec<Transaction>) -> Self {
        let wire = 4 + txs.iter().map(Transaction::wire_len).sum::<usize>();
        let mut w = BytesMut::with_capacity(wire);
        w.put_u32_le(txs.len() as u32);
        for tx in &txs {
            w.put_u64_le(tx.id);
            w.put_u32_le(tx.client);
            w.put_u32_le(tx.payload.len() as u32);
            w.put_u64_le(tx.submitted_at_ns);
            w.put_slice(&tx.payload);
        }
        Batch::from_wire(w.freeze(), txs.len())
    }

    /// Wraps `bytes`, the wire encoding of `len` transactions whose
    /// every header and payload length lies within it (as the decoder's
    /// walk checks); [`Batch::iter`] relies on that.
    pub(crate) fn from_wire(bytes: Bytes, len: usize) -> Self {
        Batch { bytes, len }
    }

    /// The wire encoding.
    pub(crate) fn wire(&self) -> &Bytes {
        &self.bytes
    }

    /// Number of transactions in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the batch's transactions, in order, as views into
    /// its bytes.
    pub fn iter(&self) -> BatchIter<'_> {
        BatchIter {
            bytes: &self.bytes,
            rest: &self.bytes[4..],
        }
    }

    /// Whether `self` and `other` share one backing allocation (i.e. one
    /// is a clone of the other). Clones made for fan-out must satisfy
    /// this — it is what makes them O(1).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Bytes::ptr_eq(&self.bytes, &other.bytes)
    }

    /// Total wire bytes of all transactions plus the count prefix.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Content digest for digest-addressed dissemination (see
    /// [`BatchId`] for what it covers and why): SHA-256 over
    /// `"marlin.batch.v1"` and the length-prefixed transaction list.
    pub fn digest(&self) -> BatchId {
        let mut p = Preimage::new(b"marlin.batch.v1");
        p.put_transactions(self);
        BatchId::from_digest(p.finish())
    }
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Batch({} txs, {}B)", self.len, self.wire_len())
    }
}

/// One transaction of a [`Batch`], borrowed from the batch's bytes.
#[derive(Clone, Copy)]
pub struct TxView<'a> {
    /// See [`Transaction::id`].
    pub id: u64,
    /// See [`Transaction::client`].
    pub client: u32,
    /// See [`Transaction::payload`].
    pub payload: &'a [u8],
    /// See [`Transaction::submitted_at_ns`].
    pub submitted_at_ns: u64,
    /// The wire header, `id ‖ client ‖ len ‖ submitted_at_ns`.
    pub(crate) header: &'a [u8; Transaction::HEADER_LEN],
    batch: &'a Bytes,
}

impl TxView<'_> {
    /// An owned transaction. Its payload is a slice of the batch's
    /// bytes, so it keeps all of them alive until dropped.
    pub fn to_transaction(self) -> Transaction {
        let payload = self.batch.slice_ref(self.payload);
        Transaction::new(self.id, self.client, payload, self.submitted_at_ns)
    }
}

/// The iterator [`Batch::iter`] returns.
pub struct BatchIter<'a> {
    bytes: &'a Bytes,
    rest: &'a [u8],
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = TxView<'a>;

    fn next(&mut self) -> Option<TxView<'a>> {
        let (header, rest) = self
            .rest
            .split_first_chunk::<{ Transaction::HEADER_LEN }>()?;
        let field = |at: usize, n: usize| {
            let mut le = [0u8; 8];
            le[..n].copy_from_slice(&header[at..at + n]);
            u64::from_le_bytes(le)
        };
        let (payload, rest) = rest.split_at(field(12, 4) as usize);
        self.rest = rest;
        Some(TxView {
            id: field(0, 8),
            client: field(8, 4) as u32,
            payload,
            submitted_at_ns: field(16, 8),
            header,
            batch: self.bytes,
        })
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
        assert!(!b.ptr_eq(&Batch::new((0..1000).map(|i| tx(i, 150)).collect())));
        assert!(Batch::empty().ptr_eq(&Batch::empty()));
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
    fn owned_transactions_pin_the_batch_bytes() {
        let txs = vec![tx(0, 3), tx(1, 0), tx(2, 150)];
        let b = Batch::new(txs.clone());
        let owned: Vec<Transaction> = b.iter().map(|t| t.to_transaction()).collect();
        assert_eq!(owned, txs);
        let (wire, payload) = (b.wire().as_ptr_range(), owned[2].payload.as_ptr_range());
        assert!(wire.start <= payload.start && payload.end <= wire.end);
    }
}
