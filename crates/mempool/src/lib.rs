//! The client-facing transaction pool.
//!
//! The seed harness synthesized batches out of thin air: every
//! submitted transaction was appended to an unbounded `VecDeque`,
//! so past saturation the queue — and the blocks drained from it —
//! grew without limit, and goodput *collapsed* instead of plateauing
//! (the fig10 tails). This crate is the fix: admission is bounded and
//! explicit, duplicates are rejected at the door, and what the
//! consensus core drains is exactly what survived admission.
//!
//! Three rules, all deterministic:
//!
//! * **Per-client sequencing** — transaction ids pack the client id in
//!   the high 32 bits and a per-client sequence in the low 32 bits (the
//!   workload convention). A client's admitted sequence numbers are
//!   monotone: an id at or below the client's watermark (its highest
//!   admitted sequence, raised on admit) is a [`Admission::Duplicate`].
//!   Every resident id is at or below its watermark, so that one map
//!   lookup is also the resident-id check; the pool keeps no id set.
//! * **Bounded admission** — at most `capacity` resident transactions
//!   (0 = unbounded, the legacy configuration). An arrival over
//!   capacity gets [`Admission::Full`] — the "try again" backpressure
//!   signal — and mutates nothing, so an overloaded replica sheds load
//!   instead of queueing it. Clients must retry in order: submitting
//!   `seq + 1` before a `Full`-rejected `seq` was admitted abandons
//!   `seq` for good (see [`Admission::Full`]).
//! * **Fee lanes** — a transaction bidding at least
//!   `priority_fee_threshold` (and the threshold is nonzero) joins the
//!   priority lane; [`Mempool::take`] drains priority strictly before
//!   normal. Within a lane, admission order is preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use marlin_types::Transaction;
use std::collections::{hash_map::Entry, HashMap, HashSet, VecDeque};

/// Outcome of offering one transaction to the pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admission {
    /// Queued; will be drained into a batch in lane order.
    Admitted,
    /// Rejected: already resident, or at/below the client's admitted
    /// sequence watermark. Permanent for this id — do not retry.
    Duplicate,
    /// Rejected: the pool is at capacity. Transient backpressure — the
    /// client may retry after commits drain the pool. Nothing about
    /// this transaction was recorded.
    ///
    /// The retry contract is *in-order*: a client must not submit
    /// sequence `k + 1` until sequence `k` was admitted. Submitting
    /// ahead advances the client's watermark past the rejected `k`,
    /// turning every later retry of `k` into a permanent
    /// [`Admission::Duplicate`] even though `k` was never admitted.
    Full,
}

/// Admission-control knobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolConfig {
    /// Maximum resident transactions across both lanes; `0` means
    /// unbounded (the legacy synthetic-workload behavior).
    pub capacity: usize,
    /// Minimum fee bid for the priority lane; `0` disables the
    /// priority lane entirely.
    pub priority_fee_threshold: u8,
}

/// Monotone admission counters, for telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions admitted (both lanes).
    pub admitted: u64,
    /// Of the admitted, how many went to the priority lane.
    pub priority_admitted: u64,
    /// Rejections with [`Admission::Duplicate`].
    pub duplicates: u64,
    /// Rejections with [`Admission::Full`].
    pub rejected_full: u64,
}

/// A bounded, deduplicating, two-lane transaction pool.
#[derive(Clone, Debug)]
pub struct Mempool {
    cfg: MempoolConfig,
    priority: VecDeque<Transaction>,
    normal: VecDeque<Transaction>,
    /// Per-client highest admitted sequence number (from the id's low
    /// 32 bits). Bounded by the number of distinct clients.
    watermark: HashMap<u32, u32>,
    stats: MempoolStats,
}

impl Mempool {
    /// An empty pool under `cfg`.
    pub fn new(cfg: MempoolConfig) -> Self {
        Mempool {
            cfg,
            priority: VecDeque::new(),
            normal: VecDeque::new(),
            watermark: HashMap::new(),
            stats: MempoolStats::default(),
        }
    }

    /// An unbounded pool with no priority lane — drop-in for the
    /// legacy `VecDeque` mempool.
    pub fn unbounded() -> Self {
        Mempool::new(MempoolConfig::default())
    }

    /// The pool's configuration.
    pub fn config(&self) -> MempoolConfig {
        self.cfg
    }

    /// Resident transactions across both lanes.
    pub fn len(&self) -> usize {
        self.priority.len() + self.normal.len()
    }

    /// Whether no transactions are resident.
    pub fn is_empty(&self) -> bool {
        self.priority.is_empty() && self.normal.is_empty()
    }

    /// Resident transactions in the priority lane.
    pub fn priority_len(&self) -> usize {
        self.priority.len()
    }

    /// Cumulative admission counters.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }

    /// Offers one transaction; see [`Admission`] for the outcomes.
    pub fn admit(&mut self, tx: Transaction) -> Admission {
        // One lookup: a resident id is at or below its watermark too.
        let full = self.cfg.capacity > 0 && self.len() >= self.cfg.capacity;
        let seq = tx.seq_of_id();
        match self.watermark.entry(tx.client_of_id()) {
            Entry::Occupied(hi) if seq <= *hi.get() => {
                self.stats.duplicates += 1;
                return Admission::Duplicate;
            }
            _ if full => {
                self.stats.rejected_full += 1;
                return Admission::Full;
            }
            client => *client.or_insert(seq) = seq,
        }
        self.stats.admitted += 1;
        if self.is_priority(&tx) {
            self.stats.priority_admitted += 1;
            self.priority.push_back(tx);
        } else {
            self.normal.push_back(tx);
        }
        Admission::Admitted
    }

    /// Returns previously drained transactions to the *front* of their
    /// lanes, bypassing admission: they were admitted once (their
    /// watermarks are already recorded), so dedup or capacity checks
    /// would wrongly reject them. Used when a sealed dissemination
    /// batch expires without reaching its availability quorum — the
    /// transactions fall back to the inline-proposal path rather than
    /// being dropped. Ids already resident (collected on this rare path
    /// only) are skipped.
    pub fn requeue(&mut self, txs: Vec<Transaction>) {
        let lanes = self.priority.iter().chain(&self.normal);
        let mut resident: HashSet<u64> = lanes.map(|t| t.id).collect();
        for tx in txs.into_iter().rev() {
            if !resident.insert(tx.id) {
                continue;
            }
            if self.is_priority(&tx) {
                self.priority.push_front(tx);
            } else {
                self.normal.push_front(tx);
            }
        }
    }

    /// Drains up to `max` transactions: the priority lane first, then
    /// the normal lane, FIFO within each.
    pub fn take(&mut self, max: usize) -> Vec<Transaction> {
        let mut out = Vec::with_capacity(max.min(self.len()));
        for lane in [&mut self.priority, &mut self.normal] {
            let k = (max - out.len()).min(lane.len());
            out.extend(lane.drain(..k));
        }
        out
    }

    fn is_priority(&self, tx: &Transaction) -> bool {
        self.cfg.priority_fee_threshold > 0 && tx.fee() >= self.cfg.priority_fee_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn tx(client: u32, seq: u32, fee: u8) -> Transaction {
        let id = (u64::from(client) << 32) | u64::from(seq);
        Transaction::new(id, client, Bytes::from(vec![fee; 8]), 0)
    }

    fn bounded(capacity: usize, threshold: u8) -> Mempool {
        Mempool::new(MempoolConfig {
            capacity,
            priority_fee_threshold: threshold,
        })
    }

    #[test]
    fn admits_and_drains_fifo() {
        let mut mp = Mempool::unbounded();
        for seq in 1..=5 {
            assert_eq!(mp.admit(tx(1, seq, 0)), Admission::Admitted);
        }
        assert_eq!(mp.len(), 5);
        let ids: Vec<u32> = mp.take(10).iter().map(Transaction::seq_of_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert!(mp.is_empty());
    }

    #[test]
    fn resident_and_replayed_ids_are_duplicates() {
        let mut mp = Mempool::unbounded();
        assert_eq!(mp.admit(tx(1, 1, 0)), Admission::Admitted);
        assert_eq!(mp.admit(tx(1, 1, 0)), Admission::Duplicate);
        // Drained-and-replayed is still a duplicate (watermark).
        assert_eq!(mp.take(1).len(), 1);
        assert_eq!(mp.admit(tx(1, 1, 0)), Admission::Duplicate);
        // The next sequence is fine; an unrelated client is unaffected.
        assert_eq!(mp.admit(tx(1, 2, 0)), Admission::Admitted);
        assert_eq!(mp.admit(tx(2, 1, 0)), Admission::Admitted);
        assert_eq!(mp.stats().duplicates, 2);
    }

    #[test]
    fn full_pool_rejects_without_state_change() {
        let mut mp = bounded(2, 0);
        assert_eq!(mp.admit(tx(1, 1, 0)), Admission::Admitted);
        assert_eq!(mp.admit(tx(1, 2, 0)), Admission::Admitted);
        assert_eq!(mp.admit(tx(1, 3, 0)), Admission::Full);
        // Full recorded nothing: seq 3 is admittable once space frees.
        mp.take(1);
        assert_eq!(mp.admit(tx(1, 3, 0)), Admission::Admitted);
        assert_eq!(mp.stats().rejected_full, 1);
    }

    #[test]
    fn priority_lane_drains_first() {
        let mut mp = bounded(0, 10);
        mp.admit(tx(1, 1, 0));
        mp.admit(tx(2, 1, 200));
        mp.admit(tx(1, 2, 0));
        mp.admit(tx(2, 2, 10));
        assert_eq!(mp.priority_len(), 2);
        let order: Vec<u64> = mp.take(10).iter().map(|t| t.id).collect();
        assert_eq!(
            order,
            vec![
                tx(2, 1, 0).id,
                tx(2, 2, 0).id,
                tx(1, 1, 0).id,
                tx(1, 2, 0).id
            ]
        );
        assert_eq!(mp.stats().priority_admitted, 2);
    }

    #[test]
    fn requeue_restores_drained_transactions_ahead_of_resident() {
        let mut mp = bounded(4, 10);
        assert_eq!(mp.admit(tx(1, 1, 0)), Admission::Admitted);
        assert_eq!(mp.admit(tx(1, 2, 200)), Admission::Admitted);
        let drained = mp.take(2); // priority seq 2, then seq 1
        assert_eq!(mp.admit(tx(1, 3, 0)), Admission::Admitted);
        // Requeue bypasses the watermark (both seqs are below it) and
        // restores lane order: the priority tx drains first again, and
        // requeued normals come before the younger resident seq 3.
        mp.requeue(drained);
        let order: Vec<u32> = mp.take(10).iter().map(Transaction::seq_of_id).collect();
        assert_eq!(order, vec![2, 1, 3]);
        // A requeue of an id that is already resident is a no-op.
        assert_eq!(mp.admit(tx(1, 4, 0)), Admission::Admitted);
        mp.requeue(vec![tx(1, 4, 0)]);
        assert_eq!(mp.len(), 1);
    }

    #[test]
    fn zero_threshold_disables_priority_lane() {
        let mut mp = Mempool::unbounded();
        mp.admit(tx(1, 1, 255));
        assert_eq!(mp.priority_len(), 0);
    }
}
