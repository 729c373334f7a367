//! The payload plane: Narwhal-style batch dissemination decoupled from
//! proposals.
//!
//! With [`crate::Config::dissemination`] on, a replica seals admitted
//! transactions into digest-addressed batches, pushes each batch to all
//! peers (`PAYLOAD-PUSH`), and collects availability acknowledgements
//! (`PAYLOAD-ACK`). Once `n − f` replicas — the pusher included — hold
//! a batch, its digest is *ready*: a leader proposes the digest instead
//! of the batch, shrinking its egress per committed transaction from
//! O(batch) to O(digest). A replica that receives a digest it cannot
//! resolve fetches it (`PAYLOAD-REQUEST` / `PAYLOAD-RESPONSE`) — the
//! fallback that keeps the digest path safe when a push was lost.
//!
//! This module tracks only availability bookkeeping; the consensus
//! protocols decide when to seal and what to propose.

use marlin_types::{Batch, BatchId, Message, MsgBody, ReplicaId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Resolved batches kept around for digest proposals and fetch serving,
/// beyond the ones still sealed or ready (which are never evicted).
const STORE_CAP: usize = 128;

/// *Silent* ticks of [`PayloadPlane::tick`] before a sealed batch that
/// has not reached its availability quorum is retransmitted. A seal's
/// clock counts silence, not absolute age — every fresh ack resets it —
/// so under congestion (acks merely delayed, nothing lost) no bandwidth
/// is wasted re-pushing batches the network is still delivering. Ticks
/// arrive at heartbeat cadence (a quarter of the view timeout).
const REPUSH_EVERY: u32 = 2;

/// Silent ticks after which an unacked seal is abandoned and its
/// transactions handed back for the inline-proposal path. A lost push
/// to more than `f` peers must not occupy a dissemination-window slot
/// forever — and at heartbeat cadence, three ticks keep the fallback
/// inside one view timeout, so a wedged leader recovers without losing
/// its view. Expiry requires total silence for the whole window: a
/// single in-flight ack buys the seal another three ticks.
const EXPIRE_AFTER: u32 = 3;

/// What [`PayloadPlane::handle`] did with a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PayloadOutcome {
    /// Not a payload-plane message; the caller keeps dispatching.
    NotPayload,
    /// Consumed with no protocol-visible state change.
    Consumed,
    /// A fetched batch arrived: digest proposals buffered on this
    /// digest can now be replayed.
    Resolved(BatchId),
    /// A fetch target answered that it no longer holds the batch
    /// (evicted, or crashed and restarted): the caller should retry
    /// against the availability quorum instead of waiting forever.
    Unavailable(BatchId),
    /// One of our sealed batches reached its availability quorum; a
    /// leader with nothing in flight should propose.
    QuorumReached,
}

/// A sealed batch awaiting its availability quorum.
#[derive(Clone, Debug, Default)]
struct Seal {
    /// Replicas that acked the push (the pusher self-acks at seal time).
    acks: HashSet<ReplicaId>,
    /// Ticks since the last progress (sealing or a fresh ack), for
    /// retransmission and expiry.
    age: u32,
}

/// What one retransmit/expiry tick decided (see [`PayloadPlane::tick`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct PayloadTick {
    /// Sealed batches overdue for a retransmission: push them again.
    pub repush: Vec<(BatchId, Batch)>,
    /// Seals abandoned after [`EXPIRE_AFTER`] ticks without a quorum;
    /// their transactions belong back in the mempool.
    pub expired: Vec<(BatchId, Batch)>,
}

/// Per-replica payload-plane state. Inert (and empty) unless
/// dissemination is enabled.
#[derive(Clone, Debug, Default)]
pub(crate) struct PayloadPlane {
    /// Digest-addressed batches this replica holds (own and pushed).
    store: HashMap<BatchId, Batch>,
    /// Insertion order of `store`, for FIFO eviction.
    order: VecDeque<BatchId>,
    /// Own sealed batches awaiting their availability quorum.
    sealed: HashMap<BatchId, Seal>,
    /// Seal order, so digests are proposed in the order clients
    /// submitted their transactions.
    sealed_order: VecDeque<BatchId>,
    /// Own quorum-acked digests, ready to propose (FIFO).
    ready: VecDeque<BatchId>,
}

impl PayloadPlane {
    /// The batch behind `digest`, if this replica holds it.
    pub fn batch(&self, digest: &BatchId) -> Option<&Batch> {
        self.store.get(digest)
    }

    /// Whether any sealed batch is awaiting its quorum or a ready
    /// digest is awaiting proposal.
    pub fn has_work(&self) -> bool {
        !self.sealed.is_empty() || !self.ready.is_empty()
    }

    /// Sealed batches in flight (pushed, not yet proposed).
    pub fn in_flight(&self) -> usize {
        self.sealed.len() + self.ready.len()
    }

    /// The next quorum-acked digest to propose, if any. The popped
    /// digest's eviction slot is refreshed to youngest: it leaves the
    /// pinned `ready` set here, but lagging replicas are about to fetch
    /// exactly this batch, so it must not be the next FIFO victim.
    pub fn pop_ready(&mut self) -> Option<BatchId> {
        let digest = self.ready.pop_front()?;
        if let Some(idx) = self.order.iter().position(|d| d == &digest) {
            self.order.remove(idx);
            self.order.push_back(digest);
        }
        Some(digest)
    }

    /// Records a locally sealed batch: stores it, self-acks, and
    /// starts waiting for peer acks. The caller broadcasts the push.
    pub fn seal(&mut self, digest: BatchId, batch: Batch, me: ReplicaId) {
        self.insert(digest, batch);
        self.sealed.entry(digest).or_default().acks.insert(me);
        self.sealed_order.push_back(digest);
    }

    /// Stores a batch under its digest, evicting the oldest evictable
    /// entry over capacity. Sealed and ready digests are pinned: they
    /// are needed verbatim for an upcoming proposal. First write wins —
    /// a digest already resident keeps its original batch, so a later
    /// (potentially adversarial) push can never swap the bytes behind a
    /// digest other parts of the replica already rely on.
    fn insert(&mut self, digest: BatchId, batch: Batch) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.store.entry(digest) {
            slot.insert(batch);
            self.order.push_back(digest);
        }
        while self.order.len() > STORE_CAP {
            let Some(idx) = self
                .order
                .iter()
                .position(|d| !self.sealed.contains_key(d) && !self.ready.contains(d))
            else {
                break;
            };
            let evict = self.order.remove(idx).expect("index in range");
            self.store.remove(&evict);
        }
    }

    /// Records `from`'s ack for `digest`; returns `true` when this ack
    /// completes the availability quorum and moves the digest to ready.
    /// A fresh ack is progress and resets the seal's retransmit/expiry
    /// clock (a duplicate from the same replica does not, so a Byzantine
    /// trickler buys a seal at most one extension).
    pub fn ack(&mut self, digest: BatchId, from: ReplicaId, quorum: usize) -> bool {
        let Some(seal) = self.sealed.get_mut(&digest) else {
            return false; // unknown or already-ready digest: stale ack
        };
        if seal.acks.insert(from) {
            seal.age = 0;
        }
        if seal.acks.len() < quorum {
            return false;
        }
        self.sealed.remove(&digest);
        self.sealed_order.retain(|d| d != &digest);
        self.ready.push_back(digest);
        true
    }

    /// Advances the retransmit/expiry clock one tick: sealed batches
    /// that missed their quorum for [`REPUSH_EVERY`] ticks are returned
    /// for retransmission, and seals older than [`EXPIRE_AFTER`] ticks
    /// are abandoned — unpinned, dropped from the store, and their
    /// batches returned so the caller can requeue the transactions.
    /// Without this, one lost push could occupy a dissemination-window
    /// slot forever and wedge sealing (and leader proposals) for good.
    pub fn tick(&mut self) -> PayloadTick {
        let mut out = PayloadTick::default();
        let mut expired: Vec<BatchId> = Vec::new();
        for digest in self.sealed_order.iter() {
            let seal = self
                .sealed
                .get_mut(digest)
                .expect("sealed_order tracks sealed");
            seal.age += 1;
            if seal.age >= EXPIRE_AFTER {
                expired.push(*digest);
            } else if seal.age.is_multiple_of(REPUSH_EVERY) {
                if let Some(batch) = self.store.get(digest) {
                    out.repush.push((*digest, batch.clone()));
                }
            }
        }
        for digest in expired {
            self.sealed.remove(&digest);
            self.sealed_order.retain(|d| d != &digest);
            self.order.retain(|d| d != &digest);
            if let Some(batch) = self.store.remove(&digest) {
                out.expired.push((digest, batch));
            }
        }
        out
    }

    /// Handles the four payload-plane messages. `me` filters loopback
    /// copies of our own broadcasts; `quorum` is `n − f`.
    pub fn handle(
        &mut self,
        msg: &Message,
        me: ReplicaId,
        quorum: usize,
        reply: &mut Vec<(ReplicaId, MsgBody)>,
    ) -> PayloadOutcome {
        match &msg.body {
            MsgBody::PayloadPush { digest, batch } => {
                if msg.from != me && batch.digest() == *digest {
                    self.insert(*digest, batch.clone());
                    reply.push((msg.from, MsgBody::PayloadAck { digest: *digest }));
                }
                PayloadOutcome::Consumed
            }
            MsgBody::PayloadAck { digest } => {
                if self.ack(*digest, msg.from, quorum) {
                    PayloadOutcome::QuorumReached
                } else {
                    PayloadOutcome::Consumed
                }
            }
            MsgBody::PayloadRequest { digest } => {
                // `from == me` is the loopback copy of our own broadcast
                // fetch: answering it would only bounce a useless
                // `None` response back into the fetch path.
                if msg.from != me {
                    reply.push((
                        msg.from,
                        MsgBody::PayloadResponse {
                            digest: *digest,
                            batch: self.store.get(digest).cloned(),
                        },
                    ));
                }
                PayloadOutcome::Consumed
            }
            MsgBody::PayloadResponse { digest, batch } => match batch {
                Some(b) if b.digest() == *digest && !self.store.contains_key(digest) => {
                    self.insert(*digest, b.clone());
                    PayloadOutcome::Resolved(*digest)
                }
                Some(_) => PayloadOutcome::Consumed,
                None => PayloadOutcome::Unavailable(*digest),
            },
            _ => PayloadOutcome::NotPayload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use marlin_types::{Transaction, View};

    fn batch(tag: u8) -> Batch {
        let tx = |i| Transaction::new(u64::from(tag) << 8 | i, 0, Bytes::from(vec![tag; 4]), 0);
        Batch::new((0..3).map(tx).collect())
    }

    fn push(from: u32, b: &Batch) -> Message {
        Message::new(
            ReplicaId(from),
            View(1),
            MsgBody::PayloadPush {
                digest: b.digest(),
                batch: b.clone(),
            },
        )
    }

    #[test]
    fn push_is_stored_and_acked() {
        let mut p = PayloadPlane::default();
        let b = batch(1);
        let mut reply = Vec::new();
        let out = p.handle(&push(2, &b), ReplicaId(0), 3, &mut reply);
        assert_eq!(out, PayloadOutcome::Consumed);
        assert_eq!(p.batch(&b.digest()), Some(&b));
        assert!(
            matches!(reply.as_slice(), [(ReplicaId(2), MsgBody::PayloadAck { digest })] if *digest == b.digest())
        );
    }

    #[test]
    fn lying_digest_is_dropped_without_ack() {
        let mut p = PayloadPlane::default();
        let b = batch(1);
        let lie = Message::new(
            ReplicaId(2),
            View(1),
            MsgBody::PayloadPush {
                digest: batch(9).digest(),
                batch: b.clone(),
            },
        );
        let mut reply = Vec::new();
        p.handle(&lie, ReplicaId(0), 3, &mut reply);
        assert!(reply.is_empty());
        assert!(p.batch(&b.digest()).is_none());
    }

    #[test]
    fn quorum_of_acks_readies_the_digest() {
        let mut p = PayloadPlane::default();
        let b = batch(1);
        let d = b.digest();
        p.seal(d, b, ReplicaId(0)); // self-ack = 1
        assert!(p.has_work());
        assert!(!p.ack(d, ReplicaId(1), 3));
        assert!(p.ack(d, ReplicaId(2), 3));
        assert_eq!(p.pop_ready(), Some(d));
        assert_eq!(p.pop_ready(), None);
        assert!(!p.has_work());
        // Acks after the quorum (or for foreign digests) are stale.
        assert!(!p.ack(d, ReplicaId(3), 3));
    }

    #[test]
    fn request_is_served_and_response_resolves() {
        let mut holder = PayloadPlane::default();
        let b = batch(1);
        let d = b.digest();
        holder.seal(d, b.clone(), ReplicaId(1));
        let req = Message::new(ReplicaId(0), View(1), MsgBody::PayloadRequest { digest: d });
        let mut reply = Vec::new();
        holder.handle(&req, ReplicaId(1), 3, &mut reply);
        let (to, body) = reply.pop().expect("served");
        assert_eq!(to, ReplicaId(0));

        let mut fetcher = PayloadPlane::default();
        let resp = Message::new(ReplicaId(1), View(1), body);
        let out = fetcher.handle(&resp, ReplicaId(0), 3, &mut Vec::new());
        assert_eq!(out, PayloadOutcome::Resolved(d));
        assert_eq!(fetcher.batch(&d), Some(&b));
    }

    #[test]
    fn insert_keeps_the_first_batch_for_a_digest() {
        let mut p = PayloadPlane::default();
        let first = batch(1);
        let d = first.digest();
        p.insert(d, first.clone());
        p.insert(d, batch(2)); // same key, different bytes: ignored
        assert_eq!(p.batch(&d), Some(&first));
        assert_eq!(p.order.iter().filter(|x| **x == d).count(), 1);
    }

    #[test]
    fn unacked_seal_is_repushed_then_expired() {
        let mut p = PayloadPlane::default();
        let b = batch(1);
        let d = b.digest();
        p.seal(d, b.clone(), ReplicaId(0));
        let mut repushes = 0;
        let mut expired = Vec::new();
        for _ in 0..EXPIRE_AFTER {
            let tick = p.tick();
            repushes += tick.repush.len();
            expired.extend(tick.expired);
        }
        assert!(repushes >= 1, "a stalled seal must be retransmitted");
        assert_eq!(expired, vec![(d, b)], "then abandoned with its batch");
        assert!(!p.has_work(), "the window slot is free again");
        assert!(
            p.batch(&d).is_none(),
            "expired seals are unpinned and dropped"
        );
        // Expiry of one seal leaves a younger one untouched.
        let fresh = batch(2);
        p.seal(fresh.digest(), fresh, ReplicaId(0));
        assert!(p.tick().expired.is_empty());
        assert!(p.has_work());
    }

    #[test]
    fn acked_quorum_stops_the_expiry_clock() {
        let mut p = PayloadPlane::default();
        let b = batch(1);
        let d = b.digest();
        p.seal(d, b, ReplicaId(0));
        assert!(p.ack(d, ReplicaId(1), 2));
        for _ in 0..2 * EXPIRE_AFTER {
            let tick = p.tick();
            assert!(tick.repush.is_empty() && tick.expired.is_empty());
        }
        assert_eq!(p.pop_ready(), Some(d));
    }

    #[test]
    fn a_fresh_ack_resets_the_expiry_clock() {
        let mut p = PayloadPlane::default();
        let b = batch(1);
        let d = b.digest();
        p.seal(d, b, ReplicaId(0));
        p.tick();
        p.tick(); // one silent tick short of expiry
                  // A below-quorum ack is progress (the network is delivering,
                  // just slowly): the silence clock restarts.
        assert!(!p.ack(d, ReplicaId(1), 3));
        assert!(p.tick().expired.is_empty());
        assert!(p.tick().expired.is_empty());
        // A duplicate ack is not progress: silence resumes and the
        // seal expires on schedule.
        assert!(!p.ack(d, ReplicaId(1), 3));
        assert_eq!(p.tick().expired.len(), 1);
        assert!(!p.has_work());
    }

    #[test]
    fn pop_ready_refreshes_the_eviction_slot() {
        let mut p = PayloadPlane::default();
        let proposed = batch(0);
        let d = proposed.digest();
        p.seal(d, proposed.clone(), ReplicaId(0));
        // Older foreign batches arrive while the seal collects acks.
        for tag in 1..=100u8 {
            p.handle(&push(1, &batch(tag)), ReplicaId(0), 3, &mut Vec::new());
        }
        assert!(p.ack(d, ReplicaId(1), 2));
        assert_eq!(p.pop_ready(), Some(d));
        // The digest is no longer pinned, but popping moved it to the
        // young end of the FIFO: a store-churn burst evicts the older
        // foreign batches first, so fetches for the just-proposed
        // digest can still be served to lagging replicas.
        for tag in 101..=200u8 {
            p.handle(&push(1, &batch(tag)), ReplicaId(0), 3, &mut Vec::new());
        }
        assert_eq!(p.batch(&d), Some(&proposed));
        assert!(p.batch(&batch(1).digest()).is_none());
    }

    #[test]
    fn own_broadcast_request_is_not_answered() {
        let mut p = PayloadPlane::default();
        let req = Message::new(
            ReplicaId(0),
            View(1),
            MsgBody::PayloadRequest {
                digest: batch(1).digest(),
            },
        );
        let mut reply = Vec::new();
        assert_eq!(
            p.handle(&req, ReplicaId(0), 3, &mut reply),
            PayloadOutcome::Consumed
        );
        assert!(reply.is_empty());
    }

    #[test]
    fn missing_batch_response_reports_unavailable() {
        let mut p = PayloadPlane::default();
        let d = batch(1).digest();
        let resp = Message::new(
            ReplicaId(2),
            View(1),
            MsgBody::PayloadResponse {
                digest: d,
                batch: None,
            },
        );
        assert_eq!(
            p.handle(&resp, ReplicaId(0), 3, &mut Vec::new()),
            PayloadOutcome::Unavailable(d)
        );
    }

    #[test]
    fn eviction_spares_sealed_and_ready_batches() {
        let mut p = PayloadPlane::default();
        let pinned = batch(0);
        p.seal(pinned.digest(), pinned.clone(), ReplicaId(0));
        for tag in 1..=255u8 {
            let b = batch(tag);
            let mut reply = Vec::new();
            p.handle(&push(1, &b), ReplicaId(0), 3, &mut reply);
        }
        assert!(p.store.len() <= STORE_CAP + 1);
        assert_eq!(p.batch(&pinned.digest()), Some(&pinned));
        // The oldest unpinned batch was evicted.
        assert!(p.batch(&batch(1).digest()).is_none());
    }
}
