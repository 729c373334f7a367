//! The wire message format shared by Marlin and every baseline protocol
//! in this workspace.
//!
//! The paper's message `m` carries `m.view`, `m.type`, `m.block`,
//! `m.justify` (one or two QCs), and `m.parsig`. This module realizes
//! that shape as a tagged union, extended with the messages the baseline
//! protocols and the block-synchronisation layer need.

use crate::block::{Block, BlockId, BlockMeta, Justify};
use crate::codec;
use crate::ids::{Height, ReplicaId, View};
use crate::qc::{Phase, Qc, QcSeed};
use crate::transaction::{Batch, BatchId};
use marlin_crypto::{PartialSig, Sha256, Signature};
use std::fmt;

/// A protocol message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Message {
    /// Sender.
    pub from: ReplicaId,
    /// View in which the message was sent (`m.view`).
    pub view: View,
    /// The message body (`m.type` plus its fields).
    pub body: MsgBody,
}

impl Message {
    /// Creates a message.
    pub fn new(from: ReplicaId, view: View, body: MsgBody) -> Self {
        Message { from, view, body }
    }

    /// Bytes the encoder writes for this message. With `shadow` enabled,
    /// the second block of a two-proposal `PRE-PREPARE` is charged only
    /// its header (the shadow-block optimisation of Section IV-D).
    pub fn wire_len(&self, shadow: bool) -> usize {
        codec::measure(|w| codec::put_message(w, self, shadow)).bytes
    }

    /// Authenticators the encoder writes for this message, under the
    /// paper's metric (Section III): each partial or conventional
    /// signature is one authenticator; QCs count per their format.
    pub fn authenticator_count(&self) -> usize {
        codec::measure(|w| codec::put_message(w, self, false)).authenticators
    }
}

/// Message bodies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MsgBody {
    /// Leader broadcast: a proposal for one or two blocks in some phase.
    Proposal(Proposal),
    /// Replica→leader vote carrying a partial signature.
    Vote(Vote),
    /// Replica→new-leader `VIEW-CHANGE`.
    ViewChange(ViewChange),
    /// Leader broadcast of a `commitQC`, triggering delivery.
    Decide(Decide),
    /// Request for a missing block (block synchronisation).
    FetchRequest {
        /// The block being requested.
        block: BlockId,
    },
    /// Response carrying a previously proposed block.
    FetchResponse {
        /// The requested block.
        block: Block,
        /// For virtual blocks: the responder's resolved parent id
        /// (virtual blocks carry no parent link of their own).
        virtual_parent: Option<BlockId>,
    },
    /// A recovering replica's broadcast: "my committed chain ends at
    /// `last_committed` — tell me what I missed." Peers answer with
    /// their latest `commitQC`; the fetch machinery then pulls any
    /// missing blocks.
    CatchUpRequest {
        /// Height of the requester's highest committed block.
        last_committed: Height,
    },
    /// Response to a catch-up request.
    CatchUpResponse {
        /// The responder's highest known `commitQC`, if any.
        commit_qc: Option<Qc>,
    },
    /// A cold-starting or deeply lagging replica's request for the
    /// responder's latest snapshot anchor.
    SnapshotRequest,
    /// Response to a snapshot request: a self-certifying anchor — a
    /// committed block together with the commit-phase QC that certifies
    /// exactly that block (`qc.block() == block.id()`), so the receiver
    /// can verify the anchor with one signature check and no chain
    /// context.
    SnapshotResponse {
        /// The responder's latest snapshot anchor, if it has one.
        snapshot: Option<(Block, Qc)>,
    },
    /// Request for a contiguous range of committed blocks,
    /// `[from_height, to_height]` inclusive (ranged block sync).
    BlockRangeRequest {
        /// First height requested.
        from_height: Height,
        /// Last height requested (inclusive).
        to_height: Height,
    },
    /// Response to a range request: the responder's committed blocks for
    /// the range, in ascending height order. May cover a prefix of the
    /// request if the responder has pruned or never held the rest.
    BlockRangeResponse {
        /// First height of the range this response answers (echoed from
        /// the request so the requester can match it to an outstanding
        /// chunk even when `blocks` is empty).
        from_height: Height,
        /// The blocks, ascending by height.
        blocks: Vec<Block>,
    },
    /// Pre-dissemination of a sealed mempool batch (Narwhal-style push):
    /// the sender streams the batch to every replica *before* any leader
    /// proposes it, taking payload bytes off the proposal critical path.
    PayloadPush {
        /// Content digest the batch is addressed by.
        digest: BatchId,
        /// The batch itself.
        batch: Batch,
    },
    /// Receiver→pusher acknowledgement that the batch is stored and
    /// resolvable; `n − f` acks make a digest safe to propose.
    PayloadAck {
        /// The acknowledged batch.
        digest: BatchId,
    },
    /// Request for a previously pushed batch the sender cannot resolve
    /// (fallback for replicas that missed the push).
    PayloadRequest {
        /// The missing batch.
        digest: BatchId,
    },
    /// Response to a payload request.
    PayloadResponse {
        /// The requested digest (echoed even when the batch is gone).
        digest: BatchId,
        /// The batch, if the responder still holds it.
        batch: Option<Batch>,
    },
    /// A leader's normal-case `PREPARE` proposal by reference: the block
    /// extends `justify`'s certified block and carries the payload
    /// addressed by `digest`, which receivers resolve from their payload
    /// store (or fetch by digest). Only Case N1 proposals — fully
    /// derivable from `(digest, justify, view)` — travel this way;
    /// view-change proposals always ship whole blocks.
    DigestProposal {
        /// Payload of the proposed block.
        digest: BatchId,
        /// The `highQC` the proposed block extends (`m.justify`).
        justify: Justify,
    },
}

/// A leader's proposal broadcast.
///
/// * Normal-case `PREPARE`: one block, `justify` per Case N1/N2.
/// * Normal-case `COMMIT` (and HotStuff `PRE-COMMIT`/`COMMIT`): no block
///   payload — the certified block is identified by `justify`'s QC.
/// * View-change `PRE-PREPARE`: one block (Case V2) or two shadow blocks
///   (Cases V1/V3).
/// * Jolteon-style protocols attach their quadratic new-view proof in
///   `vc_proof`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Proposal {
    /// The phase this proposal drives.
    pub phase: Phase,
    /// Zero, one, or two proposed blocks.
    pub blocks: Vec<Block>,
    /// The justifying certificate(s) (`m.justify`).
    pub justify: Justify,
    /// Quadratic view-change proof (Jolteon/Fast-HotStuff baselines
    /// only; empty for Marlin and HotStuff).
    pub vc_proof: Vec<VcCert>,
}

/// A replica's vote: the seed it signed plus the partial signature.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Vote {
    /// The exact content the partial signature covers.
    pub seed: QcSeed,
    /// The vote share.
    pub parsig: PartialSig,
    /// Case R2 of the view change: the voter attaches its `lockedQC`
    /// (the `prepareQC` for the virtual block's parent).
    pub locked_qc: Option<Qc>,
}

/// A `VIEW-CHANGE` message: the replica's last voted block (as compact
/// metadata), its `highQC`, and a partial signature over the happy-path
/// prepare seed for the last voted block at the new view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ViewChange {
    /// Metadata of the sender's last voted block `lb`.
    pub last_voted: BlockMeta,
    /// The sender's `highQC` (one QC, or a `(qc, vc)` pair).
    pub high_qc: Justify,
    /// Partial signature over [`ViewChange::happy_seed`] for the target
    /// view, enabling the happy-path `prepareQC`.
    pub parsig: PartialSig,
    /// Conventional signature over [`VcCert::signing_bytes`] — present
    /// only in Jolteon-style protocols whose leaders assemble quadratic
    /// view-change proofs from these certificates.
    pub cert: Option<Signature>,
}

impl ViewChange {
    /// The seed the view-change partial signature covers: a `PREPARE`
    /// certification of `last_voted` at `view`. If all `n − f`
    /// view-change messages agree on `last_voted`, the leader combines
    /// their partials into a `prepareQC` and skips the pre-prepare phase
    /// ("happy path", Section V-C).
    pub fn happy_seed(last_voted: &BlockMeta, view: View) -> QcSeed {
        QcSeed {
            phase: Phase::Prepare,
            view,
            block: last_voted.id,
            height: last_voted.height,
            block_view: last_voted.view,
            pview: last_voted.pview,
            block_kind: last_voted.kind,
        }
    }
}

/// Coarse classification of messages for per-category traffic
/// breakdowns (the paper's Section III complexity metrics) and
/// telemetry labels.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MsgClass {
    /// Leader proposal broadcasts, by phase.
    Proposal(Phase),
    /// Replica votes, by phase.
    Vote(Phase),
    /// `VIEW-CHANGE` / `NEW-VIEW` messages.
    ViewChange,
    /// `commitQC` dissemination.
    Decide,
    /// Block synchronisation traffic.
    Fetch,
    /// Crash-recovery catch-up traffic (`CATCH-UP` request/response,
    /// wire tags 6/7). Kept distinct from [`MsgClass::Fetch`] so
    /// recovery traffic can be excluded from protocol-cost measurement
    /// windows (Table I counts view-change messages, not the recovery
    /// of a crashed replica's state).
    CatchUp,
    /// Ranged block-sync and snapshot traffic (wire tags 8–11): how a
    /// deeply lagging or cold-starting replica rejoins. Like
    /// [`MsgClass::CatchUp`], this is recovery traffic and stays out of
    /// protocol-cost measurement windows.
    Sync,
    /// Batch pre-dissemination traffic (wire tags 12–15): payload
    /// push/ack and fetch-by-digest. Not recovery traffic — it is the
    /// steady-state payload plane — but kept out of the proposal class
    /// so leader-egress measurements see exactly what rides the
    /// proposal critical path. `DigestProposal` itself classifies as
    /// [`MsgClass::Proposal`]`(Prepare)`.
    Payload,
}

impl MsgClass {
    /// Classifies a message.
    pub fn of(msg: &Message) -> MsgClass {
        match &msg.body {
            MsgBody::Proposal(p) => MsgClass::Proposal(p.phase),
            MsgBody::Vote(v) => MsgClass::Vote(v.seed.phase),
            MsgBody::ViewChange(_) => MsgClass::ViewChange,
            MsgBody::Decide(_) => MsgClass::Decide,
            MsgBody::FetchRequest { .. } | MsgBody::FetchResponse { .. } => MsgClass::Fetch,
            MsgBody::CatchUpRequest { .. } | MsgBody::CatchUpResponse { .. } => MsgClass::CatchUp,
            MsgBody::SnapshotRequest
            | MsgBody::SnapshotResponse { .. }
            | MsgBody::BlockRangeRequest { .. }
            | MsgBody::BlockRangeResponse { .. } => MsgClass::Sync,
            MsgBody::PayloadPush { .. }
            | MsgBody::PayloadAck { .. }
            | MsgBody::PayloadRequest { .. }
            | MsgBody::PayloadResponse { .. } => MsgClass::Payload,
            MsgBody::DigestProposal { .. } => MsgClass::Proposal(Phase::Prepare),
        }
    }

    /// Whether this class belongs to the view-change protocol (used for
    /// the Table I measurement window).
    pub fn is_view_change(&self) -> bool {
        matches!(
            self,
            MsgClass::ViewChange
                | MsgClass::Proposal(Phase::PrePrepare)
                | MsgClass::Vote(Phase::PrePrepare)
        )
    }

    /// Whether this class is crash-recovery traffic, excluded from
    /// protocol-cost measurement windows.
    pub fn is_recovery(&self) -> bool {
        matches!(self, MsgClass::CatchUp | MsgClass::Sync)
    }
}

impl fmt::Display for MsgClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgClass::Proposal(p) => write!(f, "proposal/{p:?}"),
            MsgClass::Vote(p) => write!(f, "vote/{p:?}"),
            MsgClass::ViewChange => write!(f, "view-change"),
            MsgClass::Decide => write!(f, "decide"),
            MsgClass::Fetch => write!(f, "fetch"),
            MsgClass::CatchUp => write!(f, "catch-up"),
            MsgClass::Sync => write!(f, "sync"),
            MsgClass::Payload => write!(f, "payload"),
        }
    }
}

/// A `commitQC` broadcast: receivers deliver the certified block and its
/// ancestors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decide {
    /// The commit certificate.
    pub commit_qc: Qc,
}

/// One entry of a Jolteon/Fast-HotStuff-style quadratic view-change
/// proof: a conventionally signed statement of a replica's `highQC` for
/// the new view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VcCert {
    /// The attesting replica.
    pub from: ReplicaId,
    /// Its claimed `highQC`.
    pub high_qc: Qc,
    /// Conventional signature over [`VcCert::signing_bytes`].
    pub sig: Signature,
}

impl VcCert {
    /// The byte string `sig` covers.
    pub fn signing_bytes(from: ReplicaId, view: View, high_qc: &Qc) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"marlin.vccert.v1");
        h.update(&from.0.to_le_bytes());
        h.update(&view.0.to_le_bytes());
        h.update(high_qc.signing_bytes());
        h.finalize().into_bytes()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.body {
            MsgBody::Proposal(p) => format!("Proposal({:?},{} blocks)", p.phase, p.blocks.len()),
            MsgBody::Vote(v) => format!("Vote({:?})", v.seed.phase),
            MsgBody::ViewChange(_) => "ViewChange".to_string(),
            MsgBody::Decide(_) => "Decide".to_string(),
            MsgBody::FetchRequest { .. } => "FetchRequest".to_string(),
            MsgBody::FetchResponse { .. } => "FetchResponse".to_string(),
            MsgBody::CatchUpRequest { last_committed } => {
                format!("CatchUpRequest(h{})", last_committed.0)
            }
            MsgBody::CatchUpResponse { .. } => "CatchUpResponse".to_string(),
            MsgBody::SnapshotRequest => "SnapshotRequest".to_string(),
            MsgBody::SnapshotResponse { snapshot } => {
                format!("SnapshotResponse(present={})", snapshot.is_some())
            }
            MsgBody::BlockRangeRequest {
                from_height,
                to_height,
            } => format!("BlockRangeRequest(h{}..h{})", from_height.0, to_height.0),
            MsgBody::BlockRangeResponse { blocks, .. } => {
                format!("BlockRangeResponse({} blocks)", blocks.len())
            }
            MsgBody::PayloadPush { digest, batch } => {
                format!("PayloadPush({digest},{} txs)", batch.len())
            }
            MsgBody::PayloadAck { digest } => format!("PayloadAck({digest})"),
            MsgBody::PayloadRequest { digest } => format!("PayloadRequest({digest})"),
            MsgBody::PayloadResponse { digest, batch } => {
                format!("PayloadResponse({digest},present={})", batch.is_some())
            }
            MsgBody::DigestProposal { digest, .. } => format!("DigestProposal({digest})"),
        };
        write!(f, "[{} {:?} {}]", self.from, self.view, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{Batch, Transaction};
    use bytes::Bytes;

    fn block_with_payload(len: usize) -> Block {
        let g = Block::genesis();
        let tx = Transaction::new(1, 0, Bytes::from(vec![7u8; len]), 0);
        Block::new_normal(
            g.id(),
            g.view(),
            View(1),
            g.height().next(),
            Batch::new(vec![tx]),
            Justify::One(Qc::genesis(g.id())),
        )
    }

    fn shadow_pair(len: usize) -> (Block, Block) {
        let g = Block::genesis();
        let tx = Transaction::new(1, 0, Bytes::from(vec![7u8; len]), 0);
        let payload = Batch::new(vec![tx]);
        let b1 = Block::new_normal(
            g.id(),
            g.view(),
            View(2),
            g.height().next(),
            payload.clone(),
            Justify::One(Qc::genesis(g.id())),
        );
        let b2 = Block::new_virtual(
            g.view(),
            View(2),
            g.height().plus(2),
            payload,
            Justify::One(Qc::genesis(g.id())),
        );
        (b1, b2)
    }

    #[test]
    fn shadow_blocks_save_payload_bytes() {
        let (b1, b2) = shadow_pair(150);
        let payload_len = b1.payload().wire_len();
        let prop = Proposal {
            phase: Phase::PrePrepare,
            blocks: vec![b1, b2],
            justify: Justify::None,
            vc_proof: Vec::new(),
        };
        let msg = Message::new(ReplicaId(0), View(2), MsgBody::Proposal(prop));
        let with = msg.wire_len(true);
        let without = msg.wire_len(false);
        assert_eq!(without - with, payload_len);
    }

    #[test]
    fn shadow_does_not_apply_to_distinct_payloads() {
        let b1 = block_with_payload(100);
        let (_, b2) = shadow_pair(150);
        let prop = Proposal {
            phase: Phase::PrePrepare,
            blocks: vec![b1, b2],
            justify: Justify::None,
            vc_proof: Vec::new(),
        };
        let msg = Message::new(ReplicaId(0), View(2), MsgBody::Proposal(prop));
        assert_eq!(msg.wire_len(true), msg.wire_len(false));
    }

    #[test]
    fn vote_authenticators() {
        let g = Block::genesis();
        let keys = marlin_crypto::KeyStore::generate(4, 1, 1);
        let seed = g.vote_seed(Phase::Prepare, View(1));
        let vote = Vote {
            seed,
            parsig: keys.signer(0).sign_partial(&seed.signing_bytes()),
            locked_qc: None,
        };
        let auths =
            |v: Vote| Message::new(ReplicaId(0), View(1), MsgBody::Vote(v)).authenticator_count();
        assert_eq!(auths(vote.clone()), 1);
        let with_lock = Vote {
            locked_qc: Some(Qc::genesis(g.id())),
            ..vote
        };
        assert_eq!(auths(with_lock), 1);
    }

    #[test]
    fn happy_seed_is_deterministic_across_replicas() {
        let meta = BlockMeta::genesis();
        let a = ViewChange::happy_seed(&meta, View(5));
        let b = ViewChange::happy_seed(&meta, View(5));
        assert_eq!(a.signing_bytes(), b.signing_bytes());
        assert_ne!(
            ViewChange::happy_seed(&meta, View(6)).signing_bytes(),
            a.signing_bytes()
        );
    }

    #[test]
    fn vc_cert_signing_bytes_bind_fields() {
        let qc = Qc::genesis(BlockId::GENESIS);
        let base = VcCert::signing_bytes(ReplicaId(1), View(2), &qc);
        assert_ne!(VcCert::signing_bytes(ReplicaId(2), View(2), &qc), base);
        assert_ne!(VcCert::signing_bytes(ReplicaId(1), View(3), &qc), base);
    }

    #[test]
    fn message_wire_len_includes_header() {
        let msg = Message::new(
            ReplicaId(3),
            View(9),
            MsgBody::FetchRequest {
                block: BlockId::GENESIS,
            },
        );
        assert_eq!(msg.wire_len(false), 13 + 32);
    }

    #[test]
    fn display_is_informative() {
        let msg = Message::new(
            ReplicaId(3),
            View(9),
            MsgBody::FetchRequest {
                block: BlockId::GENESIS,
            },
        );
        let s = msg.to_string();
        assert!(s.contains("p3") && s.contains("v9") && s.contains("FetchRequest"));
    }
}
