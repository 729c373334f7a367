//! Blocks — the paper's `b = [pl, pview, view, height, op, justify]`.

use crate::codec;
use crate::ids::{Height, View};
use crate::preimage::Preimage;
use crate::qc::{Phase, Qc, QcSeed};
use crate::transaction::Batch;
use marlin_crypto::{Digest, KeyStore};
use std::fmt;

/// Identifies a block by the SHA-256 digest of its contents.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub(crate) Digest);

impl BlockId {
    /// The well-known id of the genesis block (the zero digest).
    pub const GENESIS: BlockId = BlockId(Digest::ZERO);

    /// Wraps a digest as a block id.
    pub fn from_digest(digest: Digest) -> Self {
        BlockId(digest)
    }

    /// The underlying digest.
    pub fn digest(&self) -> Digest {
        self.0
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b:{}", self.0.short())
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.short())
    }
}

/// Whether a block is a normal block or a *virtual* block (a view-change
/// placeholder whose parent link is ⊥; Section V-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlockKind {
    /// An ordinary block with a concrete parent link.
    Normal,
    /// A view-change virtual block; its parent is discovered via the
    /// accompanying `prepareQC` (`vc`) during validation.
    Virtual,
}

/// A block's parent link (`pl`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ParentLink {
    /// Hash of the parent block.
    Hash(BlockId),
    /// `⊥` — used by virtual blocks (and the genesis block).
    Nil,
}

/// One or two quorum certificates justifying a block or message
/// (`justify` in the paper; "m.justify includes one or two QCs").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Justify {
    /// No certificate (genesis only).
    #[default]
    None,
    /// A single certificate.
    One(Qc),
    /// A `(qc, vc)` pair: a `pre-prepareQC` for a virtual block together
    /// with the `prepareQC` for the virtual block's parent.
    Two(Qc, Qc),
}

impl Justify {
    /// The primary certificate, if any.
    pub fn qc(&self) -> Option<&Qc> {
        match self {
            Justify::None => None,
            Justify::One(qc) | Justify::Two(qc, _) => Some(qc),
        }
    }

    /// The validating `prepareQC` of a `(qc, vc)` pair, if present.
    pub fn vc(&self) -> Option<&Qc> {
        match self {
            Justify::Two(_, vc) => Some(vc),
            _ => None,
        }
    }

    /// Iterates over all certificates carried.
    pub fn iter(&self) -> JustifyIter<'_> {
        JustifyIter {
            justify: self,
            next: 0,
        }
    }

    /// Verifies every carried certificate against `keys`.
    pub fn verify(&self, keys: &KeyStore) -> bool {
        self.iter().all(|qc| qc.verify(keys))
    }

    fn hash_into(&self, p: &mut Preimage) {
        p.put(&[self.iter().count() as u8]);
        for qc in self.iter() {
            p.put(qc.signing_bytes());
            p.put(qc.sig().agg().as_bytes());
        }
    }
}

/// Iterator over the certificates in a [`Justify`].
#[derive(Clone, Debug)]
pub struct JustifyIter<'a> {
    justify: &'a Justify,
    next: u8,
}

impl<'a> Iterator for JustifyIter<'a> {
    type Item = &'a Qc;

    fn next(&mut self) -> Option<&'a Qc> {
        let item = match (self.justify, self.next) {
            (Justify::One(qc), 0) | (Justify::Two(qc, _), 0) => Some(qc),
            (Justify::Two(_, vc), 1) => Some(vc),
            _ => None,
        };
        if item.is_some() {
            self.next += 1;
        }
        item
    }
}

/// Compact block metadata carried in `VIEW-CHANGE` messages (the paper's
/// `m.block = lb`) and used for block-rank comparison without shipping
/// operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BlockMeta {
    /// The block's id.
    pub id: BlockId,
    /// The block's view.
    pub view: View,
    /// The block's height.
    pub height: Height,
    /// View of the block's parent.
    pub pview: View,
    /// Normal or virtual.
    pub kind: BlockKind,
    /// Whether the block's `justify` is a `prepareQC` formed in the
    /// block's own view — the condition under which block rank can
    /// exceed another same-view block's rank (Section V-A).
    pub rank_boost: bool,
}

impl BlockMeta {
    /// Metadata for the genesis block.
    pub fn genesis() -> Self {
        BlockMeta {
            id: BlockId::GENESIS,
            view: View::GENESIS,
            height: Height::GENESIS,
            pview: View::GENESIS,
            kind: BlockKind::Normal,
            rank_boost: false,
        }
    }
}

/// A block in the tree of blocks.
///
/// The id is computed once at construction from all content fields
/// (parent link, views, height, operations, justify).
///
/// # Example
///
/// ```
/// use marlin_types::{Batch, Block, Height, Justify, Qc, View, BlockId};
///
/// let genesis = Block::genesis();
/// let qc = Qc::genesis(genesis.id());
/// let child = Block::new_normal(
///     genesis.id(),
///     genesis.view(),
///     View(1),
///     genesis.height().next(),
///     Batch::empty(),
///     Justify::One(qc),
/// );
/// assert_eq!(child.height(), Height(1));
/// assert_ne!(child.id(), BlockId::GENESIS);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Block {
    parent: ParentLink,
    pview: View,
    view: View,
    height: Height,
    payload: Batch,
    justify: Justify,
    id: BlockId,
}

impl Block {
    /// The genesis block: view 0, height 0, empty payload, id
    /// [`BlockId::GENESIS`].
    pub fn genesis() -> Self {
        Block {
            parent: ParentLink::Nil,
            pview: View::GENESIS,
            view: View::GENESIS,
            height: Height::GENESIS,
            payload: Batch::empty(),
            justify: Justify::None,
            id: BlockId::GENESIS,
        }
    }

    /// Creates a normal block extending `parent`.
    pub fn new_normal(
        parent: BlockId,
        pview: View,
        view: View,
        height: Height,
        payload: Batch,
        justify: Justify,
    ) -> Self {
        Self::build(
            ParentLink::Hash(parent),
            pview,
            view,
            height,
            payload,
            justify,
        )
    }

    /// Creates a virtual block (parent link ⊥) for the view-change
    /// pre-prepare phase; its height is `qc.height + 2` per Case V1.
    pub fn new_virtual(
        pview: View,
        view: View,
        height: Height,
        payload: Batch,
        justify: Justify,
    ) -> Self {
        Self::build(ParentLink::Nil, pview, view, height, payload, justify)
    }

    fn build(
        parent: ParentLink,
        pview: View,
        view: View,
        height: Height,
        payload: Batch,
        justify: Justify,
    ) -> Self {
        let mut b = Block {
            parent,
            pview,
            view,
            height,
            payload,
            justify,
            id: BlockId::GENESIS,
        };
        b.id = b.compute_id();
        b
    }

    /// SHA-256 over `"marlin.block.v2"`, the header fields, the
    /// length-prefixed transaction list and the justify. v1 hashed
    /// payloads without their lengths, which let two different
    /// transaction lists share one id.
    fn compute_id(&self) -> BlockId {
        let mut p = Preimage::new(b"marlin.block.v2");
        match self.parent {
            ParentLink::Hash(id) => {
                p.put(&[1u8]);
                p.put(id.digest().as_bytes());
            }
            ParentLink::Nil => p.put(&[0u8]),
        }
        p.put(&self.pview.0.to_le_bytes());
        p.put(&self.view.0.to_le_bytes());
        p.put(&self.height.0.to_le_bytes());
        p.put_transactions(self.payload.transactions());
        self.justify.hash_into(&mut p);
        BlockId::from_digest(p.finish())
    }

    /// The block's id.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The parent link `pl`.
    pub fn parent(&self) -> ParentLink {
        self.parent
    }

    /// Parent id, for normal blocks.
    pub fn parent_id(&self) -> Option<BlockId> {
        match self.parent {
            ParentLink::Hash(id) => Some(id),
            ParentLink::Nil => None,
        }
    }

    /// View of the parent block (`pview`).
    pub fn pview(&self) -> View {
        self.pview
    }

    /// View in which the block was proposed.
    pub fn view(&self) -> View {
        self.view
    }

    /// The block's height.
    pub fn height(&self) -> Height {
        self.height
    }

    /// The client operations `op`.
    pub fn payload(&self) -> &Batch {
        &self.payload
    }

    /// The quorum certificate(s) for the parent block.
    pub fn justify(&self) -> &Justify {
        &self.justify
    }

    /// Normal or virtual.
    pub fn kind(&self) -> BlockKind {
        if matches!(self.parent, ParentLink::Nil) && self.height != Height::GENESIS {
            BlockKind::Virtual
        } else {
            BlockKind::Normal
        }
    }

    /// Whether this block is virtual.
    pub fn is_virtual(&self) -> bool {
        self.kind() == BlockKind::Virtual
    }

    /// Whether this is the genesis block.
    pub fn is_genesis(&self) -> bool {
        self.id == BlockId::GENESIS
    }

    /// Compact metadata for view-change messages and rank comparison.
    pub fn meta(&self) -> BlockMeta {
        let rank_boost = match self.justify.qc() {
            Some(qc) => qc.phase() == Phase::Prepare && qc.view() == self.view,
            None => false,
        };
        BlockMeta {
            id: self.id,
            view: self.view,
            height: self.height,
            pview: self.pview,
            kind: self.kind(),
            rank_boost,
        }
    }

    /// The seed a vote for this block signs, in `phase` at `qc_view`.
    pub fn vote_seed(&self, phase: Phase, qc_view: View) -> QcSeed {
        QcSeed {
            phase,
            view: qc_view,
            block: self.id,
            height: self.height,
            block_view: self.view,
            pview: self.pview,
            block_kind: self.kind(),
        }
    }

    /// Wire bytes of the block, counting its full payload (a *shadow*
    /// block, Section IV-D, is this minus `payload().wire_len()`).
    pub fn wire_len(&self) -> usize {
        codec::measure(self, false).bytes
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Block({} {:?} {:?} {:?} {} txs)",
            self.id,
            self.kind(),
            self.view,
            self.height,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;
    use bytes::Bytes;

    fn child_of(parent: &Block, view: u64, payload: Batch) -> Block {
        Block::new_normal(
            parent.id(),
            parent.view(),
            View(view),
            parent.height().next(),
            payload,
            Justify::One(Qc::genesis(parent.id())),
        )
    }

    #[test]
    fn genesis_properties() {
        let g = Block::genesis();
        assert!(g.is_genesis());
        assert_eq!(g.kind(), BlockKind::Normal);
        assert_eq!(g.height(), Height::GENESIS);
        assert_eq!(g.parent_id(), None);
        assert!(!g.is_virtual());
    }

    #[test]
    fn id_binds_every_field() {
        let g = Block::genesis();
        let base = child_of(&g, 1, Batch::empty());
        let diff_view = child_of(&g, 2, Batch::empty());
        assert_ne!(base.id(), diff_view.id());

        let tx = Transaction::new(7, 0, Bytes::from_static(b"x"), 0);
        let diff_payload = child_of(&g, 1, Batch::new(vec![tx]));
        assert_ne!(base.id(), diff_payload.id());

        let diff_height = Block::new_normal(
            g.id(),
            g.view(),
            View(1),
            Height(5),
            Batch::empty(),
            Justify::One(Qc::genesis(g.id())),
        );
        assert_ne!(base.id(), diff_height.id());
    }

    #[test]
    fn id_is_deterministic() {
        let g = Block::genesis();
        assert_eq!(
            child_of(&g, 1, Batch::empty()).id(),
            child_of(&g, 1, Batch::empty()).id()
        );
    }

    #[test]
    fn id_excludes_submission_time() {
        let g = Block::genesis();
        let t1 = Transaction::new(7, 0, Bytes::from_static(b"x"), 100);
        let t2 = Transaction::new(7, 0, Bytes::from_static(b"x"), 999);
        assert_eq!(
            child_of(&g, 1, Batch::new(vec![t1])).id(),
            child_of(&g, 1, Batch::new(vec![t2])).id()
        );
    }

    #[test]
    fn id_is_unambiguous_across_payload_boundaries() {
        // The equivocation v1 ids allowed: same header, same
        // transaction count, and the bytes `c ‖ d ‖ Y ‖ e ‖ f` moved
        // from the tail of tx 1's payload plus tx 2's fixed fields (`a`)
        // into tx 2's fixed fields plus the head of its payload (`b`).
        let (c, d, e, f) = (0x1122_3344_5566_7788u64, 7u32, 0x99AAu64, 3u32);
        let cat = |parts: &[&[u8]]| Bytes::from(parts.concat());
        let a = vec![
            Transaction::new(
                1,
                0,
                cat(&[b"X", &c.to_le_bytes(), &d.to_le_bytes(), b"YY"]),
                0,
            ),
            Transaction::new(e, f, cat(&[b"Z"]), 0),
        ];
        let b = vec![
            Transaction::new(1, 0, cat(&[b"X"]), 0),
            Transaction::new(
                c,
                d,
                cat(&[b"YY", &e.to_le_bytes(), &f.to_le_bytes(), b"Z"]),
                0,
            ),
        ];
        // The construction is the colliding one: without payload
        // lengths the two lists are one byte stream.
        let v1_stream = |txs: &[Transaction]| -> Vec<u8> {
            txs.iter()
                .flat_map(|t| {
                    [&t.id.to_le_bytes()[..], &t.client.to_le_bytes(), &t.payload].concat()
                })
                .collect()
        };
        assert_eq!(v1_stream(&a), v1_stream(&b));
        assert_ne!(a, b);

        let g = Block::genesis();
        assert_ne!(
            child_of(&g, 1, Batch::new(a)).id(),
            child_of(&g, 1, Batch::new(b)).id()
        );
    }

    #[test]
    fn virtual_block_kind() {
        let b = Block::new_virtual(View(1), View(2), Height(3), Batch::empty(), Justify::None);
        assert!(b.is_virtual());
        assert_eq!(b.kind(), BlockKind::Virtual);
        assert_eq!(b.parent_id(), None);
    }

    #[test]
    fn shadow_header_smaller_than_full_block() {
        let g = Block::genesis();
        let tx = Transaction::new(1, 0, Bytes::from(vec![0u8; 150]), 0);
        let b = child_of(&g, 1, Batch::new(vec![tx]));
        let header = b.wire_len() - b.payload().wire_len();
        // parent(1+32) + pview/view/height(24) + justify(1 + genesis QC)
        assert_eq!(header, 33 + 24 + 1 + 66 + 96);
        assert!(header < b.wire_len());
    }

    #[test]
    fn meta_rank_boost_requires_same_view_prepare_justify() {
        let g = Block::genesis();
        // Justify is the genesis QC (view 0) but block is view 1: no boost.
        let b = child_of(&g, 1, Batch::empty());
        assert!(!b.meta().rank_boost);
    }

    #[test]
    fn justify_iteration() {
        let qc = Qc::genesis(BlockId::GENESIS);
        assert_eq!(Justify::None.iter().count(), 0);
        assert_eq!(Justify::One(qc).iter().count(), 1);
        assert_eq!(Justify::Two(qc, qc).iter().count(), 2);
        assert!(Justify::Two(qc, qc).vc().is_some());
        assert!(Justify::One(qc).vc().is_none());
    }

    #[test]
    fn vote_seed_reflects_block() {
        let g = Block::genesis();
        let b = child_of(&g, 3, Batch::empty());
        let seed = b.vote_seed(Phase::Prepare, View(3));
        assert_eq!(seed.block, b.id());
        assert_eq!(seed.height, b.height());
        assert_eq!(seed.block_view, View(3));
        assert_eq!(seed.block_kind, BlockKind::Normal);
    }
}
