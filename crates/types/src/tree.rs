//! Each replica's tree of blocks and its committed chain.

use crate::block::{Block, BlockId, ParentLink};
use crate::ids::Height;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Error returned by [`BlockStore::commit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// The block to commit is not in the store.
    UnknownBlock(BlockId),
    /// An ancestor needed to complete the chain is missing; the caller
    /// should fetch it and retry.
    MissingAncestor {
        /// The block whose parent is missing.
        of: BlockId,
        /// The missing parent (if the link is known).
        parent: Option<BlockId>,
    },
    /// Committing this block would conflict with the committed chain —
    /// a safety violation if it ever happens.
    ConflictsWithCommitted {
        /// The offending block.
        block: BlockId,
    },
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::UnknownBlock(id) => write!(f, "block {id} not in store"),
            CommitError::MissingAncestor { of, parent } => match parent {
                Some(p) => write!(f, "missing ancestor {p} of {of}"),
                None => write!(f, "unresolved virtual parent of {of}"),
            },
            CommitError::ConflictsWithCommitted { block } => {
                write!(f, "block {block} conflicts with the committed chain")
            }
        }
    }
}

impl std::error::Error for CommitError {}

/// A replica's tree of blocks (Section III-A), rooted at the genesis
/// block, plus the monotonically growing committed branch.
///
/// Virtual blocks carry no parent link; their parent is resolved later
/// from the accompanying `prepareQC` via
/// [`BlockStore::resolve_virtual_parent`].
///
/// # Example
///
/// ```
/// use marlin_types::{Batch, Block, BlockStore, Justify, Qc, View};
///
/// let mut store = BlockStore::new();
/// let g = store.genesis().clone();
/// let b1 = Block::new_normal(
///     g.id(), g.view(), View(1), g.height().next(),
///     Batch::empty(), Justify::One(Qc::genesis(g.id())),
/// );
/// store.insert(b1.clone());
/// assert!(store.is_extension(&b1.id(), &g.id()));
/// let committed = store.commit(&b1.id()).unwrap();
/// assert_eq!(committed.len(), 1); // genesis is pre-committed
/// ```
#[derive(Clone, Debug)]
pub struct BlockStore {
    blocks: HashMap<BlockId, Block>,
    /// Resolved parents of virtual blocks.
    virtual_parents: HashMap<BlockId, BlockId>,
    /// Resident suffix of the committed chain. Entry `i` sits at
    /// absolute chain position `committed_trimmed + i`; along the
    /// committed chain, absolute position equals block height (genesis
    /// is position 0).
    committed: Vec<BlockId>,
    /// Absolute position of `committed[0]`: how many older entries have
    /// been pruned away.
    committed_trimmed: usize,
    committed_set: HashSet<BlockId>,
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockStore {
    /// Creates a store containing only the (already committed) genesis
    /// block.
    pub fn new() -> Self {
        let genesis = Block::genesis();
        let id = genesis.id();
        let mut blocks = HashMap::new();
        blocks.insert(id, genesis);
        let mut committed_set = HashSet::new();
        committed_set.insert(id);
        BlockStore {
            blocks,
            virtual_parents: HashMap::new(),
            committed: vec![id],
            committed_trimmed: 0,
            committed_set,
        }
    }

    /// The genesis block.
    pub fn genesis(&self) -> &Block {
        &self.blocks[&BlockId::GENESIS]
    }

    /// Inserts a block; returns `false` if it was already present.
    pub fn insert(&mut self, block: Block) -> bool {
        self.blocks.insert(block.id(), block).is_none()
    }

    /// Looks up a block by id.
    pub fn get(&self, id: &BlockId) -> Option<&Block> {
        self.blocks.get(id)
    }

    /// Whether the store holds `id`.
    pub fn contains(&self, id: &BlockId) -> bool {
        self.blocks.contains_key(id)
    }

    /// Number of blocks stored (including genesis).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store is empty — never true, genesis is always held.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Records that virtual block `virtual_id`'s parent is `parent_id`
    /// (learned from the validating `prepareQC` `vc`).
    pub fn resolve_virtual_parent(&mut self, virtual_id: BlockId, parent_id: BlockId) {
        self.virtual_parents.insert(virtual_id, parent_id);
    }

    /// The parent id of `id`, following virtual-parent resolutions.
    pub fn parent_id_of(&self, id: &BlockId) -> Option<BlockId> {
        let block = self.blocks.get(id)?;
        match block.parent() {
            ParentLink::Hash(pid) => Some(pid),
            ParentLink::Nil => self.virtual_parents.get(id).copied(),
        }
    }

    /// Walks the branch led by `id` down to genesis, yielding ids
    /// starting at `id`. Stops early if a link is unresolved or missing.
    pub fn branch(&self, id: &BlockId) -> Branch<'_> {
        Branch {
            store: self,
            next: self.blocks.contains_key(id).then_some(*id),
        }
    }

    /// Whether `descendant` is `ancestor` or an extension of it
    /// (the paper's "b′ is an extension of b").
    pub fn is_extension(&self, descendant: &BlockId, ancestor: &BlockId) -> bool {
        self.branch(descendant).any(|id| id == *ancestor)
    }

    /// Whether two blocks conflict: neither branch extends the other.
    pub fn conflicts(&self, a: &BlockId, b: &BlockId) -> bool {
        !self.is_extension(a, b) && !self.is_extension(b, a)
    }

    /// The resident suffix of the committed chain, oldest first. Entry
    /// `i` sits at absolute position [`Self::committed_offset`]` + i`.
    pub fn committed_chain(&self) -> &[BlockId] {
        &self.committed
    }

    /// Absolute chain position of `committed_chain()[0]` — the number
    /// of older committed entries pruned away. Along the committed
    /// chain, absolute position equals block height.
    pub fn committed_offset(&self) -> usize {
        self.committed_trimmed
    }

    /// The committed block at `height`, if it is still resident.
    pub fn block_at_height(&self, height: Height) -> Option<&Block> {
        let idx = (height.0 as usize).checked_sub(self.committed_trimmed)?;
        let id = self.committed.get(idx)?;
        self.blocks.get(id)
    }

    /// The tip of the committed chain.
    pub fn last_committed(&self) -> BlockId {
        *self
            .committed
            .last()
            .expect("committed chain always holds genesis")
    }

    /// Whether `id` has been committed.
    pub fn is_committed(&self, id: &BlockId) -> bool {
        self.committed_set.contains(id)
    }

    /// Commits `id` and all its uncommitted ancestors, returning the
    /// newly committed blocks oldest-first.
    ///
    /// # Errors
    ///
    /// * [`CommitError::UnknownBlock`] if `id` is not stored;
    /// * [`CommitError::MissingAncestor`] if the chain to the committed
    ///   tip cannot be completed (caller should fetch the block);
    /// * [`CommitError::ConflictsWithCommitted`] if the branch does not
    ///   extend the committed tip — this would be a safety violation and
    ///   is also checked by the test harnesses.
    pub fn commit(&mut self, id: &BlockId) -> Result<Vec<Block>, CommitError> {
        if !self.blocks.contains_key(id) {
            return Err(CommitError::UnknownBlock(*id));
        }
        if self.committed_set.contains(id) {
            return Ok(Vec::new());
        }
        // Walk up until we reach a committed block.
        let mut path: Vec<BlockId> = Vec::new();
        let mut cur = *id;
        loop {
            path.push(cur);
            let parent = match self.parent_id_of(&cur) {
                Some(p) => p,
                None => {
                    return Err(CommitError::MissingAncestor {
                        of: cur,
                        parent: None,
                    });
                }
            };
            if self.committed_set.contains(&parent) {
                // Must extend the *tip*, not an interior committed block.
                if parent != self.last_committed() {
                    return Err(CommitError::ConflictsWithCommitted { block: *id });
                }
                break;
            }
            if !self.blocks.contains_key(&parent) {
                return Err(CommitError::MissingAncestor {
                    of: cur,
                    parent: Some(parent),
                });
            }
            cur = parent;
        }
        path.reverse();
        let mut newly = Vec::with_capacity(path.len());
        for bid in path {
            debug_assert_eq!(
                self.blocks[&bid].height().0 as usize,
                self.committed_trimmed + self.committed.len(),
                "committed chain positions must equal heights"
            );
            self.committed.push(bid);
            self.committed_set.insert(bid);
            newly.push(self.blocks[&bid].clone());
        }
        Ok(newly)
    }

    /// Re-roots the committed chain at a snapshot `anchor` (a block a
    /// sync run proved committed): it becomes the committed tip at its
    /// own height, and everything else at or below that height leaves
    /// the store — the prefix it replaces and the uncommitted proposals
    /// there, which can never commit now. Later commits must extend it.
    pub fn install_anchor(&mut self, anchor: Block) {
        let id = anchor.id();
        let height = anchor.height().0 as usize;
        debug_assert!(
            height >= self.committed_trimmed + self.committed.len(),
            "anchor must be ahead of the committed tip"
        );
        self.committed.clear();
        self.committed_set.retain(|b| *b == BlockId::GENESIS);
        self.blocks
            .retain(|b, block| *b == BlockId::GENESIS || block.height().0 as usize > height);
        let blocks = &self.blocks;
        self.virtual_parents.retain(|b, _| blocks.contains_key(b));
        self.blocks.insert(id, anchor);
        self.committed.push(id);
        self.committed_trimmed = height;
        self.committed_set.insert(id);
    }

    /// Prunes committed chain entries strictly below `height`: the
    /// blocks leave the store, the resident committed suffix shrinks,
    /// and [`Self::committed_offset`] advances. The committed tip and
    /// the genesis block are always retained. This — unlike
    /// [`Self::prune`] — also shrinks the committed-id set, so resident
    /// state stays bounded on arbitrarily long runs.
    pub fn prune_committed_before(&mut self, height: Height) {
        let target = height.0 as usize;
        let drop = target
            .saturating_sub(self.committed_trimmed)
            .min(self.committed.len().saturating_sub(1));
        for id in self.committed.drain(..drop) {
            self.committed_set.remove(&id);
            if id != BlockId::GENESIS {
                self.blocks.remove(&id);
                self.virtual_parents.remove(&id);
            }
        }
        self.committed_trimmed += drop;
        // Genesis stays logically committed even once trimmed out of
        // the resident suffix.
        self.committed_set.insert(BlockId::GENESIS);
    }

    /// Drops uncommitted blocks below `height` and committed chain
    /// entries older than the last `keep_committed` (garbage collection
    /// / checkpointing). The genesis entry and committed tip are always
    /// retained.
    pub fn prune(&mut self, height: Height, keep_committed: usize) {
        let committed_set = &self.committed_set;
        self.blocks.retain(|id, b| {
            committed_set.contains(id) || b.height() >= height || *id == BlockId::GENESIS
        });
        if self.committed.len() > keep_committed.max(1) {
            let cut = self.committed.len() - keep_committed.max(1);
            for id in self.committed.drain(..cut) {
                self.committed_set.remove(&id);
                if id != BlockId::GENESIS {
                    self.blocks.remove(&id);
                    self.virtual_parents.remove(&id);
                }
            }
            self.committed_trimmed += cut;
            self.committed_set.insert(BlockId::GENESIS);
        }
    }
}

/// Iterator returned by [`BlockStore::branch`].
#[derive(Clone, Debug)]
pub struct Branch<'a> {
    store: &'a BlockStore,
    next: Option<BlockId>,
}

impl Iterator for Branch<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        let cur = self.next?;
        self.next = self
            .store
            .parent_id_of(&cur)
            .filter(|p| self.store.blocks.contains_key(p));
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Justify;
    use crate::ids::View;
    use crate::qc::Qc;
    use crate::transaction::Batch;

    fn child(parent: &Block, view: u64) -> Block {
        Block::new_normal(
            parent.id(),
            parent.view(),
            View(view),
            parent.height().next(),
            Batch::empty(),
            Justify::One(Qc::genesis(parent.id())),
        )
    }

    fn store_with_chain(len: usize) -> (BlockStore, Vec<Block>) {
        let mut store = BlockStore::new();
        let mut blocks = vec![store.genesis().clone()];
        for i in 0..len {
            let b = child(blocks.last().unwrap(), (i + 1) as u64);
            store.insert(b.clone());
            blocks.push(b);
        }
        (store, blocks)
    }

    #[test]
    fn paper_figure1_relations() {
        // Figure 1: b0 ← b1 ← b2 ← b3 and a conflicting d3 under b1.
        let (mut store, chain) = store_with_chain(3);
        let (b0, b1, b2, b3) = (&chain[0], &chain[1], &chain[2], &chain[3]);
        let d3 = Block::new_normal(
            b1.id(),
            b1.view(),
            View(9),
            b1.height().next(),
            Batch::empty(),
            Justify::One(Qc::genesis(b1.id())),
        );
        store.insert(d3.clone());
        assert!(store.is_extension(&b3.id(), &b2.id()));
        assert!(store.is_extension(&b3.id(), &b1.id()));
        assert!(store.is_extension(&b3.id(), &b0.id()));
        assert!(store.conflicts(&b3.id(), &d3.id()));
        assert!(!store.conflicts(&b2.id(), &b3.id()));
        assert_eq!(b3.height(), Height(3));
    }

    #[test]
    fn commit_walks_ancestors_in_order() {
        let (mut store, chain) = store_with_chain(3);
        let newly = store.commit(&chain[3].id()).unwrap();
        let ids: Vec<BlockId> = newly.iter().map(Block::id).collect();
        assert_eq!(ids, vec![chain[1].id(), chain[2].id(), chain[3].id()]);
        assert_eq!(store.last_committed(), chain[3].id());
        // Recommitting is a no-op.
        assert!(store.commit(&chain[3].id()).unwrap().is_empty());
    }

    #[test]
    fn commit_unknown_block_errors() {
        let mut store = BlockStore::new();
        let err = store
            .commit(&BlockId::from_digest(marlin_crypto::sha256(b"?")))
            .unwrap_err();
        assert!(matches!(err, CommitError::UnknownBlock(_)));
    }

    #[test]
    fn commit_with_missing_ancestor_errors() {
        let (full, chain) = store_with_chain(3);
        // A second store that never saw block 2.
        let mut sparse = BlockStore::new();
        sparse.insert(chain[1].clone());
        sparse.insert(chain[3].clone());
        let err = sparse.commit(&chain[3].id()).unwrap_err();
        assert_eq!(
            err,
            CommitError::MissingAncestor {
                of: chain[3].id(),
                parent: Some(chain[2].id())
            }
        );
        drop(full);
    }

    #[test]
    fn commit_conflicting_branch_errors() {
        let (mut store, chain) = store_with_chain(2);
        store.commit(&chain[2].id()).unwrap();
        // A fork off block 1 conflicts with committed block 2.
        let fork = child(&chain[1], 7);
        store.insert(fork.clone());
        let err = store.commit(&fork.id()).unwrap_err();
        assert!(matches!(err, CommitError::ConflictsWithCommitted { .. }));
    }

    #[test]
    fn virtual_parent_resolution() {
        let (mut store, chain) = store_with_chain(1);
        let parent = &chain[1];
        let vb = Block::new_virtual(
            parent.view(),
            View(2),
            parent.height().next(),
            Batch::empty(),
            Justify::One(Qc::genesis(parent.id())),
        );
        store.insert(vb.clone());
        // Unresolved: branch stops at the virtual block, commit fails.
        assert_eq!(store.branch(&vb.id()).count(), 1);
        assert!(matches!(
            store.commit(&vb.id()),
            Err(CommitError::MissingAncestor { parent: None, .. })
        ));
        // Resolve and retry.
        store.resolve_virtual_parent(vb.id(), parent.id());
        assert!(store.is_extension(&vb.id(), &BlockId::GENESIS));
        let newly = store.commit(&vb.id()).unwrap();
        assert_eq!(newly.len(), 2);
    }

    #[test]
    fn prune_keeps_committed_tip_and_genesis() {
        let (mut store, chain) = store_with_chain(6);
        store.commit(&chain[6].id()).unwrap();
        store.prune(Height(100), 2);
        assert!(store.contains(&BlockId::GENESIS));
        assert!(store.contains(&chain[6].id()));
        assert!(store.contains(&chain[5].id()));
        assert!(!store.contains(&chain[1].id()));
        assert_eq!(store.last_committed(), chain[6].id());
    }

    #[test]
    fn prune_retains_high_uncommitted_blocks() {
        let (mut store, chain) = store_with_chain(4);
        store.prune(Height(3), 10);
        // Heights 3 and 4 are retained even though uncommitted.
        assert!(store.contains(&chain[3].id()));
        assert!(store.contains(&chain[4].id()));
        assert!(!store.contains(&chain[1].id()));
    }

    #[test]
    fn prune_committed_before_bounds_resident_state() {
        let (mut store, chain) = store_with_chain(8);
        store.commit(&chain[8].id()).unwrap();
        assert_eq!(store.committed_offset(), 0);
        store.prune_committed_before(Height(5));
        assert_eq!(store.committed_offset(), 5);
        assert_eq!(store.committed_chain().len(), 4);
        assert_eq!(store.last_committed(), chain[8].id());
        assert!(store.contains(&BlockId::GENESIS));
        assert!(!store.contains(&chain[2].id()));
        assert!(!store.is_committed(&chain[2].id()));
        assert!(store.is_committed(&BlockId::GENESIS));
        assert_eq!(
            store.block_at_height(Height(6)).map(Block::id),
            Some(chain[6].id())
        );
        assert!(store.block_at_height(Height(2)).is_none());
        // Never prunes the tip, even with an absurd horizon.
        store.prune_committed_before(Height(1_000));
        assert_eq!(store.committed_chain().len(), 1);
        assert_eq!(store.last_committed(), chain[8].id());
        // Committing still extends the (now offset) chain.
        let next = child(&chain[8], 20);
        store.insert(next.clone());
        store.commit(&next.id()).unwrap();
        assert_eq!(store.last_committed(), next.id());
    }

    #[test]
    fn install_anchor_reroots_the_committed_chain() {
        let (mut store, chain) = store_with_chain(3);
        store.commit(&chain[2].id()).unwrap();
        // A far-ahead anchor at height 40, as a sync run would install.
        let mut parent = chain[3].clone();
        for v in 4..40 {
            let b = child(&parent, v);
            parent = b;
        }
        assert_eq!(parent.height(), Height(39));
        let anchor = child(&parent, 40);
        store.install_anchor(anchor.clone());
        assert_eq!(store.last_committed(), anchor.id());
        assert_eq!(store.committed_offset(), 40);
        assert_eq!(store.committed_chain().len(), 1);
        assert!(store.is_committed(&anchor.id()));
        assert!(!store.is_committed(&chain[2].id()));
        assert!(store.contains(&BlockId::GENESIS));
        // Commits above the anchor chain onto it.
        let next = child(&anchor, 41);
        store.insert(next.clone());
        let newly = store.commit(&next.id()).unwrap();
        assert_eq!(newly.len(), 1);
        assert_eq!(store.committed_offset(), 40);
        assert_eq!(store.committed_chain().len(), 2);
    }

    #[test]
    fn branch_iterates_to_genesis() {
        let (store, chain) = store_with_chain(3);
        let ids: Vec<BlockId> = store.branch(&chain[3].id()).collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], chain[3].id());
        assert_eq!(ids[3], BlockId::GENESIS);
    }
}
