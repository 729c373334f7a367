//! Property tests for the block tree: random trees preserve the
//! extension/conflict algebra and the committed chain stays linear.

use marlin_types::{Batch, Block, BlockId, BlockStore, Height, Justify, Qc, View};
use proptest::prelude::*;

/// Builds a random tree: each new block picks a random existing parent.
fn build_tree(parent_choices: &[u8]) -> (BlockStore, Vec<Block>) {
    let mut store = BlockStore::new();
    let mut blocks = vec![store.genesis().clone()];
    for (i, &choice) in parent_choices.iter().enumerate() {
        let parent = &blocks[choice as usize % blocks.len()];
        let block = Block::new_normal(
            parent.id(),
            parent.view(),
            View(i as u64 + 1),
            parent.height().next(),
            Batch::empty(),
            Justify::One(Qc::genesis(parent.id())),
        );
        store.insert(block.clone());
        blocks.push(block);
    }
    (store, blocks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `is_extension` is reflexive, genesis-rooted, and antisymmetric
    /// for distinct blocks; `conflicts` is symmetric and irreflexive.
    #[test]
    fn extension_and_conflict_algebra(choices in prop::collection::vec(any::<u8>(), 1..24)) {
        let (store, blocks) = build_tree(&choices);
        for a in &blocks {
            prop_assert!(store.is_extension(&a.id(), &a.id()));
            prop_assert!(store.is_extension(&a.id(), &BlockId::GENESIS));
            prop_assert!(!store.conflicts(&a.id(), &a.id()));
        }
        for a in &blocks {
            for b in &blocks {
                if a.id() == b.id() {
                    continue;
                }
                let ab = store.is_extension(&a.id(), &b.id());
                let ba = store.is_extension(&b.id(), &a.id());
                prop_assert!(!(ab && ba), "two distinct blocks extend each other");
                prop_assert_eq!(store.conflicts(&a.id(), &b.id()), !(ab || ba));
                prop_assert_eq!(
                    store.conflicts(&a.id(), &b.id()),
                    store.conflicts(&b.id(), &a.id())
                );
            }
        }
    }

    /// Heights along any branch strictly decrease toward genesis.
    #[test]
    fn branch_heights_decrease(choices in prop::collection::vec(any::<u8>(), 1..24)) {
        let (store, blocks) = build_tree(&choices);
        for b in &blocks {
            let heights: Vec<u64> = store
                .branch(&b.id())
                .map(|id| store.get(&id).expect("in store").height().0)
                .collect();
            for w in heights.windows(2) {
                prop_assert_eq!(w[0], w[1] + 1, "branch heights must step by one");
            }
            prop_assert_eq!(*heights.last().expect("nonempty"), 0, "branch ends at genesis");
        }
    }

    /// Committing any block commits exactly its uncommitted ancestors,
    /// in order; committing a conflicting block afterwards fails.
    #[test]
    fn commit_is_linear(choices in prop::collection::vec(any::<u8>(), 2..24), pick in any::<u8>()) {
        let (mut store, blocks) = build_tree(&choices);
        let target = &blocks[1 + (pick as usize % (blocks.len() - 1))];
        let newly = store.commit(&target.id()).expect("commit succeeds");
        // Newly committed = the branch to genesis, minus genesis, oldest first.
        let mut expect: Vec<BlockId> = store.branch(&target.id()).collect();
        expect.reverse();
        let expect: Vec<BlockId> = expect.into_iter().filter(|id| *id != BlockId::GENESIS).collect();
        let got: Vec<BlockId> = newly.iter().map(Block::id).collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(store.last_committed(), target.id());

        // Any block conflicting with the committed tip cannot commit.
        for other in &blocks {
            if store.conflicts(&other.id(), &target.id()) {
                prop_assert!(store.commit(&other.id()).is_err());
            }
        }
    }

    /// Pruning never removes the committed tip or genesis, and retained
    /// blocks still resolve their committed ancestry.
    #[test]
    fn prune_preserves_committed_tip(
        choices in prop::collection::vec(any::<u8>(), 2..24),
        keep in 1usize..6,
        height in 0u64..12,
    ) {
        let (mut store, blocks) = build_tree(&choices);
        let tip = blocks.last().expect("nonempty");
        // Commit the deepest chain through the last block's branch.
        let deepest = store
            .branch(&tip.id())
            .last()
            .expect("branch nonempty");
        let _ = deepest;
        store.commit(&tip.id()).expect("tip commits");
        store.prune(Height(height), keep);
        prop_assert!(store.contains(&BlockId::GENESIS));
        prop_assert!(store.contains(&store.last_committed()));
        prop_assert_eq!(store.last_committed(), tip.id());
    }

    /// Installing a snapshot anchor at height `h` leaves nothing at or
    /// below `h` but genesis and the anchor: the uncommitted proposals
    /// a lagging replica stored there can never commit. Every block
    /// above `h` stays, and a dropped virtual block's parent resolution
    /// goes with it.
    #[test]
    fn install_anchor_drops_blocks_it_makes_uncommittable(
        choices in prop::collection::vec(any::<u8>(), 1..24),
        h in 1u64..8,
    ) {
        let (mut store, blocks) = build_tree(&choices);
        let stale_virtual = Block::new_virtual(View(0), View(99), Height(h), Batch::empty(), Justify::None);
        store.insert(stale_virtual.clone());
        store.resolve_virtual_parent(stale_virtual.id(), BlockId::GENESIS);
        let anchor = Block::new_normal(
            BlockId::GENESIS, View(0), View(100), Height(h), Batch::empty(), Justify::None,
        );
        store.install_anchor(anchor.clone());
        prop_assert_eq!(store.last_committed(), anchor.id());
        for b in &blocks[1..] {
            prop_assert_eq!(store.contains(&b.id()), b.height().0 > h);
        }
        prop_assert!(store.contains(&BlockId::GENESIS));
        prop_assert!(!store.contains(&stale_virtual.id()));
        store.insert(stale_virtual.clone());
        prop_assert_eq!(store.parent_id_of(&stale_virtual.id()), None);
    }
}
