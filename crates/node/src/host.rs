//! The replica host: a protocol plus its durable block log.

use marlin_core::{
    build_replica, Action, Config, Event, Protocol, ProtocolKind, SafetyJournal, StepOutput,
};

use marlin_storage::{KvStore, MemDisk, SharedDisk, StoreConfig};
use marlin_types::{codec, Block, BlockStore, Message, MsgBody, ReplicaId, View};

/// The paper's checkpoint (garbage-collection) interval: every 5000
/// blocks (Section VI).
pub const CHECKPOINT_INTERVAL: u64 = 5_000;

/// Wraps a protocol with the durable block log.
///
/// Every committed block is encoded and written to the LevelDB stand-in
/// before being released to the application, and a checkpoint
/// (flush + compaction) runs every [`CHECKPOINT_INTERVAL`] blocks; the
/// simulated I/O cost is charged to the replica's CPU time, reproducing
/// the paper's "we write to the database, not memory" setup.
pub struct ReplicaHost {
    inner: Box<dyn Protocol>,
    db: KvStore<MemDisk>,
    blocks_since_checkpoint: u64,
    persist: bool,
}

impl ReplicaHost {
    /// Wraps `inner` with a fresh in-memory-disk database.
    pub fn new(inner: Box<dyn Protocol>, persist: bool) -> Self {
        let db = KvStore::open(MemDisk::new(), StoreConfig::default())
            .expect("MemDisk cannot fail to open");
        ReplicaHost {
            inner,
            db,
            blocks_since_checkpoint: 0,
            persist,
        }
    }

    /// A Marlin replica whose consensus safety state is write-ahead
    /// journaled on `disk` (DESIGN.md §9): the lock, last vote, and
    /// view are appended and synced before any vote leaves the host,
    /// so a crash can never lead to an equivocating restart.
    pub fn durable(cfg: Config, disk: SharedDisk, persist: bool) -> Self {
        let journal = SafetyJournal::open(disk).expect("fresh safety journal");
        ReplicaHost::new(
            build_replica(ProtocolKind::Marlin, cfg, Some(journal), false, None),
            persist,
        )
    }

    /// Rebuilds a crashed [`ReplicaHost::durable`] replica from its
    /// safety journal: the replayed view, last-voted block, lock, and
    /// `highQC` (torn final records discarded by CRC) gate every vote
    /// the restarted replica casts.
    pub fn recover(cfg: Config, disk: SharedDisk, persist: bool) -> Self {
        let journal = SafetyJournal::open(disk).expect("safety journal replay");
        ReplicaHost::new(
            build_replica(ProtocolKind::Marlin, cfg, Some(journal), true, None),
            persist,
        )
    }

    /// Read access to the block log database.
    pub fn db(&mut self) -> &mut KvStore<MemDisk> {
        &mut self.db
    }

    fn persist_blocks(&mut self, blocks: &[Block]) -> u64 {
        for block in blocks {
            let key = format!("block/{:020}", block.height().0).into_bytes();
            let msg = Message::new(
                self.inner.id(),
                block.view(),
                MsgBody::FetchResponse {
                    block: block.clone(),
                    virtual_parent: None,
                },
            );
            let value = codec::encode_message(&msg, false).to_vec();
            self.db.put(key, value).expect("MemDisk put cannot fail");
            self.blocks_since_checkpoint += 1;
        }
        if self.blocks_since_checkpoint >= CHECKPOINT_INTERVAL {
            self.blocks_since_checkpoint = 0;
            self.db
                .checkpoint()
                .expect("MemDisk checkpoint cannot fail");
        }
        self.db.take_io_cost_ns()
    }
}

impl Protocol for ReplicaHost {
    fn config(&self) -> &Config {
        self.inner.config()
    }

    fn current_view(&self) -> View {
        self.inner.current_view()
    }

    fn store(&self) -> &BlockStore {
        self.inner.store()
    }

    fn mempool_len(&self) -> usize {
        self.inner.mempool_len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_event(&mut self, event: Event) -> StepOutput {
        let mut out = self.inner.on_event(event);
        if self.persist {
            let mut io_ns = 0;
            for action in &out.actions {
                if let Action::Commit { blocks } = action {
                    let blocks = blocks.clone();
                    io_ns += self.persist_blocks(&blocks);
                }
            }
            // Durable writes run on the journal/IO lane; keep the
            // scalar total consistent with the lane split.
            out.cpu_ns += io_ns;
            out.journal_ns += io_ns;
        }
        out
    }

    fn maintain_crypto(&mut self, max_verified: usize) -> marlin_core::CryptoCacheStats {
        self.inner.maintain_crypto(max_verified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_core::harness::build_protocol;
    use marlin_core::ProtocolKind;
    use marlin_types::Transaction;

    fn host_pair() -> Vec<ReplicaHost> {
        let cfg = Config::for_test(4, 1);
        (0..4u32)
            .map(|i| {
                ReplicaHost::new(
                    build_protocol(ProtocolKind::Marlin, cfg.with_id(ReplicaId(i))),
                    true,
                )
            })
            .collect()
    }

    /// Drives four hosts to a commit by routing messages by hand.
    #[test]
    fn commits_are_persisted_with_io_cost() {
        let mut hosts = host_pair();
        let mut queue: Vec<(ReplicaId, Event)> =
            (0..4u32).map(|i| (ReplicaId(i), Event::Start)).collect();
        queue.push((
            ReplicaId(1),
            Event::NewTransactions(vec![Transaction::new(1, 0, bytes::Bytes::new(), 0)]),
        ));
        let mut committed = 0usize;
        let mut cpu_total = 0u64;
        let mut steps = 0;
        while let Some((to, ev)) = queue.pop() {
            steps += 1;
            assert!(steps < 100_000);
            let out = hosts[to.index()].step(ev);
            cpu_total += out.cpu_ns;
            for action in out.actions {
                match action {
                    Action::Send { to, message } => queue.push((to, Event::Message(message))),
                    Action::Broadcast { message } => {
                        for i in 0..4u32 {
                            if ReplicaId(i) != to {
                                queue.push((ReplicaId(i), Event::Message(message.clone())));
                            }
                        }
                    }
                    Action::Commit { blocks } => committed += blocks.len(),
                    _ => {}
                }
            }
        }
        assert!(committed > 0, "nothing committed");
        // Storage I/O was charged (the crypto model is zero in tests, so
        // any CPU time here is database cost).
        assert!(cpu_total > 0, "no I/O cost charged");
        // The block log contains the committed blocks.
        let mut with_block = 0;
        for h in &mut hosts {
            if h.db().get(b"block/00000000000000000001").unwrap().is_some() {
                with_block += 1;
            }
        }
        assert!(
            with_block >= 3,
            "block log missing on {} hosts",
            4 - with_block
        );
    }

    /// A durable host crashed after entering a view comes back
    /// remembering it — the journal survives, the process state does
    /// not.
    #[test]
    fn durable_host_recovers_its_view_from_disk() {
        let cfg = Config::for_test(4, 1);
        let disk = marlin_storage::SharedDisk::new();
        let mut host = ReplicaHost::durable(cfg.with_id(ReplicaId(0)), disk.clone(), false);
        host.step(Event::Start);
        let view = host.current_view();
        assert!(view >= View(1));
        drop(host); // process death
        disk.crash(); // power loss: unsynced bytes are gone
        let recovered = ReplicaHost::recover(cfg.with_id(ReplicaId(0)), disk, false);
        assert_eq!(recovered.current_view(), view);
    }

    #[test]
    fn persistence_can_be_disabled() {
        let cfg = Config::for_test(4, 1);
        let mut host = ReplicaHost::new(
            build_protocol(ProtocolKind::Marlin, cfg.with_id(ReplicaId(0))),
            false,
        );
        let out = host.step(Event::Start);
        // No I/O charge without persistence (crypto cost is zero).
        assert_eq!(out.cpu_ns, 0);
    }
}
