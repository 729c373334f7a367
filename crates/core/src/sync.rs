//! Ranged block sync for lagging replicas of every rule set: snapshot
//! anchors, pipelined range requests across peers, certified-prefix
//! verification, and peer scoring.
//!
//! A replica that falls far behind the committed tip (a long crash, a
//! cold start) cannot rejoin through the one-block-at-a-time fetch path
//! — and every replica's block tree would grow without bound while it
//! tried. This module gives [`Base`] a sync engine:
//!
//! * **Snapshot anchors.** Whenever a commit lands the tip on a multiple
//!   of `sync_snapshot_interval`, [`Base::try_commit`] records an
//!   *anchor* — the tip block with the commit certificate that
//!   committed it — persists it through a [`SnapshotStore`], and prunes
//!   the committed prefix **one full interval behind** it, so honest
//!   peers can serve ranges to rejoiners up to one interval older and
//!   resident state stays about two intervals.
//! * **Commit evidence.** A ladder's anchor carries a `commitQC`, which
//!   proves the commit alone. A pipeline's carries its block's
//!   `prepareQC`, which proves certification only: the run holds it as
//!   the floor of its walk until the walked chain shows the direct links
//!   above it ([`Rules::COMMIT_LINKS`], [`crate::chained::commit_evidence`]).
//! * **The sync run.** A verified commit certificate more than
//!   `sync_lag_threshold` above the tip starts a run instead of a
//!   commit: a [`MsgBody::SnapshotRequest`] first if the gap exceeds one
//!   interval, then `SYNC_RANGE_SIZE`-block chunks of the rest as
//!   [`MsgBody::BlockRangeRequest`]s pipelined across all peers.
//! * **Certified-prefix verification.** Fetched blocks are staged. Once
//!   every chunk is in, the run walks **top-down from the target QC**:
//!   the QC binds the top block's id, and each id covers its parent link
//!   and justify, so one signature check authenticates the prefix (a
//!   virtual block's parent is bound by the verified `vc` its child
//!   carries). The first mismatching height names the lying peer. The
//!   run then commits what the chain proves committed — for a pipeline
//!   never the target on its own `prepareQC`.
//! * **Peer scoring.** A peer that misses a chunk deadline, serves a
//!   short range or a chain that fails verification is demoted and
//!   banned for exponentially longer (capped); its chunks go to other
//!   peers, and if every peer is banned the bans are ignored rather than
//!   wedging the node. Once every peer has answered one chunk short —
//!   all pruned it — the run is abandoned, and the next commit
//!   certificate starts a fresh one.
//!
//! The engine is driven by the same clockless [`Action::SetHeartbeat`]
//! tick the idle-leader path uses, so it stays sans-io and deterministic
//! under simulation.

use crate::chained::commit_evidence;
use crate::events::{Action, Note, StepOutput};
use crate::replica::Rules;
use crate::util::Base;
use bytes::Bytes;
use marlin_storage::SnapshotStore;
use marlin_types::codec;
use marlin_types::{Block, BlockId, BlockStore, Height, Message, MsgBody, Phase, Qc, ReplicaId};
use std::collections::{BTreeMap, HashMap};

/// Blocks per ranged sync request when a lagging replica fetches the
/// committed chain from its peers.
const SYNC_RANGE_SIZE: u64 = 16;

/// Hard cap on blocks served per range response, whatever the request
/// asked for (an untrusted peer must not make us assemble a huge
/// message).
const MAX_RANGE_SERVE: u64 = 512;

/// Ticks a peer gets to answer a range request before the chunk is
/// re-assigned and the peer demoted.
const CHUNK_DEADLINE_TICKS: u64 = 4;

/// Ticks the snapshot phase waits before falling back to pure ranged
/// sync from the current tip.
const SNAPSHOT_DEADLINE_TICKS: u64 = 4;

/// Outstanding chunks per peer: keeps the fetch pipelined without
/// letting one peer absorb the whole run.
const MAX_INFLIGHT_PER_PEER: usize = 4;

/// First ban length; doubles per demerit up to [`BAN_CAP_TICKS`].
const BAN_BASE_TICKS: u64 = 8;

/// Longest ban an abusive peer can earn.
const BAN_CAP_TICKS: u64 = 256;

/// Sync-engine state owned by [`Base`]. Default-constructed inert; the
/// engine only acts when `Config::sync_snapshot_interval > 0`.
#[derive(Clone, Debug, Default)]
pub(crate) struct SyncState {
    /// Durable anchor storage, when the replica runs on a disk.
    snapshots: Option<SnapshotStore>,
    /// Newest self-certifying anchor (recorded locally or installed
    /// from a peer); served to [`MsgBody::SnapshotRequest`]s.
    latest_anchor: Option<(Block, Qc)>,
    /// The active sync run, if any.
    run: Option<SyncRun>,
    /// Peer scoring across runs.
    peers: HashMap<ReplicaId, PeerScore>,
    /// Tick counter (advanced by heartbeats while a run is active).
    tick: u64,
    /// Round-robin cursor for chunk assignment.
    rotation: usize,
}

#[derive(Clone, Debug)]
struct SyncRun {
    /// The verified commit QC this run syncs toward.
    target: Qc,
    /// Waiting for a usable snapshot anchor before building chunks.
    awaiting_snapshot: bool,
    /// Tick by which the snapshot phase gives up.
    snapshot_deadline: u64,
    /// A pipeline's anchor and the peer that served it: the bottom of
    /// the certified walk, installed only once the walk proves it
    /// committed (its `prepareQC` proves only certification).
    held: Option<(Block, Qc, ReplicaId)>,
    /// The gap partition; covers `(floor, target]` once built.
    chunks: Vec<Chunk>,
    /// Fetched blocks by height, staged until the certified walk.
    staged: BTreeMap<u64, Block>,
}

#[derive(Clone, Debug)]
struct Chunk {
    from: u64,
    to: u64,
    state: ChunkState,
    /// Peers that answered this chunk short (each had pruned it).
    short: Vec<ReplicaId>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChunkState {
    Pending,
    InFlight { peer: ReplicaId, deadline: u64 },
    Done { peer: ReplicaId },
}

#[derive(Clone, Copy, Debug, Default)]
struct PeerScore {
    demerits: u32,
    banned_until: u64,
}

/// Absolute height of the committed tip (position equals height along
/// the committed chain).
fn tip_of(store: &BlockStore) -> u64 {
    (store.committed_offset() + store.committed_chain().len() - 1) as u64
}

fn push_chunks(chunks: &mut Vec<Chunk>, lo: u64, hi: u64) {
    let mut h = lo;
    while h <= hi {
        let to = (h + SYNC_RANGE_SIZE - 1).min(hi);
        chunks.push(Chunk {
            from: h,
            to,
            state: ChunkState::Pending,
            short: Vec::new(),
        });
        h = to + 1;
    }
}

impl Base {
    /// Whether the sync/snapshot subsystem is active.
    pub fn sync_enabled(&self) -> bool {
        self.cfg.sync_snapshot_interval > 0
    }

    /// Attaches durable anchor storage and — trusted, it is the
    /// replica's own disk — installs the persisted anchor if it is
    /// ahead of the (journal-rebuilt) committed tip. Called on the
    /// recovery path before `Event::Recovered`.
    pub fn attach_snapshot_store(&mut self, snapshots: SnapshotStore) {
        let stored = snapshots.latest().map(Bytes::copy_from_slice);
        if let Some((block, qc)) = stored.and_then(|p| codec::decode::<(Block, Qc)>(&p).ok()) {
            if block.height().0 > tip_of(&self.store) {
                self.store.install_anchor(block.clone());
            }
            self.raise_latest_commit_qc(&qc);
            self.sync.latest_anchor = Some((block, qc));
        }
        self.sync.snapshots = Some(snapshots);
    }

    /// Handles the four sync wire messages (serving side for everyone,
    /// requester side when a run is active). Returns `true` if the
    /// message was consumed.
    pub fn handle_sync<R: Rules>(&mut self, msg: &Message, out: &mut StepOutput) -> bool {
        match &msg.body {
            MsgBody::SnapshotRequest => {
                // Own broadcast copies loop back through `step`; never
                // answer ourselves.
                if msg.from != self.cfg.id {
                    out.actions.push(Action::Send {
                        to: msg.from,
                        message: Message::new(
                            self.cfg.id,
                            self.cview,
                            MsgBody::SnapshotResponse {
                                snapshot: self.sync.latest_anchor.clone(),
                            },
                        ),
                    });
                }
                true
            }
            MsgBody::SnapshotResponse { snapshot } => {
                let evidence = (R::COMMIT_CERT, R::COMMIT_LINKS);
                self.on_snapshot_response(msg.from, snapshot.as_ref(), evidence, out);
                true
            }
            MsgBody::BlockRangeRequest {
                from_height,
                to_height,
            } => {
                self.serve_range(msg.from, from_height.0, to_height.0, out);
                true
            }
            MsgBody::BlockRangeResponse {
                from_height,
                blocks,
            } => {
                self.on_range_response(msg.from, from_height.0, blocks, R::COMMIT_LINKS, out);
                true
            }
            _ => false,
        }
    }

    /// Commits the chain a **verified** commit certificate (of the rule
    /// set's `COMMIT_CERT` phase) certifies — unless a sync run is
    /// active, which chases it, or it lies more than
    /// `sync_lag_threshold` above the tip, which starts one toward it.
    pub(crate) fn commit_or_sync(&mut self, qc: Qc, from: ReplicaId, out: &mut StepOutput) {
        let tip = tip_of(&self.store);
        let lagging = qc.height().0.saturating_sub(tip) > self.cfg.sync_lag_threshold;
        if !self.sync_enabled() || (self.sync.run.is_none() && !lagging) {
            return self.try_commit(qc, from, out);
        }
        if let Some(run) = self.sync.run.as_mut() {
            // Already syncing: chase a higher tip instead of committing.
            if qc.height() > run.target.height() {
                let held = run.held.as_ref().map_or(0, |(b, ..)| b.height().0);
                let covered = run.target.height().0.max(held);
                run.target = qc;
                if !run.awaiting_snapshot {
                    push_chunks(&mut run.chunks, covered + 1, qc.height().0);
                }
            }
            self.raise_latest_commit_qc(&qc);
            return self.dispatch(out);
        }
        self.raise_latest_commit_qc(&qc);
        // A gap deeper than one snapshot interval is worth a snapshot
        // jump; shallower gaps go straight to ranged fetch.
        let wants_snapshot = qc.height().0 - tip > self.cfg.sync_snapshot_interval;
        let mut run = SyncRun {
            target: qc,
            awaiting_snapshot: wants_snapshot,
            snapshot_deadline: self.sync.tick + SNAPSHOT_DEADLINE_TICKS,
            held: None,
            chunks: Vec::new(),
            staged: BTreeMap::new(),
        };
        if wants_snapshot {
            out.actions.push(Action::Broadcast {
                message: Message::new(self.cfg.id, self.cview, MsgBody::SnapshotRequest),
            });
        } else {
            push_chunks(&mut run.chunks, tip + 1, qc.height().0);
        }
        out.actions.push(Action::Note(Note::SyncStarted {
            from: Height(tip),
            target: qc.height(),
        }));
        self.sync.run = Some(run);
        self.dispatch(out);
        self.arm_tick(out);
    }

    /// Advances the sync engine by one heartbeat tick: snapshot-phase
    /// fallback, chunk deadlines, re-dispatch, re-arm. A no-op without
    /// an active run.
    pub fn sync_tick(&mut self, out: &mut StepOutput) {
        if self.sync.run.is_none() {
            return;
        }
        self.sync.tick += 1;
        let tick = self.sync.tick;
        let tip = tip_of(&self.store);
        let mut late: Vec<ReplicaId> = Vec::new();
        {
            let run = self.sync.run.as_mut().expect("checked above");
            if run.awaiting_snapshot && tick >= run.snapshot_deadline {
                // No usable anchor arrived: sync the whole gap by
                // ranges instead of wedging on the snapshot phase.
                run.awaiting_snapshot = false;
                if run.chunks.is_empty() {
                    push_chunks(&mut run.chunks, tip + 1, run.target.height().0);
                }
            }
            for c in run.chunks.iter_mut() {
                if let ChunkState::InFlight { peer, deadline } = c.state {
                    if tick >= deadline {
                        late.push(peer);
                        c.state = ChunkState::Pending;
                    }
                }
            }
        }
        late.sort_unstable_by_key(|p| p.0);
        late.dedup();
        for peer in late {
            self.demote(peer, out);
        }
        self.dispatch(out);
        self.arm_tick(out);
    }

    /// Records a self-certifying snapshot anchor when the committed tip
    /// crosses a snapshot-interval boundary, persists it, and prunes
    /// the committed prefix one interval behind it. Called from
    /// [`Base::try_commit`] with the QC that certified the new tip.
    pub(crate) fn record_anchor_if_due(&mut self, qc: &Qc) {
        let interval = self.cfg.sync_snapshot_interval;
        let h = qc.height().0;
        if interval == 0 || h == 0 || !h.is_multiple_of(interval) {
            return;
        }
        if self
            .sync
            .latest_anchor
            .as_ref()
            .is_some_and(|(b, _)| b.height().0 >= h)
        {
            return;
        }
        let Some(block) = self.store.get(&qc.block()).cloned() else {
            return;
        };
        debug_assert_eq!(qc.block(), block.id());
        self.keep_anchor(block, *qc);
        // Prune a full interval behind the anchor, not at it: honest
        // peers up to one interval behind can still be served ranges,
        // and resident state stays bounded to about two intervals.
        self.store
            .prune_committed_before(Height(h.saturating_sub(interval)));
        // The safety journal bounds its disk to the same horizon: any
        // generation still referencing pruned history gets folded away
        // (drained by the protocol's journal plumbing).
        self.journal_gc_due = Some(Height(h.saturating_sub(interval)));
    }

    pub(crate) fn raise_latest_commit_qc(&mut self, qc: &Qc) {
        if self
            .latest_commit_qc
            .as_ref()
            .is_none_or(|cur| qc.height() > cur.height())
        {
            self.latest_commit_qc = Some(*qc);
        }
    }

    fn serve_range(&mut self, to: ReplicaId, lo: u64, hi: u64, out: &mut StepOutput) {
        if to == self.cfg.id {
            return;
        }
        let hi = hi.min(lo.saturating_add(MAX_RANGE_SERVE - 1));
        let mut blocks = Vec::new();
        let mut h = lo;
        while h <= hi {
            match self.store.block_at_height(Height(h)) {
                Some(b) => blocks.push(b.clone()),
                // Pruned away or not committed yet: answer the prefix
                // we have (possibly empty) — the requester re-asks
                // elsewhere.
                None => break,
            }
            h += 1;
        }
        out.actions.push(Action::Send {
            to,
            message: Message::new(
                self.cfg.id,
                self.cview,
                MsgBody::BlockRangeResponse {
                    from_height: Height(lo),
                    blocks,
                },
            ),
        });
    }

    fn on_snapshot_response(
        &mut self,
        from: ReplicaId,
        snapshot: Option<&(Block, Qc)>,
        (cert, links): (Phase, usize),
        out: &mut StepOutput,
    ) {
        let awaiting = self
            .sync
            .run
            .as_ref()
            .is_some_and(|run| run.awaiting_snapshot);
        if !awaiting {
            return;
        }
        // A peer with no anchor answers None; that is honest (it may
        // simply be young) and costs it nothing.
        let Some((block, qc)) = snapshot else { return };
        let tip = tip_of(&self.store);
        let valid = qc.phase() == cert
            && qc.block() == block.id()
            && qc.height() == block.height()
            && block.height().0 > tip
            && self.crypto.verify_qc(qc);
        if !valid {
            self.demote(from, out);
            return;
        }
        self.crypto.charge_hash(block.wire_len());
        // A ladder's anchor is its own commit evidence; a pipeline's
        // waits for the certified walk above it.
        let self_certifying = links == 0;
        if self_certifying {
            self.install_snapshot(block, qc, out);
        }
        let anchor_h = block.height().0;
        let run = self.sync.run.as_mut().expect("awaiting implies run");
        run.awaiting_snapshot = false;
        if self_certifying && anchor_h >= run.target.height().0 {
            // The anchor alone reached (or passed) the target tip.
            self.sync.run = None;
            return out.actions.push(Action::Note(Note::SyncCompleted {
                height: Height(anchor_h),
            }));
        }
        run.held = (!self_certifying).then(|| (block.clone(), *qc, from));
        run.chunks.clear();
        run.staged.clear();
        push_chunks(&mut run.chunks, anchor_h + 1, run.target.height().0);
        self.dispatch(out);
    }

    /// Re-roots the block tree at a proven anchor and keeps it.
    fn install_snapshot(&mut self, block: &Block, qc: &Qc, out: &mut StepOutput) {
        self.store.install_anchor(block.clone());
        self.raise_latest_commit_qc(qc);
        self.keep_anchor(block.clone(), *qc);
        out.actions.push(Action::Note(Note::SyncSnapshotInstalled {
            height: block.height(),
            block: block.id(),
            bytes: block.wire_len() + qc.wire_len(),
        }));
    }

    /// Persists an anchor and serves it from now on (a failed save is
    /// not fatal: recovery falls back to the previous generation).
    fn keep_anchor(&mut self, block: Block, qc: Qc) {
        let anchor = (block, qc);
        if let Some(s) = self.sync.snapshots.as_mut() {
            let _ = s.save(&codec::encode(&anchor));
        }
        self.sync.latest_anchor = Some(anchor);
    }

    fn on_range_response(
        &mut self,
        from: ReplicaId,
        lo: u64,
        blocks: &[Block],
        links: usize,
        out: &mut StepOutput,
    ) {
        let n = self.cfg.n;
        let Some(run) = self.sync.run.as_mut().filter(|run| !run.awaiting_snapshot) else {
            return;
        };
        let Some(chunk) = run.chunks.iter_mut().find(|c| {
            c.from == lo && matches!(c.state, ChunkState::InFlight { peer, .. } if peer == from)
        }) else {
            // Late, duplicate, or unsolicited response.
            return;
        };
        let shaped = blocks.len() as u64 == chunk.to - chunk.from + 1
            && blocks
                .iter()
                .enumerate()
                .all(|(i, b)| b.height().0 == lo + i as u64);
        if !shaped {
            chunk.state = ChunkState::Pending;
            if !chunk.short.contains(&from) {
                chunk.short.push(from);
            }
            let unservable = chunk.short.len() + 1 >= n;
            self.demote(from, out);
            if unservable {
                // No peer holds the chunk any more, so no retry can
                // succeed: drop the run and let the next commit
                // certificate restart it with a fresh snapshot decision.
                self.sync.run = None;
                out.actions
                    .push(Action::Note(Note::SyncAbandoned { from: Height(lo) }));
            } else {
                self.dispatch(out);
            }
            return;
        }
        chunk.state = ChunkState::Done { peer: from };
        for b in blocks {
            run.staged.insert(b.height().0, b.clone());
        }
        let complete = run
            .chunks
            .iter()
            .all(|c| matches!(c.state, ChunkState::Done { .. }));
        let total: usize = blocks.iter().map(Block::wire_len).sum();
        self.crypto.charge_hash(total);
        out.actions.push(Action::Note(Note::SyncRangeFetched {
            from: Height(lo),
            count: blocks.len(),
        }));
        if complete {
            self.finish_run(links, out);
        } else {
            self.dispatch(out);
        }
    }

    /// Every chunk is staged: verify the whole prefix top-down against
    /// the target QC, apply it, and commit what it proves committed. On
    /// a verification failure the offending chunk's supplier is demoted
    /// and the chunk re-fetched; the rest of the staging area survives.
    /// A held anchor the walk cannot prove costs its sender a demerit.
    fn finish_run(&mut self, links: usize, out: &mut StepOutput) {
        let Some(run) = self.sync.run.take() else {
            return;
        };
        let tip_h = tip_of(&self.store);
        let held = run.held.clone().filter(|(b, ..)| b.height().0 > tip_h);
        let (floor_h, floor_id) = match &held {
            Some((b, ..)) => (b.height().0, b.id()),
            None => (tip_h, self.store.last_committed()),
        };
        let target_h = run.target.height().0;
        if target_h <= floor_h {
            // The tip moved past the target while chunks were in
            // flight (e.g. a newer anchor): nothing left to apply.
            return;
        }

        // Top-down certified walk. `expected` is the id height `h` must
        // have, grounded in the verified target QC.
        let mut expected = run.target.block();
        let mut resolutions: Vec<(BlockId, BlockId)> = Vec::new();
        let mut bad_height: Option<u64> = None;
        let mut abort = false;
        let mut h = target_h;
        while h > floor_h {
            let Some(b) = run.staged.get(&h) else {
                // Coverage hole (tip moved under the run): abort and
                // let the next decide restart cleanly.
                abort = true;
                break;
            };
            if b.id() != expected {
                bad_height = Some(h);
                break;
            }
            // The id covers parent link and justify, so everything
            // below comes from an authenticated block.
            let parent = if b.is_virtual() {
                // The committed block above a virtual block carries
                // `Justify::Two(_, vc)` where `vc` is a prepareQC
                // binding the virtual block's parent. For `h == target`
                // there is no block above — an (unusual) virtual tip
                // cannot anchor the walk, so retry on a later target.
                let vc = (h < target_h)
                    .then(|| run.staged.get(&(h + 1)))
                    .flatten()
                    .and_then(|above| above.justify().vc());
                match vc {
                    Some(vc)
                        if vc.height().0 + 1 == h
                            && vc.phase() == Phase::Prepare
                            && self.crypto.verify_qc(vc) =>
                    {
                        resolutions.push((b.id(), vc.block()));
                        vc.block()
                    }
                    _ => {
                        abort = true;
                        break;
                    }
                }
            } else {
                b.parent_id().expect("normal blocks carry a hash link")
            };
            if h == floor_h + 1 {
                if parent != floor_id {
                    // An authenticated prefix that does not extend our
                    // committed tip would mean our own chain forked —
                    // impossible under an honest quorum — and one that
                    // does not extend a held anchor disproves it.
                    // Conservative abort.
                    abort = true;
                }
                break;
            }
            expected = parent;
            h -= 1;
        }

        if let Some(bad) = bad_height {
            // Re-stage: blame the supplier of the first mismatching
            // height, clear exactly its chunk, and re-fetch it.
            let mut run = run;
            let mut cheat: Option<ReplicaId> = None;
            for c in run.chunks.iter_mut() {
                if c.from <= bad && bad <= c.to {
                    if let ChunkState::Done { peer } = c.state {
                        cheat = Some(peer);
                    }
                    for height in c.from..=c.to {
                        run.staged.remove(&height);
                    }
                    c.state = ChunkState::Pending;
                    break;
                }
            }
            self.sync.run = Some(run);
            if let Some(peer) = cheat {
                self.demote(peer, out);
            }
            self.dispatch(out);
            self.arm_tick(out);
            return;
        }
        if !abort {
            for b in run.staged.values() {
                self.store.insert(b.clone());
            }
            for (virtual_id, parent_id) in resolutions {
                self.store.resolve_virtual_parent(virtual_id, parent_id);
            }
        }
        let proven = commit_evidence(&self.store, &run.target, links, floor_h).filter(|_| !abort);
        let Some(proven) = proven else {
            if !abort && target_h < floor_h + links as u64 {
                // Too short to hold the links yet: the next commit
                // certificate extends the run.
                self.sync.run = Some(run);
            } else if let Some((_, _, peer)) = held {
                self.demote(peer, out);
                out.actions.push(Action::Note(Note::SyncAbandoned {
                    from: Height(floor_h),
                }));
            }
            return;
        };
        if let Some((block, qc, _)) = held {
            self.install_snapshot(&block, &qc, out);
        }
        let me = self.cfg.id;
        self.try_commit(proven, me, out);
        out.actions.push(Action::Note(Note::SyncCompleted {
            height: Height(tip_of(&self.store)),
        }));
    }

    /// Assigns pending chunks to eligible (non-banned) peers round-
    /// robin, bounded per peer. If every peer is banned, bans are
    /// ignored — a sync run must never wedge.
    fn dispatch(&mut self, out: &mut StepOutput) {
        let tick = self.sync.tick;
        let me = self.cfg.id;
        let cview = self.cview;
        let all: Vec<ReplicaId> = (0..self.cfg.n as u32)
            .map(ReplicaId)
            .filter(|r| *r != me)
            .collect();
        let mut eligible: Vec<ReplicaId> = all
            .iter()
            .copied()
            .filter(|r| {
                self.sync
                    .peers
                    .get(r)
                    .is_none_or(|s| s.banned_until <= tick)
            })
            .collect();
        if eligible.is_empty() {
            eligible = all;
        }
        let mut rotation = self.sync.rotation;
        let Some(run) = self.sync.run.as_mut() else {
            return;
        };
        if run.awaiting_snapshot {
            return;
        }
        let mut inflight: HashMap<ReplicaId, usize> = HashMap::new();
        for c in &run.chunks {
            if let ChunkState::InFlight { peer, .. } = c.state {
                *inflight.entry(peer).or_default() += 1;
            }
        }
        for c in run.chunks.iter_mut() {
            if c.state != ChunkState::Pending {
                continue;
            }
            let mut chosen = None;
            for k in 0..eligible.len() {
                let cand = eligible[(rotation + k) % eligible.len()];
                if inflight.get(&cand).copied().unwrap_or(0) < MAX_INFLIGHT_PER_PEER
                    && !c.short.contains(&cand)
                {
                    chosen = Some(cand);
                    rotation = (rotation + k + 1) % eligible.len();
                    break;
                }
            }
            let Some(peer) = chosen else {
                // Every eligible peer is saturated or has already
                // answered this chunk short; it waits for completions
                // or the next tick.
                continue;
            };
            *inflight.entry(peer).or_default() += 1;
            c.state = ChunkState::InFlight {
                peer,
                deadline: tick + CHUNK_DEADLINE_TICKS,
            };
            out.actions.push(Action::Send {
                to: peer,
                message: Message::new(
                    me,
                    cview,
                    MsgBody::BlockRangeRequest {
                        from_height: Height(c.from),
                        to_height: Height(c.to),
                    },
                ),
            });
        }
        self.sync.rotation = rotation;
    }

    fn demote(&mut self, peer: ReplicaId, out: &mut StepOutput) {
        let tick = self.sync.tick;
        let score = self.sync.peers.entry(peer).or_default();
        score.demerits += 1;
        let ban = (BAN_BASE_TICKS << (score.demerits - 1).min(5)).min(BAN_CAP_TICKS);
        score.banned_until = tick + ban;
        out.actions
            .push(Action::Note(Note::SyncPeerDemoted { peer }));
    }

    fn arm_tick(&self, out: &mut StepOutput) {
        out.actions.push(Action::SetHeartbeat {
            delay_ns: (self.cfg.base_timeout_ns / 8).max(1),
        });
    }
}
