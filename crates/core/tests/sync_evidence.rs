//! The commit evidence a sync run demands of a snapshot anchor and of
//! its target, per rule set. A laddered anchor is `(Block, commitQC)`
//! and proves its commit alone; a pipeline's is `(Block, prepareQC)`,
//! which proves only certification, so the run holds it as the bottom
//! of its certified walk and installs it — and commits anything above
//! it — only where the walked chain carries the direct links the
//! k-chain commit rule needs.

use marlin_core::{build_replica, Action, Config, Event, Note, Protocol, ProtocolKind};
use marlin_crypto::{sha256, QcFormat};
use marlin_types::{
    Batch, Block, BlockId, BlockKind, Decide, Height, Justify, Message, MsgBody, Phase, Qc, QcSeed,
    ReplicaId, View,
};

/// Four replicas on the test key store, with block sync on.
fn config() -> Config {
    let mut cfg = Config::for_test(4, 1);
    cfg.sync_snapshot_interval = 8;
    cfg
}

/// A quorum certificate signed by replicas 0..3 of [`config`]'s keys.
fn signed_qc(seed: QcSeed) -> Qc {
    let keys = config().keys;
    let partials: Vec<_> = (0..3)
        .map(|i| keys.signer(i).sign_partial(&seed.signing_bytes()))
        .collect();
    Qc::combine(seed, &partials, &keys, QcFormat::Threshold).expect("quorum combines")
}

fn certify(block: &Block, phase: Phase) -> Qc {
    signed_qc(block.vote_seed(phase, block.view()))
}

/// A certified chain from height 100 up: block `i` is proposed in
/// `views[i]` on its parent's `prepareQC`. Returns the blocks and their
/// `prepareQC`s; consecutive blocks of one view are direct links.
fn chain(views: &[u64]) -> (Vec<Block>, Vec<Qc>) {
    let parent_qc = signed_qc(QcSeed {
        phase: Phase::Prepare,
        view: View(views[0] - 1),
        block: BlockId::from_digest(sha256(b"parent")),
        height: Height(99),
        block_view: View(views[0] - 1),
        pview: View(views[0] - 2),
        block_kind: BlockKind::Normal,
    });
    let (mut blocks, mut qcs): (Vec<Block>, Vec<Qc>) = (Vec::new(), Vec::new());
    let mut justify = parent_qc;
    for &view in views {
        let block = Block::new_normal(
            justify.block(),
            justify.block_view(),
            View(view),
            justify.height().next(),
            Batch::empty(),
            Justify::One(justify),
        );
        justify = certify(&block, Phase::Prepare);
        blocks.push(block);
        qcs.push(justify);
    }
    (blocks, qcs)
}

fn message(from: u32, body: MsgBody) -> Event {
    Event::Message(Message::new(ReplicaId(from), View(1), body))
}

fn notes(out: &[Action]) -> impl Iterator<Item = &Note> {
    out.iter().filter_map(|a| match a {
        Action::Note(n) => Some(n),
        _ => None,
    })
}

fn installed(out: &[Action]) -> bool {
    notes(out).any(|n| matches!(n, Note::SyncSnapshotInstalled { .. }))
}

fn demoted(out: &[Action], peer: u32) -> bool {
    notes(out).any(|n| matches!(n, Note::SyncPeerDemoted { peer: p } if p.0 == peer))
}

/// Drives a replica of `kind` through one sync run: peer 1 serves
/// `target` as a commit certificate, peer 2 the anchor `blocks[0]` with
/// its `prepareQC`, and whoever is asked the range above it. Returns
/// every action and the replica.
fn sync_pipeline(
    kind: ProtocolKind,
    blocks: &[Block],
    qcs: &[Qc],
) -> (Vec<Action>, Box<dyn Protocol>) {
    let mut r = build_replica(kind, config(), None, false, None);
    let target = *qcs.last().expect("nonempty chain");
    let mut all = r
        .step(message(
            1,
            MsgBody::CatchUpResponse {
                commit_qc: Some(target),
            },
        ))
        .actions;
    let snapshot = Some((blocks[0].clone(), qcs[0]));
    let out = r.step(message(2, MsgBody::SnapshotResponse { snapshot }));
    let (peer, from) = out
        .actions
        .iter()
        .find_map(|a| match a {
            Action::Send { to, message } => match message.body {
                MsgBody::BlockRangeRequest { from_height, .. } => Some((to.0, from_height)),
                _ => None,
            },
            _ => None,
        })
        .expect("the held anchor leaves a range to fetch");
    assert_eq!(from, Height(101), "the walk's floor is the held anchor");
    all.extend(out.actions);
    let range = MsgBody::BlockRangeResponse {
        from_height: from,
        blocks: blocks[1..].to_vec(),
    };
    all.extend(r.step(message(peer, range)).actions);
    (all, r)
}

fn committed_tip(r: &dyn Protocol) -> u64 {
    let store = r.store();
    (store.committed_offset() + store.committed_chain().len() - 1) as u64
}

const PIPELINES: [ProtocolKind; 2] = [ProtocolKind::ChainedMarlin, ProtocolKind::ChainedHotStuff];

/// A certified anchor with no direct link above it, under a target
/// whose chain holds none either: nothing proves the anchor committed,
/// so the replica installs nothing, commits nothing and demotes the
/// peer that served it.
#[test]
fn pipeline_refuses_an_anchor_without_direct_links_above_it() {
    let (blocks, qcs) = chain(&[100, 101, 102, 103, 104]);
    for kind in PIPELINES {
        let (out, r) = sync_pipeline(kind, &blocks, &qcs);
        assert!(!installed(&out), "{kind:?} installed an unproven anchor");
        assert!(
            !out.iter().any(|a| matches!(a, Action::Commit { .. })),
            "{kind:?} committed on a bare prepareQC"
        );
        assert_eq!(committed_tip(r.as_ref()), 0, "{kind:?}");
        assert!(
            demoted(&out, 2),
            "{kind:?} kept trusting the anchor's sender"
        );
    }
}

/// The same walk with the links present low in the chain only: the
/// anchor installs and the replica commits exactly the prefix its
/// k-chain proves — up to 101 for chained Marlin (two-chain: one link
/// above), the anchor itself for chained HotStuff (three-chain: two) —
/// and never the certified blocks above it, the target least of all.
#[test]
fn pipeline_commits_only_what_its_k_chain_proves() {
    let (blocks, qcs) = chain(&[100, 100, 100, 101, 102]);
    for (kind, proven) in [
        (ProtocolKind::ChainedMarlin, 101),
        (ProtocolKind::ChainedHotStuff, 100),
    ] {
        let (out, r) = sync_pipeline(kind, &blocks, &qcs);
        assert!(installed(&out), "{kind:?} refused a proven anchor");
        assert_eq!(committed_tip(r.as_ref()), proven, "{kind:?}");
        assert!(!demoted(&out, 2), "{kind:?} demoted an honest anchor");
    }
}

/// A ladder's anchor must carry the `commitQC`: a `prepareQC` over the
/// same block is refused and its sender demoted, while the block's
/// `commitQC` from another peer installs.
#[test]
fn ladder_refuses_a_prepare_phase_anchor() {
    let (blocks, _) = chain(&[100]);
    let anchor = &blocks[0];
    let mut r = build_replica(ProtocolKind::Marlin, config(), None, false, None);
    let commit_qc = certify(anchor, Phase::Commit);
    r.step(message(1, MsgBody::Decide(Decide { commit_qc })));
    let prepare = Some((anchor.clone(), certify(anchor, Phase::Prepare)));
    let out = r.step(message(2, MsgBody::SnapshotResponse { snapshot: prepare }));
    assert!(!installed(&out.actions), "a prepareQC anchor installed");
    assert!(demoted(&out.actions, 2));
    assert_eq!(committed_tip(r.as_ref()), 0);
    let commit = Some((anchor.clone(), commit_qc));
    let out = r.step(message(3, MsgBody::SnapshotResponse { snapshot: commit }));
    assert!(installed(&out.actions));
    assert_eq!(committed_tip(r.as_ref()), 100);
}
